"""Sparse-matrix storage conventions and the linear solvers used by the scheme.

Matrices are scipy CSR (row_offsets = indptr, column_indices = indices,
values = data). Solvers are Krylov methods with diagonal preconditioning;
a nonsymmetric solve that BiCGStab gives up on is finished by GMRES
preconditioned with sparse LU factors of the matrix. Every solve
re-verifies its residual with one explicit matrix-vector product before
returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class SolverError(RuntimeError):
    """Non-convergence or breakdown; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


@dataclass
class SolverConfig:
    rel_tolerance: float = 1e-10
    max_iterations: int | None = None  # defaults to 10 * n

    def __post_init__(self):
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.rel_tolerance}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def iterations_for(self, n: int) -> int:
        return self.max_iterations if self.max_iterations is not None else 10 * n


def spmv(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {x.shape}")
    return a @ x


def _inv_diagonal(a: sp.csr_matrix) -> np.ndarray:
    d = a.diagonal().copy()
    # zero (or denormal) diagonal entries fall back to the identity scaling
    bad = np.abs(d) < 1e-300
    d[bad] = 1.0
    return 1.0 / d


def solve_spd(a: sp.csr_matrix, b: np.ndarray, config: SolverConfig | None = None,
              info: dict | None = None) -> np.ndarray:
    """Conjugate gradients with Jacobi preconditioning for SPD systems."""
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        if info is not None:
            info["iterations"] = 0
        return np.zeros_like(b)

    dinv = _inv_diagonal(a)
    x = np.zeros_like(b)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = r @ z
    tol = config.rel_tolerance * bnorm
    max_it = config.iterations_for(b.shape[0])

    k = 0
    while k < max_it:
        k += 1
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            # recursive residual can drift; accept only a verified one
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                break
        z = dinv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError("conjugate gradients did not converge",
                          np.linalg.norm(b - a @ x) / bnorm)
    if info is not None:
        info["iterations"] = k
    return x


def _bicgstab(a, b, dinv, tol, max_it):
    """Stabilized bi-conjugate gradients; restarts the shadow residual on
    near-breakdown instead of failing outright. Returns (x, iterations)."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    restarts = 0
    best = np.inf

    k = 0
    while k < max_it:
        k += 1
        rho_new = r_shadow @ r

        def restart():
            nonlocal r, r_shadow, rho, alpha, omega, v, p, restarts, best
            r = b - a @ x
            res = np.linalg.norm(r)
            if not np.isfinite(res) or (res >= best and restarts > 2):
                raise SolverError("bicgstab stagnated", res / bnorm)
            best = min(best, res)
            restarts += 1
            r_shadow = r.copy()
            rho = alpha = omega = 1.0
            v = np.zeros_like(b)
            p = np.zeros_like(b)

        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm) or rnorm > 1e8 * bnorm:
            raise SolverError("bicgstab diverged", rnorm / bnorm)
        scale = np.linalg.norm(r_shadow) * rnorm
        # exact zeros are tested apart: the relative thresholds underflow to 0.0
        if rho_new == 0.0 or abs(rho_new) < 1e-30 * max(scale, 1e-300) or abs(omega) < 1e-300:
            restart()
            continue
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = dinv * p
        v = a @ phat
        denom = r_shadow @ v
        scale = np.linalg.norm(r_shadow) * np.linalg.norm(v)
        if denom == 0.0 or abs(denom) < 1e-30 * max(scale, 1e-300):
            restart()
            continue
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol:
            x += alpha * phat
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                return x, k
            continue
        shat = dinv * s
        t = a @ shat
        tt = t @ t
        if tt < 1e-300:
            restart()
            continue
        omega = (t @ s) / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        if np.linalg.norm(r) <= tol:
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                return x, k
    raise SolverError("bicgstab did not converge", np.linalg.norm(b - a @ x) / bnorm)


@dataclass
class LuFactors:
    """Holder for the LU factors of one matrix, made when first needed.

    Empty until BiCGStab gives up on the matrix; once filled, solves that
    pass the holder skip BiCGStab and go straight to the factors. Keep one
    holder per matrix (the scheme keeps one per `Operators`).
    """

    lu: object = None  # scipy SuperLU


def _factorize(a: sp.csr_matrix):
    """Sparse LU with an ordering suited to a structurally symmetric pattern."""
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        # no iterate exists yet: the residual is that of the zero start
        raise SolverError(f"LU factorization failed: {exc}", 1.0) from exc


def _gmres_fallback(a, b, tol, max_it, factors: LuFactors):
    """GMRES preconditioned by LU factors of `a`, factoring into `factors` if empty."""
    import scipy.sparse.linalg as spla

    if factors.lu is None:
        factors.lu = _factorize(a)
    count = {"n": 0}

    def cb(_):
        count["n"] += 1

    x, _ = spla.gmres(a, b, rtol=0.0, atol=tol, restart=10, maxiter=max(1, max_it // 10),
                      M=spla.LinearOperator(a.shape, matvec=factors.lu.solve),
                      callback=cb, callback_type="pr_norm")
    res = np.linalg.norm(b - a @ x)
    if not res <= tol:
        raise SolverError("gmres fallback did not converge", res / np.linalg.norm(b))
    return x, count["n"]


def solve_general(a: sp.csr_matrix, b: np.ndarray, config: SolverConfig | None = None,
                  info: dict | None = None, factors: LuFactors | None = None) -> np.ndarray:
    """Solve a square nonsymmetric system.

    Jacobi-preconditioned stabilized bi-conjugate gradients is the first
    attempt; if it breaks down or stagnates, GMRES preconditioned by LU
    factors of `a` finishes the solve. Pass a `LuFactors` holder kept with
    `a` to build the factors once and skip BiCGStab on every later solve;
    without one, the factors are made for this solve only. The returned
    residual always satisfies ||b - Ax|| <= tol * ||b||, verified by an
    explicit multiplication.
    """
    config = config or SolverConfig()
    factors = factors if factors is not None else LuFactors()
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        if info is not None:
            info["iterations"] = 0
        return np.zeros_like(b)

    tol = config.rel_tolerance * bnorm
    max_it = config.iterations_for(b.shape[0])
    if factors.lu is None:
        try:
            # give the cheap method a bounded attempt before the robust one
            x, k = _bicgstab(a, b, _inv_diagonal(a), tol, min(max_it, max(300, b.shape[0] // 4)))
        except SolverError:
            x, k = _gmres_fallback(a, b, tol, max_it, factors)
    else:
        x, k = _gmres_fallback(a, b, tol, max_it, factors)
    if info is not None:
        info["iterations"] = k
    return x


def solve_neumann_zero_mean(k_mat: sp.csr_matrix, b: np.ndarray, mass_row_sums: np.ndarray,
                            config: SolverConfig | None = None,
                            info: dict | None = None) -> np.ndarray:
    """Solve a singular Neumann system whose kernel is the constants.

    The right-hand side is first projected orthogonal to the constant
    vector (required for solvability), conjugate gradients run in that
    complement, and the solution is shifted so its mass-weighted mean
    sum_i psi_i (1, q_i) vanishes, i.e. the field integrates to zero.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    raw_norm = np.linalg.norm(b)
    b = b - b.sum() / n
    bnorm = np.linalg.norm(b)
    # data living entirely in the kernel projects to roundoff noise
    if bnorm <= 1e-14 * max(raw_norm, 1.0):
        if info is not None:
            info["iterations"] = 0
        return np.zeros_like(b)

    dinv = _inv_diagonal(k_mat)

    def project(v):
        return v - v.sum() / n

    x = np.zeros_like(b)
    r = b.copy()
    z = project(dinv * r)
    p = z.copy()
    rz = r @ z
    tol = config.rel_tolerance * bnorm
    max_it = config.iterations_for(n)

    k = 0
    while k < max_it:
        k += 1
        ap = k_mat @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            r = project(b - k_mat @ x)
            if np.linalg.norm(r) <= tol:
                break
        z = project(dinv * r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError("projected conjugate gradients did not converge",
                          np.linalg.norm(b - k_mat @ x) / bnorm)
    if info is not None:
        info["iterations"] = k
    # fix the kernel component: mass-weighted mean zero
    x -= (mass_row_sums @ x) / mass_row_sums.sum()
    return x
