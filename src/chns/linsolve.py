"""Sparse-matrix storage conventions and the linear solvers used by the scheme.

Matrices are scipy CSR (row_offsets = indptr, column_indices = indices,
values = data). Every solve has one call shape: the matrix, the
right-hand side, a relative tolerance and the matrix's solver data, and it
returns (x, iterations) with ||b - Ax|| <= tol ||b||, re-verified by one
explicit matrix-vector product. The iteration limit is 10 n (BiCGStab's
first attempt gets fewer).

The symmetric solves, SPD (`solve_spd`) and singular Neumann
(`solve_neumann_zero_mean`), run one preconditioned conjugate gradient
loop, the latter projected off the constants. The caller passes the
preconditioner, made once per matrix: a symmetric multigrid V-cycle
(`VCycle`) or the Jacobi diagonal (`jacobi`), which is also the default.
A nonsymmetric solve (`solve_general`) runs Jacobi BiCGStab, and one that
BiCGStab gives up on is finished by GMRES preconditioned with sparse LU
factors of the matrix, kept in the matrix's `Factors` holder.

Only the LU fallback imports `scipy.sparse.linalg`, and only when it first
runs: that module alone adds about 9 MB to a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp


class SolverError(RuntimeError):
    """Non-convergence or breakdown; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


SWEEPS = 2            # damped Jacobi sweeps before and after each coarse correction
JACOBI_SCALE = 1.3    # smoothing weight times the estimated lambda_max(D^-1 A)
POWER_STEPS = 10      # power steps of that estimate


def _jacobi_weight(a: sp.csr_matrix, dinv: np.ndarray) -> float:
    """JACOBI_SCALE / lambda_max(D^-1 A), the eigenvalue from power steps.

    The start vector is fixed, so the weight repeats bit for bit. The
    Rayleigh quotient x.Ax / x.Dx bounds lambda_max from below.
    """
    x = np.random.default_rng(0).standard_normal(a.shape[0])
    for _ in range(POWER_STEPS):
        x = dinv * (a @ x)
        x /= np.linalg.norm(x)
    return JACOBI_SCALE * (x @ (x / dinv)) / (x @ (a @ x))


class VCycle:
    """Symmetric multigrid V-cycle, a preconditioner for conjugate gradients.

    Level 0 is `a`; level l + 1 is the Galerkin product P^T A_l P of the
    l-th prolongation P. Each level but the coarsest smooths with SWEEPS
    damped Jacobi sweeps before its coarse correction and as many after,
    starting from zero. The coarsest level is smoothed the same way, or,
    with `coarse_pinv`, solved by its dense pseudo-inverse; that option is
    for a Neumann problem, whose kernel is the constant vector e / |e| = q,
    and forms the pseudo-inverse as inv(A + q q^T) - q q^T (an eigenvalue
    decomposition would load more of LAPACK, about 2 MB of memory). With
    equal sweeps before and after, restriction P^T and a symmetric
    coarsest step, the cycle is a symmetric operator.

    With `interleaved`, `a` is the interleaved two-component form
    `expand_vector(A)` of a scalar operator A, and the prolongations act on
    A's nodes: the coarse levels are built from A, then interleaved the
    same way, so their Galerkin products cost a scalar's.
    """

    def __init__(self, a: sp.csr_matrix, prolongations=(), interleaved: bool = False,
                 coarse_pinv: bool = False):
        ncomp = 2 if interleaved else 1
        scalar = a[0::2, 0::2].tocsr() if interleaved else a
        self.ops, self.smoothers, self.prolong, self.restrict = [], [], [], []
        for p in prolongations:
            self._add_level(a, scalar, ncomp)
            p = sp.csr_matrix(p)
            scalar = (p.T @ (scalar @ p)).tocsr()
            a, p = (expand_vector(scalar), expand_vector(p)) if interleaved else (scalar, p)
            self.prolong.append(p)
            self.restrict.append(p.T)  # a CSC view of p's arrays, not a copy
        self.coarse_inverse = None
        if coarse_pinv:
            n = a.shape[0]
            qqt = np.full((n, n), 1.0 / n)
            inv = np.linalg.inv(a.toarray() + qqt) - qqt
            self.coarse_inverse = 0.5 * (inv + inv.T)
        else:
            self._add_level(a, scalar, ncomp)

    def _add_level(self, a: sp.csr_matrix, scalar: sp.csr_matrix, ncomp: int) -> None:
        # kron(A, I) and A share D^-1 A's spectrum, so the scalar gives the weight
        dinv = _inv_diagonal(scalar)
        self.ops.append(a)
        self.smoothers.append(np.repeat(_jacobi_weight(scalar, dinv) * dinv, ncomp))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.ops):
            return self.coarse_inverse @ b
        a, w = self.ops[level], self.smoothers[level]
        x = w * b
        for _ in range(SWEEPS - 1):
            _smooth(a, w, b, x)
        if level < len(self.prolong):
            r = a @ x
            np.subtract(b, r, out=r)
            x += self.prolong[level] @ self._cycle(level + 1, self.restrict[level] @ r)
        for _ in range(SWEEPS):
            _smooth(a, w, b, x)
        return x


def _smooth(a: sp.csr_matrix, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """One damped Jacobi sweep in place: x += w (b - A x)."""
    r = a @ x
    np.subtract(b, r, out=r)
    r *= w
    x += r


@dataclass
class Factors:
    """Solver data of a nonsymmetric matrix, each part made the first time a solve needs it.

    `dinv` is the inverse diagonal (the Jacobi preconditioner of BiCGStab).
    `lu` holds sparse LU factors, made only when BiCGStab gives up on the
    matrix; once filled, solves that pass the holder skip BiCGStab and go
    straight to the factors. Keep one holder per matrix and pass it to every
    solve with that matrix.
    """

    dinv: np.ndarray | None = None
    lu: object = None  # scipy SuperLU


def expand_vector(m_scalar: sp.csr_matrix) -> sp.csr_matrix:
    """The interleaved vector form kron(m_scalar, I2): row 2i + c holds row i at columns 2j + c."""
    indptr, indices, data = m_scalar.indptr, m_scalar.indices, m_scalar.data
    n = m_scalar.shape[0]
    out_indptr = np.empty(2 * n + 1, dtype=indptr.dtype)
    out_indptr[0::2] = 2 * indptr
    out_indptr[1::2] = indptr[:-1] + indptr[1:]
    # entry k of row i lands at indptr[i] + k for c = 0, one row length further for c = 1
    row_nnz = np.diff(indptr)
    row = np.repeat(np.arange(n), row_nnz)
    pos = np.arange(m_scalar.nnz) + indptr[row]
    pos = np.concatenate([pos, pos + row_nnz[row]])
    out_indices = np.empty(2 * m_scalar.nnz, dtype=indices.dtype)
    out_indices[pos] = np.concatenate([2 * indices, 2 * indices + 1])
    out_data = np.empty(2 * m_scalar.nnz, dtype=data.dtype)
    out_data[pos] = np.concatenate([data, data])
    return sp.csr_matrix((out_data, out_indices, out_indptr), shape=(2 * n, 2 * m_scalar.shape[1]))


def _inv_diagonal(a: sp.csr_matrix) -> np.ndarray:
    d = a.diagonal().copy()
    # zero (or denormal) diagonal entries fall back to the identity scaling
    bad = np.abs(d) < 1e-300
    d[bad] = 1.0
    return 1.0 / d


def jacobi(a: sp.csr_matrix):
    """The Jacobi preconditioner of `a`: r -> D^-1 r."""
    return partial(np.multiply, _inv_diagonal(a))


def _pcg(a, b, precondition, tol, project=None):
    """Preconditioned conjugate gradients from x = 0 to ||b - Ax|| <= tol; returns (x, k).

    k counts the iterations. `project`, if given, maps a vector to the
    subspace the iteration stays in: it is applied to each preconditioned
    residual and to the verified residual. Raises SolverError at the first
    non-finite residual, or after 10 n iterations.
    """
    def keep(v):
        return v if project is None else project(v)

    name = "conjugate gradients" if project is None else "projected conjugate gradients"
    x = np.zeros_like(b)
    r = b.copy()
    z = keep(precondition(r))
    p = z.copy()
    rz = r @ z

    k = 0
    while k < 10 * b.shape[0]:
        k += 1
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            # recursive residual can drift; accept only a verified one
            r = keep(b - a @ x)
            if np.linalg.norm(r) <= tol:
                return x, k
        elif not np.isfinite(rnorm):
            # a NaN or inf never shrinks; do not spend the iteration limit on it
            raise SolverError(f"{name} met a non-finite residual", rnorm / np.linalg.norm(b))
        z = keep(precondition(r))
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"{name} did not converge",
                      np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def solve_spd(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-10,
              precondition=None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for SPD systems; returns (x, iterations).

    `precondition` maps a residual to its preconditioned form: keep one per
    matrix and pass it to every solve with that matrix. The default is
    `jacobi(a)`, made for this solve.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    return _pcg(a, b, precondition or jacobi(a), tol * bnorm)


def _bicgstab(a, b, dinv, tol, max_it):
    """Stabilized bi-conjugate gradients; restarts the shadow residual on
    near-breakdown instead of failing outright. Returns (x, iterations).

    The vector updates write into work vectors made once per call; each
    keeps the floating-point operations, and their order, of the textbook
    expressions in its comment.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    r_shadow = r.copy()
    shadow_norm = np.linalg.norm(r_shadow)  # constant between restarts
    rnorm = np.linalg.norm(r)               # kept in step with r
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    phat, s, shat, work, work2 = (np.empty_like(b) for _ in range(5))
    restarts = 0
    best = np.inf

    def restart():
        nonlocal rho, alpha, omega, v, restarts, best, shadow_norm, rnorm
        np.subtract(b, a @ x, out=r)
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm) or (rnorm >= best and restarts > 2):
            raise SolverError("bicgstab stagnated", rnorm / bnorm)
        best = min(best, rnorm)
        restarts += 1
        r_shadow[:] = r
        shadow_norm = np.linalg.norm(r_shadow)
        rho = alpha = omega = 1.0
        v = np.zeros_like(b)
        p.fill(0.0)

    k = 0
    while k < max_it:
        k += 1
        rho_new = r_shadow @ r
        if not np.isfinite(rnorm) or rnorm > 1e8 * bnorm:
            raise SolverError("bicgstab diverged", rnorm / bnorm)
        scale = shadow_norm * rnorm
        # exact zeros are tested apart: the relative thresholds underflow to 0.0
        if rho_new == 0.0 or abs(rho_new) < 1e-30 * max(scale, 1e-300) or abs(omega) < 1e-300:
            restart()
            continue
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        # p = r + beta * (p - omega * v)
        np.multiply(v, omega, out=work)
        p -= work
        p *= beta
        p += r
        np.multiply(dinv, p, out=phat)
        v = a @ phat
        denom = r_shadow @ v
        scale = shadow_norm * np.linalg.norm(v)
        if denom == 0.0 or abs(denom) < 1e-30 * max(scale, 1e-300):
            restart()
            continue
        alpha = rho / denom
        # s = r - alpha * v
        np.multiply(v, alpha, out=work)
        np.subtract(r, work, out=s)
        if np.linalg.norm(s) <= tol:
            # x += alpha * phat
            np.multiply(phat, alpha, out=work)
            x += work
            np.subtract(b, a @ x, out=r)
            rnorm = np.linalg.norm(r)
            if rnorm <= tol:
                return x, k
            continue
        np.multiply(dinv, s, out=shat)
        t = a @ shat
        tt = t @ t
        if tt < 1e-300:
            restart()
            continue
        omega = (t @ s) / tt
        # x += alpha * phat + omega * shat
        np.multiply(phat, alpha, out=work)
        np.multiply(shat, omega, out=work2)
        work += work2
        x += work
        # r = s - omega * t
        np.multiply(t, omega, out=work)
        np.subtract(s, work, out=r)
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            np.subtract(b, a @ x, out=r)
            rnorm = np.linalg.norm(r)
            if rnorm <= tol:
                return x, k
    raise SolverError("bicgstab did not converge", np.linalg.norm(b - a @ x) / bnorm)


def _factorize(a: sp.csr_matrix):
    """Sparse LU with an ordering suited to a structurally symmetric pattern."""
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        # no iterate exists yet: the residual is that of the zero start
        raise SolverError(f"LU factorization failed: {exc}", 1.0) from exc


def _gmres_fallback(a, b, tol, max_it, factors: Factors):
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


def solve_general(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-10,
                  factors: Factors | None = None) -> tuple[np.ndarray, int]:
    """Solve a square nonsymmetric system; returns (x, iterations).

    Jacobi-preconditioned stabilized bi-conjugate gradients is the first
    attempt; if it breaks down or stagnates, GMRES preconditioned by LU
    factors of `a` finishes the solve. Pass the `Factors` holder kept with
    `a` to extract its diagonal once, and to build the LU factors once and
    skip BiCGStab on every later solve; without one, both are made for this
    solve only.
    """
    factors = factors if factors is not None else Factors()
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0

    tol = tol * bnorm
    max_it = 10 * b.shape[0]
    if factors.lu is None:
        if factors.dinv is None:
            factors.dinv = _inv_diagonal(a)
        try:
            # give the cheap method a bounded attempt before the robust one
            return _bicgstab(a, b, factors.dinv, tol, min(max_it, max(300, b.shape[0] // 4)))
        except SolverError:
            pass
    return _gmres_fallback(a, b, tol, max_it, factors)


def solve_neumann_zero_mean(k_mat: sp.csr_matrix, b: np.ndarray, mass_row_sums: np.ndarray,
                            tol: float = 1e-10, precondition=None) -> tuple[np.ndarray, int]:
    """Solve a singular Neumann system whose kernel is the constants; returns (x, iterations).

    The right-hand side is first projected orthogonal to the constant
    vector (required for solvability), conjugate gradients run in that
    complement, and the solution is shifted so its mass-weighted mean
    sum_i psi_i (1, q_i) vanishes, i.e. the field integrates to zero.
    `precondition` is as for `solve_spd`.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    raw_norm = np.linalg.norm(b)

    def project(v):
        return v - v.sum() / n

    b = project(b)
    bnorm = np.linalg.norm(b)
    # data living entirely in the kernel projects to roundoff noise
    if bnorm <= 1e-14 * max(raw_norm, 1.0):
        return np.zeros_like(b), 0
    x, k = _pcg(k_mat, b, precondition or jacobi(k_mat), tol * bnorm, project)
    # fix the kernel component: mass-weighted mean zero
    x -= (mass_row_sums @ x) / mass_row_sums.sum()
    return x, k
