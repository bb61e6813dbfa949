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
A nonsymmetric solve (`solve_general`) runs restarted GMRES, written
here, or Jacobi BiCGStab first. A Cahn-Hilliard block passes its
`Presb`: a stiffness-dominated block goes straight to GMRES preconditioned
by PRESB, whose two inner solves are V-cycles; any other block tries
BiCGStab first, and GMRES with the same PRESB finishes a solve BiCGStab
gives up on. Any other matrix falls back to Jacobi GMRES.

Nothing here imports scipy's sparse linear-algebra package: it alone adds
about 9 MB to a process (`tests/test_import_graph.py` checks a whole step).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


class SolverError(RuntimeError):
    """Non-convergence or breakdown; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


SWEEPS = 2            # damped Jacobi sweeps before and after each coarse correction, by default
JACOBI_SCALE = 1.3    # smoothing weight times the estimated lambda_max(D^-1 A)
POWER_STEPS = 10      # power steps of that estimate
RESTART = 30          # GMRES basis vectors per cycle


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
    l-th prolongation P. Each level but the coarsest smooths with `sweeps`
    damped Jacobi sweeps (SWEEPS unless a subclass sets fewer) before its
    coarse correction and as many after, starting from zero. The coarsest
    level is smoothed the same way, or, with `coarse_pinv`, solved by its
    dense pseudo-inverse; that option is for a Neumann problem, whose
    kernel is the constant vector e / |e| = q, and forms the pseudo-inverse
    as inv(A + q q^T) - q q^T (an eigenvalue decomposition would load more
    of LAPACK, about 2 MB of memory). With
    equal sweeps before and after, restriction P^T and a symmetric
    coarsest step, the cycle is a symmetric operator (of one scalar field).
    """

    sweeps = SWEEPS

    def __init__(self, a: sp.csr_matrix, prolongations=(), coarse_pinv: bool = False):
        self.ops, self.smoothers, self.prolong, self.restrict = [], [], [], []
        for p in prolongations:
            self._add_level(a)
            p = sp.csr_matrix(p)
            a = (p.T @ (a @ p)).tocsr()
            self.prolong.append(p)
            self.restrict.append(p.T)  # a CSC view of p's arrays, not a copy
        self.coarse_inverse = None
        if coarse_pinv:
            n = a.shape[0]
            qqt = np.full((n, n), 1.0 / n)
            inv = np.linalg.inv(a.toarray() + qqt) - qqt
            self.coarse_inverse = 0.5 * (inv + inv.T)
        else:
            self._add_level(a)

    def _add_level(self, a: sp.csr_matrix) -> None:
        dinv = _inv_diagonal(a)
        self.ops.append(a)
        self.smoothers.append(_jacobi_weight(a, dinv) * dinv)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self.ops):
            return self.coarse_inverse @ b
        a, w = self.ops[level], self.smoothers[level]
        x = w * b
        for _ in range(self.sweeps - 1):
            _smooth(a, w, b, x)
        if level < len(self.prolong):
            r = a @ x
            np.subtract(b, r, out=r)
            x += self.prolong[level] @ self._cycle(level + 1, self.restrict[level] @ r)
        for _ in range(self.sweeps):
            _smooth(a, w, b, x)
        return x


def _smooth(a: sp.csr_matrix, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """One damped Jacobi sweep in place: x += w (b - A x)."""
    r = a @ x
    np.subtract(b, r, out=r)
    r *= w
    x += r


class Planar:
    """A velocity operator kron(I_2, block), stored once as the `block` of one component.

    It applies `block` to each half of a planar vector [x_1; x_2] in turn
    (`fem.build_space` numbers vector spaces so). A CSR block, which may be
    rectangular, is applied by `@`, through scipy's own CSR product kernel
    (what `block @ x` runs, bit for bit) writing straight into the halves
    of one output; a preconditioner such as a `VCycle` by calling.
    """

    def __init__(self, block):
        self.block = block

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        a, out = self.block, np.zeros(2 * self.block.shape[0])
        for xc, yc in zip(np.ascontiguousarray(x, dtype=float).reshape(2, -1), out.reshape(2, -1)):
            csr_matvec(*a.shape, a.indptr, a.indices, a.data, xc, yc)  # yc += a @ xc
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0] // 2
        return np.concatenate([self.block(x[:n]), self.block(x[n:])])

    def diagonal(self) -> np.ndarray:
        return np.tile(self.block.diagonal(), 2)


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
    b, e = _unit_scaled(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x, k = _pcg(a, b, precondition or jacobi(a), tol * bnorm)
    return np.ldexp(x, e), k


def _unit_scaled(b) -> tuple[np.ndarray, int]:
    """(b 2^-e, e) with max |b_i| 2^-e in [0.5, 1): exact, and it keeps a tiny b (below
    about 1e-154) from underflowing ||b|| and the Krylov inner products to 0."""
    b = np.asarray(b, dtype=float)
    e = int(np.frexp(np.abs(b).max())[1])
    return np.ldexp(b, -e), e


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


def _gmres(apply, b, precondition, tol, max_it, x, k=0):
    """Right-preconditioned restarted GMRES from x to ||b - apply(x)|| <= tol; returns (x, k).

    `precondition` must be one fixed linear map. Each cycle builds at most
    RESTART basis vectors, orthogonalized by classical Gram-Schmidt done
    twice, and ends with the residual recomputed by one product; only that
    residual is accepted. k counts iterations (one preconditioner call and
    one product each), starting from the given k. Raises SolverError at a
    non-finite residual, after a cycle that does not lower the residual,
    or at max_it iterations.
    """
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    basis = np.empty((RESTART + 1, n))
    search = np.empty((RESTART, n))
    hess = np.zeros((RESTART, RESTART))
    gain = 0.0  # the largest ||apply(z)|| / ||z|| met, the scale of a negligible column
    r = b - apply(x)
    rnorm = np.linalg.norm(r)
    while not rnorm <= tol:
        if not np.isfinite(rnorm):
            raise SolverError("gmres met a non-finite residual", rnorm / bnorm)
        if k >= max_it:
            raise SolverError("gmres did not converge", rnorm / bnorm)
        np.divide(r, rnorm, out=basis[0])
        # the small least-squares problem, kept triangular by Givens rotations
        # (cos, sin) of its columns, in Python floats: it is too small for numpy
        g, rotations = [float(rnorm)], []
        j = 0
        while j < RESTART and k < max_it:
            z = search[j]
            z[:] = precondition(basis[j])
            w = apply(z)
            znorm = math.sqrt(z @ z)
            gain = max(gain, math.sqrt(w @ w) / znorm)
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            col = (h + h2).tolist()
            wnorm = math.sqrt(w @ w)
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            diag = math.hypot(col[j], wnorm)
            if not diag > 1e-14 * gain * znorm:
                break  # the column adds nothing: the operator is singular on the basis
            c, s = col[j] / diag, wnorm / diag
            rotations.append((c, s))
            col[j] = diag
            hess[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            j += 1
            k += 1
            if abs(g[j]) <= tol or wnorm == 0.0:
                break
            np.divide(w, wnorm, out=basis[j])
        if j:
            x = x + np.linalg.solve(hess[:j, :j], g[:j]) @ search[:j]
        r = b - apply(x)
        last, rnorm = rnorm, np.linalg.norm(r)
        if rnorm >= last:  # a NaN passes on, to the non-finite test above
            raise SolverError("gmres stagnated", rnorm / bnorm)
    return x, k


class PresbCycle(VCycle):
    """The V-cycle that stands in for H^-1 in `Presb`: one damped Jacobi
    sweep before and one after each coarse correction. PRESB-GMRES then
    takes 15-17 iterations instead of 13-14, but a solve at nx=32 takes
    3.0-4.6 ms instead of 4.0-5.8 (2 cores, one BLAS thread), which keeps
    the `relax32` benchmark's step time inside its bound (BENCH_presb.json).
    """

    sweeps = 1


class Presb:
    """Solver data of a Cahn-Hilliard block, made once per block.

    The block A = [[M / tau, m K], [-lam (K + gamma M), M]] acts on (phi, mu).
    Row 1 times tau and mu = -s y make it the scaled block
    S = [[M, -c K], [c (K + gamma M), M]] on (phi, y), with c = sqrt(tau m lam)
    and s = c / (tau m). GMRES runs on S, right-preconditioned by PRESB,
    [[M, -c K], [c K, M + 2 c K]], whose inverse takes two solves with
    H = M + c K:

        w = H^-1 (f1 + f2),  x2 = H^-1 (M w - f1),  x1 = w - x2.

    `h_inverse` stands in for H^-1 (one V-cycle), so the preconditioner is a
    fixed linear map. A block with `direct` set goes straight to
    PRESB-GMRES; any other tries Jacobi BiCGStab first, with `dinv`, the
    inverse diagonal of A.
    """

    def __init__(self, a: sp.csr_matrix, m: sp.csr_matrix, tau: float, s: float,
                 h_inverse, direct: bool):
        n = m.shape[0]
        self.m, self.h_inverse, self.direct = m, h_inverse, direct
        self.row_scale = np.repeat([tau, -1.0 / s], n)
        self.col_scale = np.repeat([1.0, -s], n)
        self.scaled = (sp.diags(self.row_scale) @ a @ sp.diags(self.col_scale)).tocsr()
        self.dinv = _inv_diagonal(a)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        """The PRESB solve: x with P x = f."""
        n = self.m.shape[0]
        f1, f2 = f[:n], f[n:]
        w = self.h_inverse(f1 + f2)
        x = np.empty_like(f)
        x[n:] = self.h_inverse(self.m @ w - f1)
        np.subtract(w, x[n:], out=x[:n])
        return x


def _presb_gmres(a, b, tol, max_it, presb: Presb):
    """PRESB-preconditioned GMRES on the scaled block, verified on `a` itself.

    GMRES stops on the scaled residual at the relative tolerance asked of
    `a`. If the residual of `a` then misses tol, GMRES goes on from the
    solution it has, aiming the scaled residual lower by the factor missed.
    """
    f = presb.row_scale * b
    scaled_tol = tol / np.linalg.norm(b) * np.linalg.norm(f)
    y, k = np.zeros_like(b), 0
    while True:
        y, k = _gmres(presb.scaled.dot, f, presb, scaled_tol, max_it, y, k)
        x = presb.col_scale * y
        res = np.linalg.norm(b - a @ x)
        if res <= tol:
            return x, k
        scaled_tol *= 0.5 * tol / res


def _gmres_fallback(a, b, tol, max_it, presb: Presb | None):
    """GMRES for a system BiCGStab gave up on: PRESB-preconditioned for a
    Cahn-Hilliard block, Jacobi-preconditioned for any other matrix."""
    if presb is not None:
        return _presb_gmres(a, b, tol, max_it, presb)
    return _gmres(a.dot, b, jacobi(a), tol, max_it, np.zeros_like(b))


def solve_general(a: sp.csr_matrix, b: np.ndarray, tol: float = 1e-10,
                  presb: Presb | None = None) -> tuple[np.ndarray, int]:
    """Solve a square nonsymmetric system; returns (x, iterations).

    Pass a Cahn-Hilliard block's `Presb`, kept with the block, to every
    solve with it. A block it marks `direct` goes straight to
    PRESB-preconditioned GMRES. Any other system is first tried with
    Jacobi-preconditioned stabilized bi-conjugate gradients; if that breaks
    down or stagnates, GMRES finishes the solve, preconditioned by the
    `Presb` if given, else by the Jacobi diagonal.
    """
    b, e = _unit_scaled(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0

    tol = tol * bnorm
    max_it = 10 * b.shape[0]
    if presb is not None and presb.direct:
        x, k = _presb_gmres(a, b, tol, max_it, presb)
    else:
        dinv = presb.dinv if presb is not None else _inv_diagonal(a)
        try:
            # give the cheap method a bounded attempt before the robust one
            x, k = _bicgstab(a, b, dinv, tol, min(max_it, max(300, b.shape[0] // 4)))
        except SolverError:
            x, k = _gmres_fallback(a, b, tol, max_it, presb)
    return np.ldexp(x, e), k


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
