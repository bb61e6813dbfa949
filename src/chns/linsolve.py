"""Sparse-matrix storage conventions and the linear solvers used by the scheme.

Matrices are scipy CSR (row_offsets = indptr, column_indices = indices,
values = data). Every solve has one call shape: the matrix, the
right-hand side, a relative tolerance and the matrix's solver data, and it
returns (x, iterations) with ||b - Ax|| <= tol ||b||, re-verified by one
explicit matrix-vector product; `solve_spd` may start from a first
iterate. Each first scales b exactly by a power of two (`_unit_scaled`),
so a tiny b neither underflows nor passes for zero. The iteration limit
is 10 n (BiCGStab's first attempt gets fewer).

The symmetric solves, SPD (`solve_spd`) and singular Neumann
(`solve_neumann_zero_mean`), run one preconditioned conjugate gradient
loop, the latter projected off the constants. The caller passes the
preconditioner, made once per matrix: a fast diagonalization (`Separable`),
a symmetric multigrid V-cycle (`VCycle`) or the Jacobi diagonal (`jacobi`).
The nonsymmetric solve (`solve_general`) is of a Cahn-Hilliard block and
takes the block's `Presb`: a stiffness-dominated block goes straight to
restarted GMRES, written here, preconditioned by PRESB, whose two inner
solves are V-cycles; any other block tries Jacobi BiCGStab first, and
GMRES with the same PRESB finishes a solve BiCGStab gives up on or breaks
down on: that fallback is the one recovery path.

Each sparse product of a solve calls scipy's compressed-sparse kernel
directly (`_kernel`): bit for bit `a @ x`, without the checks `@` makes.
Nothing here imports scipy's sparse linear-algebra package or `scipy.fft`:
they add about 9 MB and 5 MB to a process (`tests/test_import_graph.py`).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec


class SolverError(RuntimeError):
    """Non-convergence or breakdown; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


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


def _kernel(a):
    """x -> a x for a CSR or CSC matrix: its product kernel, arguments bound once, run
    into zeros (bit for bit `a @ x`), once per row for a stack x."""
    rows, matvec = a.shape[0], {"csr": csr_matvec, "csc": csc_matvec}[a.format]
    matvec = partial(matvec, *a.shape, a.indptr, a.indices, a.data)

    def times(x: np.ndarray) -> np.ndarray:
        y = np.zeros(x.shape[:-1] + (rows,))
        if y.ndim == 1:
            matvec(x, y)
        else:
            for xi, yi in zip(x, y):
                matvec(xi, yi)
        return y
    return times


def _product(a):
    """x -> a @ x: `_kernel` for a float CSR matrix, else `a`'s own `@`."""
    csr = sp.issparse(a) and a.format == "csr" and a.dtype == np.float64
    return _kernel(a) if csr else a.__matmul__


class VCycle:
    """Symmetric multigrid V-cycle, a preconditioner for conjugate gradients.

    Level 0 is `a`; level l + 1 is the Galerkin product P^T A_l P of the
    l-th prolongation P. Each level smooths with one damped Jacobi sweep
    before its coarse correction and one after, starting from zero; the
    coarsest level is smoothed alike. The cycle is symmetric. It takes a
    vector or a (k, n) stack: one kernel call per row and product,
    elementwise work on the stack.
    """

    def __init__(self, a: sp.csr_matrix, prolongations=()):
        self.ops, self.smoothers, self.prolong = [], [], []
        for p in prolongations:
            self._add_level(a)
            p = sp.csr_matrix(p)
            a = (p.T @ (a @ p)).tocsr()
            self.prolong.append(p)
        self._add_level(a)
        self._ops = [_kernel(a) for a in self.ops]
        self._prolong = [_kernel(p) for p in self.prolong]
        self._restrict = [_kernel(p.T) for p in self.prolong]  # P^T: a CSC view of P

    def _add_level(self, a: sp.csr_matrix) -> None:
        dinv = _inv_diagonal(a)
        self.ops.append(a)
        self.smoothers.append(_jacobi_weight(a, dinv) * dinv)

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        a, w = self._ops[level], self.smoothers[level]
        x = w * b
        if level < len(self.prolong):
            r = a(x)
            np.subtract(b, r, out=r)
            x += self._prolong[level](self(self._restrict[level](r), level + 1))
        r = a(x)  # the damped Jacobi sweep x += w (b - A x)
        np.subtract(b, r, out=r)
        r *= w
        x += r
        return x


class Separable:
    """Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): the inverse of
    A = alpha Dy (x) Dx + Dy (x) Kx + Ky (x) Dx on a lattice, a preconditioner for CG.

    An axis is (K, d): its 1D stiffness matrix, dense, and lumped mass D = diag(d).
    With D^-1/2 K D^-1/2 = Q diag(lam) Q^T, V = D^-1/2 Q has V^T D V = I and
    V^T K V = diag(lam), so A^-1 = (Vy (x) Vx) diag(1 / (alpha + lam_y + lam_x)) (Vy (x) Vx)^T:
    four GEMMs, run in `dtype`. A zero eigenvalue sum (the constants of a Neumann
    problem, alpha = 0) is dropped, which gives the pseudo-inverse. `order` puts a
    float64 vector's lattice nodes first, row-major (x fastest), for one `np.take`
    each way; its other entries pass through. A flattened stack goes through at once.
    """

    def __init__(self, x_axis, y_axis, alpha: float, order: np.ndarray, dtype=np.float64):
        vectors, lam = [], []
        for k, d in (x_axis, y_axis):
            s = 1.0 / np.sqrt(d)
            values, q = np.linalg.eigh(s[:, None] * k * s[None, :])
            vectors.append((s[:, None] * q).astype(dtype))
            lam.append(values)
        total = alpha + lam[1][:, None] + lam[0][None, :]
        inverse = np.divide(1.0, total, out=np.zeros_like(total), where=total > 1e-12 * total.max())
        (self.vx, self.vy), self.inverse = vectors, inverse.astype(dtype)
        self.order, self.unorder = order, np.argsort(order)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        (ny, nx), n = self.inverse.shape, self.order.shape[0]
        x = np.take(r.reshape(-1, n), self.order, axis=1)
        lattice = x[:, :nx * ny].astype(self.inverse.dtype).reshape(-1, nx)
        t = (self.vy.T @ (lattice @ self.vx).reshape(-1, ny, nx)) * self.inverse
        x[:, :nx * ny] = ((self.vy @ t).reshape(-1, nx) @ self.vx.T).reshape(x.shape[0], -1)
        return np.take(x, self.unorder, axis=1).reshape(r.shape)


class Planar:
    """A velocity operator kron(I_2, block), stored once as the `block` of one component.

    It applies `block`, a CSR matrix that may be rectangular, to a planar
    vector [x_1; x_2] (`fem.build_space` numbers vector spaces so) as one
    (2, n) stack.
    """

    def __init__(self, block: sp.csr_matrix):
        self.block = block
        self._times = _kernel(block)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._times(np.ascontiguousarray(x, dtype=float).reshape(2, -1)).reshape(-1)

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


def _pcg(a, b, precondition, tol, project=None, x0=None):
    """Preconditioned conjugate gradients to ||b - Ax|| <= tol; returns (x, k).

    The iteration starts from x0, which it overwrites, if given, else from
    zero. k counts the iterations. `project`, if given, maps a vector to
    the subspace the iteration stays in: it is applied to each
    preconditioned residual and to the verified residual. Raises
    SolverError at the first non-finite residual, or after 10 n iterations.
    """
    def keep(v):
        return v if project is None else project(v)

    name = "conjugate gradients" if project is None else "projected conjugate gradients"
    times = _product(a)
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x, r = x0, b - times(x0)
        if np.linalg.norm(r) <= tol:
            return x, 0
    z = keep(precondition(r))
    p = z.copy()
    rz = r @ z

    k = 0
    while k < 10 * b.shape[0]:
        k += 1
        ap = times(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            # recursive residual can drift; accept only a verified one
            r = keep(b - times(x))
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
                      np.linalg.norm(b - times(x)) / np.linalg.norm(b))


def solve_spd(a: sp.csr_matrix, b: np.ndarray, tol: float, precondition,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for SPD systems; returns (x, iterations).

    `precondition` maps a residual to its preconditioned form: keep one per
    matrix and pass it to every solve with that matrix. The iteration starts
    from x0, scaled with b, when given, else from zero.
    """
    b, e = _unit_scaled(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x0 = None if x0 is None else np.ldexp(x0, -e, dtype=float)
    x, k = _pcg(a, b, precondition, tol * bnorm, x0=x0)
    return np.ldexp(x, e), k


def _unit_scaled(b) -> tuple[np.ndarray, int]:
    """(b 2^-e, e) with max |b_i| 2^-e in [0.5, 1): exact, and it keeps a tiny b (below
    about 1e-154) from underflowing ||b|| and the Krylov inner products to 0."""
    b = np.asarray(b, dtype=float)
    e = int(np.frexp(np.abs(b).max())[1])
    return np.ldexp(b, -e), e


def _bicgstab(a, b, dinv, tol, max_it):
    """Jacobi-preconditioned stabilized bi-conjugate gradients; returns (x, iterations).

    Raises SolverError when it breaks down (rho, the denominator of alpha,
    t.t or omega near zero), diverges, or meets the iteration limit;
    `solve_general` then finishes the solve with PRESB-GMRES.
    """
    times = _product(a)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = r_shadow = b
    rnorm = shadow_norm = bnorm  # rnorm is kept in step with r
    rho = alpha = omega = 1.0
    v = p = np.zeros_like(b)
    k = 0
    while k < max_it:
        k += 1
        rho_new = r_shadow @ r
        if not np.isfinite(rnorm) or rnorm > 1e8 * bnorm:
            raise SolverError("bicgstab diverged", rnorm / bnorm)
        # exact zeros are tested apart: the relative thresholds underflow to 0.0
        if (rho_new == 0.0 or abs(rho_new) < 1e-30 * max(shadow_norm * rnorm, 1e-300)
                or abs(omega) < 1e-300):
            raise SolverError("bicgstab broke down", rnorm / bnorm)
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = dinv * p
        v = times(phat)
        denom = r_shadow @ v
        if denom == 0.0 or abs(denom) < 1e-30 * max(shadow_norm * np.linalg.norm(v), 1e-300):
            raise SolverError("bicgstab broke down", rnorm / bnorm)
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol:
            x += alpha * phat
            r = b - times(x)
            rnorm = np.linalg.norm(r)
            if rnorm <= tol:
                return x, k
            continue
        shat = dinv * s
        t = times(shat)
        tt = t @ t
        if tt < 1e-300:
            raise SolverError("bicgstab broke down", rnorm / bnorm)
        omega = (t @ s) / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            r = b - times(x)
            rnorm = np.linalg.norm(r)
            if rnorm <= tol:
                return x, k
    raise SolverError("bicgstab did not converge", np.linalg.norm(b - times(x)) / bnorm)


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
    fixed linear map. A block with `direct` set goes straight to PRESB-GMRES;
    any other tries Jacobi BiCGStab first, with `dinv`, A's inverse diagonal.
    """

    def __init__(self, a: sp.csr_matrix, m: sp.csr_matrix, tau: float, s: float,
                 h_inverse, direct: bool):
        self.h_inverse, self.direct = h_inverse, direct
        self.row_scale = np.repeat([tau, -1.0 / s], m.shape[0])
        self.col_scale = np.repeat([1.0, -s], m.shape[0])
        scaled = (sp.diags(self.row_scale) @ a @ sp.diags(self.col_scale)).tocsr()
        self.times_scaled, self.times_m = _product(scaled), _product(m)
        self.dinv = _inv_diagonal(a)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        """The PRESB solve: x with P x = f."""
        f1, f2 = f.reshape(2, -1)
        w = self.h_inverse(f1 + f2)
        x2 = self.h_inverse(self.times_m(w) - f1)
        return np.concatenate([w - x2, x2])


def _presb_gmres(a, b, tol, max_it, presb: Presb):
    """PRESB-preconditioned GMRES on the scaled block, verified on `a` itself.

    GMRES stops on the scaled residual at the relative tolerance asked of
    `a`. If the residual of `a` then misses tol, GMRES goes on from the
    solution it has, aiming the scaled residual lower by the factor missed.
    """
    times = _product(a)
    f = presb.row_scale * b
    scaled_tol = tol / np.linalg.norm(b) * np.linalg.norm(f)
    y, k = np.zeros_like(b), 0
    while True:
        y, k = _gmres(presb.times_scaled, f, presb, scaled_tol, max_it, y, k)
        x = presb.col_scale * y
        res = np.linalg.norm(b - times(x))
        if res <= tol:
            return x, k
        scaled_tol *= 0.5 * tol / res


def _gmres_fallback(a, b, tol, max_it, presb: Presb):
    """PRESB-preconditioned GMRES for a Cahn-Hilliard block BiCGStab failed on."""
    return _presb_gmres(a, b, tol, max_it, presb)


def solve_general(a: sp.csr_matrix, b: np.ndarray, tol: float,
                  presb: Presb) -> tuple[np.ndarray, int]:
    """Solve a Cahn-Hilliard block a x = b; returns (x, iterations).

    Pass the block's `Presb` to every solve with it. A block it marks
    `direct` goes straight to PRESB-preconditioned GMRES. Any other tries
    Jacobi BiCGStab first; if that breaks down, diverges or meets its
    iteration limit, GMRES preconditioned by the `Presb` finishes from zero.
    """
    b, e = _unit_scaled(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0

    tol = tol * bnorm
    max_it = 10 * b.shape[0]
    if presb.direct:
        x, k = _presb_gmres(a, b, tol, max_it, presb)
    else:
        try:
            # give the cheap method a bounded attempt before the robust one
            x, k = _bicgstab(a, b, presb.dinv, tol, min(max_it, max(300, b.shape[0] // 4)))
        except SolverError:
            x, k = _gmres_fallback(a, b, tol, max_it, presb)
    return np.ldexp(x, e), k


def solve_neumann_zero_mean(k_mat: sp.csr_matrix, b: np.ndarray, mass_row_sums: np.ndarray,
                            tol: float, precondition) -> tuple[np.ndarray, int]:
    """Solve a singular Neumann system whose kernel is the constants; returns (x, iterations).

    The right-hand side is first projected orthogonal to the constant
    vector (required for solvability), conjugate gradients run in that
    complement, and the solution is shifted so its mass-weighted mean
    sum_i psi_i (1, q_i) vanishes, i.e. the field integrates to zero.
    `precondition` is as for `solve_spd`.
    """
    b, e = _unit_scaled(b)
    n = b.shape[0]
    raw_norm = np.linalg.norm(b)

    def project(v):
        return v - v.sum() / n

    b = project(b)
    bnorm = np.linalg.norm(b)
    # data living entirely in the kernel projects to roundoff noise (and zero data to 0)
    if bnorm <= 1e-14 * raw_norm:
        return np.zeros_like(b), 0
    x, k = _pcg(k_mat, b, precondition, tol * bnorm, project)
    # fix the kernel component: mass-weighted mean zero
    x -= (mass_row_sums @ x) / mass_row_sums.sum()
    return np.ldexp(x, e), k
