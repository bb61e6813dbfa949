"""Property tests: the PRESB algebra, the roots of the scalar reduction, the energy
identity of a step, the linearity of the split solves and the root choice."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chns.experiments import coarsening_params, relaxation_params
from chns.fem import build_space
from chns.linsolve import Planar, Presb
from chns.mesh import build_uniform_mesh
from chns.scheme import ExplicitTerms, ReductionError, build_operators, ch_split_solve, \
    closest_ratio_root, init_state, solve_quadratic, step, velocity_split_solve


def _ops(params):
    mesh = build_uniform_mesh(4, 4)
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


@pytest.fixture(scope="module")
def exact_presb():
    """A small block's PRESB with H^-1 applied exactly, and the dense P it inverts."""
    prm = relaxation_params()
    ops = _ops(prm)
    c = np.sqrt(prm.tau * prm.mobility * prm.lam)
    m, k = ops.forms.m_p1.toarray(), ops.forms.k_p1.toarray()
    h_inv = np.linalg.inv(m + c * k)
    presb = Presb(ops.a_ch, ops.forms.m_p1, prm.tau, c / (prm.tau * prm.mobility),
                  h_inv.__matmul__, direct=True)
    p = np.block([[m, -c * k], [c * k, m + 2.0 * c * k]])
    return presb, p


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-6, 1e6))
def test_presb_inverts_its_preconditioner(exact_presb, seed, scale):
    presb, p = exact_presb
    f = scale * np.random.default_rng(seed).standard_normal(p.shape[0])
    assert np.linalg.norm(p @ presb(f) - f) <= 1e-12 * np.linalg.norm(f)


TOL = Fraction(1, 10 ** 9)


def _residual(a2, a1, a0, x):
    """|a2 x^2 + a1 x + a0| against the size of its terms."""
    terms = (a2 * x * x, a1 * x, a0)
    return abs(sum(terms)), sum(abs(t) for t in terms)


def _check_roots(a2, a1, a0):
    # checked in exact rational arithmetic, which neither underflows nor overflows
    try:
        roots = [Fraction(x) for x in solve_quadratic(a2, a1, a0)]
    except ReductionError:
        roots = None
    a2, a1, a0 = Fraction(a2), Fraction(a1), Fraction(a0)
    if roots is None:
        # only a negative discriminant, or no equation at all, has no root
        assert a1 * a1 - 4 * a2 * a0 < 0 or a2 == a1 == 0
        return
    for x in roots:
        res, size = _residual(a2, a1, a0, x)
        assert res <= TOL * size
    if len(roots) == 2 and a2 != 0:  # Vieta; a2 = a1 = a0 = 0 gives (0, 0)
        x1, x2 = roots
        assert abs((x1 + x2) + a1 / a2) <= TOL * (abs(x1) + abs(x2))
        assert abs(x1 * x2 - a0 / a2) <= TOL * abs(a0 / a2)
    elif len(roots) == 1:  # the linear branch keeps the small root; Vieta puts
        (x,) = roots     # the other at -a1/a2 - x
        assert a2 == 0 or abs(x) <= abs(a1 / a2 + x)


# solve_quadratic scales its coefficients by a power of two first: zero, or a
# magnitude in [1e-300, 1]; a wider ratio of two coefficients puts a root
# outside the floating-point range
magnitude = st.floats(1e-300, 1.0)
coefficient = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))


@settings(max_examples=400, deadline=None)
@given(a2=coefficient, a1=coefficient, a0=coefficient)
@example(a2=1e-15, a1=1e-10, a0=1.0)   # no real root, though a2 is below 1e-14 a0
@example(a2=1e-20, a1=0.0, a0=-1.0)    # the roots +-1e10, though a2 is below 1e-14 a0
@example(a2=1.0, a1=1.74e-301, a0=0.0)  # a1^2 underflows unless scaled: -a1 is a root
def test_quadratic_roots_solve_it_and_obey_vieta(a2, a1, a0):
    _check_roots(a2, a1, a0)


# a2 / max(|a1|, |a0|): zero, or a magnitude in [1e-20, 1e-13], around the
# threshold of the linear branch
small_ratio = st.floats(1e-20, 1e-13)


@settings(max_examples=400, deadline=None)
@given(a1=st.one_of(magnitude, magnitude.map(lambda v: -v)), a0=coefficient,
       ratio=st.one_of(st.just(0.0), small_ratio, small_ratio.map(lambda v: -v)))
@example(a1=1e-100, a0=4.5e54, ratio=1e-20)  # a2 = 4.5e34, a1 far below both
def test_quadratic_roots_near_the_linear_branch(a1, a0, ratio):
    # a2 at most about the threshold below which the quadratic degrades to linear
    _check_roots(ratio * max(abs(a1), abs(a0)), a1, a0)


# -- a step of the scheme on random data, at nx=4 -----------------------------


@pytest.fixture(scope="module")
def coarsening_ops():
    return _ops(coarsening_params())


def _random_velocity(ops, rng, amplitude):
    """A random velocity, zero on the boundary as the unforced runs keep it."""
    u = amplitude * rng.standard_normal(ops.p2v.ndofs)
    u[ops.p2v.boundary_dofs] = 0.0
    return u


# log10 bounds of the drawn constants; the others are the coarsening preset's.
# c = sqrt(tau m lam) then spans 1e-6 to 0.3, across the threshold (about 0.008
# at nx=4) between the phase block's two solvers.
LOG10_BOUNDS = {"tau": (-4.0, 0.0), "lam": (-3.0, 0.0), "nu": (-2.0, 1.0),
                "mobility": (-5.0, -1.0)}


def _constants(**log10):
    """The coarsening preset with each named constant set to 10 ** log10[name]."""
    values = {name: 10.0 ** e for name, e in log10.items()}
    return replace(coarsening_params(), t_end=values["tau"], **values)


def test_the_drawn_constants_reach_both_phase_block_solvers():
    low, high = ({name: bounds[i] for name, bounds in LOG10_BOUNDS.items()} for i in (0, 1))
    assert not _ops(_constants(**low)).ch_solver.direct   # Jacobi-BiCGStab
    assert _ops(_constants(**high)).ch_solver.direct      # PRESB-GMRES


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), phi_scale=st.floats(0.0, 1.0),
       u_scale=st.floats(0.0, 1.0), p_scale=st.floats(0.0, 10.0),
       **{name: st.floats(*bounds) for name, bounds in LOG10_BOUNDS.items()})
@example(seed=1, phi_scale=1.0, u_scale=1.0, p_scale=10.0,   # the coarsening preset
         tau=-3.0, lam=np.log10(0.02), nu=0.0, mobility=-4.0)
@example(seed=2, phi_scale=1.0, u_scale=1.0, p_scale=10.0,   # a stiff phase block
         tau=0.0, lam=-1.0, nu=0.0, mobility=-3.0)
@example(seed=3, phi_scale=0.0, u_scale=1.0, p_scale=0.0,    # no real root in the box
         tau=0.0, lam=-2.0, nu=-2.0, mobility=-3.0)
@example(seed=4, phi_scale=1.0, u_scale=0.01, p_scale=1.0,   # a step in the box
         tau=-1.0, lam=-2.0, nu=-1.0, mobility=-3.0)
def test_one_unforced_step_closes_the_energy_identity(seed, phi_scale, u_scale, p_scale,
                                                      tau, lam, nu, mobility):
    ops = _ops(_constants(tau=tau, lam=lam, nu=nu, mobility=mobility))
    rng = np.random.default_rng(seed)
    state = init_state(ops, phi_scale * rng.uniform(-1.0, 1.0, ops.p1.ndofs),
                       _random_velocity(ops, rng, u_scale),
                       p_scale * rng.standard_normal(ops.p1.ndofs))
    try:
        _, report = step(state, ops)
    except ReductionError:
        # the rho quadratic has no real root, so there is no step to check. That
        # is met at tau >= 0.1 with nu <= 0.16 and a velocity amplitude near 1.
        # In the box that holds it with a margin, a draw either takes a step that
        # closes the identity or raises here; outside it, raising fails the test.
        if tau < -1.3 or nu > -0.5:
            raise
        return
    assert abs(report.identity_residual) <= 1e-8 * max(1.0, report.energy_after)


@pytest.fixture(scope="module", params=["jacobi-bicgstab", "presb-gmres"])
def split_ops(request):
    """A mass-dominated phase block (BiCGStab first) and a stiff one (PRESB-GMRES)."""
    if request.param == "jacobi-bicgstab":
        params = coarsening_params()
    else:
        params = replace(relaxation_params(), tau=10.0, t_end=10.0)
    ops = _ops(params)
    assert ops.ch_solver.direct == (request.param == "presb-gmres")
    return ops


def _random_loads(ops, rng):
    """The old level and the explicit loads of a step, drawn at random."""
    n1, n2 = ops.p1.ndofs, ops.p2v.ndofs
    phi_n, u_n = rng.standard_normal(n1), rng.standard_normal(n2)
    terms = ExplicitTerms(
        e1h=4.0, e2h=9.0, sqrt_e1=2.0, sqrt_e2=3.0, m_u=ops.forms.m_v @ u_n,
        conv_scalar=rng.standard_normal(n1), fp=rng.standard_normal(n1),
        capillary=rng.standard_normal(n2), convection=rng.standard_normal(n2),
        grad_p=rng.standard_normal(n2), g_phi_load=rng.standard_normal(n1),
        g_u_load=rng.standard_normal(n2))
    bc = rng.standard_normal(ops.p2v.boundary_dofs.size)
    return phi_n, u_n, terms, bc


def _combine(a, x, b, y):
    if isinstance(x, ExplicitTerms):
        return ExplicitTerms(**{name: _combine(a, getattr(x, name), b, getattr(y, name))
                                if isinstance(getattr(x, name), np.ndarray) else getattr(x, name)
                                for name in x.__dataclass_fields__})
    return a * x + b * y


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
def test_split_solves_are_linear_in_their_loads(split_ops, seed, a, b):
    ops = split_ops
    rng = np.random.default_rng(seed)
    one, two = _random_loads(ops, rng), _random_loads(ops, rng)
    both = [_combine(a, x, b, y) for x, y in zip(one, two)]

    def solve(phi_n, u_n, terms, bc):
        """Each split solution with its matrix."""
        (phi0, mu0), (phi1, mu1) = ch_split_solve(ops, phi_n, terms)
        ch = [(ops.a_ch, np.concatenate(x)) for x in ((phi0, mu0), (phi1, mu1))]
        vel = velocity_split_solve(ops, u_n, terms, bc)
        return ch + [(ops.velocity.matrix, y) for y in vel]

    # each solve leaves a residual of at most tol ||rhs|| <= tol ||A|| ||x||, so the
    # defect of the superposition has A d at most twice that, ||A|| <= ||A||_F
    for (mat, x), (_, y), (_, xy) in zip(solve(*one), solve(*two), solve(*both)):
        planar = isinstance(mat, Planar)  # two copies of the block
        frobenius = np.sqrt((1 + planar) * ((mat.block if planar else mat).data ** 2).sum())
        bound = 2.01 * ops.params.solver_tol * frobenius * (abs(a) * np.linalg.norm(x)
                                                        + abs(b) * np.linalg.norm(y))
        assert np.linalg.norm(mat @ (xy - (a * x + b * y))) <= bound


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       roots=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=2),
       c2=st.floats(1e-3, 1.0))
def test_the_root_whose_ratio_is_nearest_one_is_chosen(coarsening_ops, seed, roots, c2):
    # the expanded quadratic form gives each ratio to rounding: the chosen one is
    # nearest 1 among the ratios of u_tilde = z0 + root z1 formed afresh
    ops = coarsening_ops
    m_v = ops.forms.m_v
    rng = np.random.default_rng(seed)
    z0, z1 = rng.standard_normal((2, ops.p2v.ndofs))
    form = (z0 @ (m_v @ z0), z0 @ (m_v @ z1), z1 @ (m_v @ z1))
    rho, ratio = closest_ratio_root(roots, form, c2)
    ratios = {root: root / np.sqrt(0.5 * (u @ (m_v @ u)) + c2)
              for root, u in ((root, z0 + root * z1) for root in roots)}
    assert rho in ratios and abs(ratio - ratios[rho]) <= 1e-12 * max(1.0, abs(ratios[rho]))
    assert abs(ratios[rho] - 1.0) <= min(abs(q - 1.0) for q in ratios.values()) + 1e-12


def test_the_first_of_two_equally_near_roots_is_chosen():
    # with form 0 and c2 = 1 the ratio is the root: 0.5 and 1.5 lie equally near 1
    assert closest_ratio_root((0.5, 1.5), (0.0, 0.0, 0.0), 1.0) == (0.5, 0.5)
    assert closest_ratio_root((1.5, 0.5), (0.0, 0.0, 0.0), 1.0) == (1.5, 1.5)
