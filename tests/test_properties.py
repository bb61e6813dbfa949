"""Property tests: the PRESB algebra, the roots of the scalar reduction, the energy
identity of a step, the linearity of the split solves and the root choice."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chns.experiments import coarsening_params, relaxation_params
from chns.fem import build_space
from chns.linsolve import Planar, Presb
from chns.mesh import build_uniform_mesh
from chns.scheme import ExplicitTerms, ReductionError, build_operators, ch_split_solve, \
    closest_ratio_root, init_state, solve_quadratic, step, velocity_split_solve


@pytest.fixture(scope="module")
def exact_presb():
    """A small block's PRESB with H^-1 applied exactly, and the dense P it inverts."""
    mesh = build_uniform_mesh(4, 4)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"),
                          relaxation_params())
    m, k, c = ops.forms.m_p1.toarray(), ops.forms.k_p1.toarray(), ops.ch_c
    h_inv = np.linalg.inv(m + c * k)
    presb = Presb(ops.a_ch, ops.forms.m_p1, ops.tau, ops.ch_s, h_inv.__matmul__, direct=True)
    p = np.block([[m, -c * k], [c * k, m + 2.0 * c * k]])
    return presb, p


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-6, 1e6))
def test_presb_inverts_its_preconditioner(exact_presb, seed, scale):
    presb, p = exact_presb
    f = scale * np.random.default_rng(seed).standard_normal(p.shape[0])
    assert np.linalg.norm(p @ presb(f) - f) <= 1e-12 * np.linalg.norm(f)


def _residual(a2, a1, a0, x):
    """|a2 x^2 + a1 x + a0| against the size of its terms."""
    terms = (a2 * x * x, a1 * x, a0)
    return abs(sum(terms)), sum(abs(t) for t in terms)


def _check_roots(a2, a1, a0):
    try:
        roots = solve_quadratic(a2, a1, a0)
    except ReductionError:
        # only a negative discriminant, or no equation at all, has no root
        assert a1 * a1 - 4.0 * a2 * a0 < 0.0 or a2 == a1 == 0.0
        return
    for x in roots:
        res, size = _residual(a2, a1, a0, x)
        assert res <= 1e-9 * size
    if len(roots) == 2 and a2 != 0.0:  # Vieta; a2 = a1 = a0 = 0 gives (0, 0)
        x1, x2 = roots
        assert abs((x1 + x2) + a1 / a2) <= 1e-9 * (abs(x1) + abs(x2))
        assert abs(x1 * x2 - a0 / a2) <= 1e-9 * abs(a0 / a2)
    elif len(roots) == 1:  # the linear branch keeps the small root; Vieta puts
        (x,) = roots     # the other at -a1/a2 - x
        assert a2 == 0.0 or abs(x) <= abs(a1 / a2 + x)


# solve_quadratic does not rescale, so a coefficient's square must neither
# underflow nor overflow: zero, or a magnitude in [1e-100, 1e100]
magnitude = st.floats(1e-100, 1e100)
coefficient = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))


@settings(max_examples=400, deadline=None)
@given(a2=coefficient, a1=coefficient, a0=coefficient)
@example(a2=1e-15, a1=1e-10, a0=1.0)   # no real root, though a2 is below 1e-14 a0
@example(a2=1e-20, a1=0.0, a0=-1.0)    # the roots +-1e10, though a2 is below 1e-14 a0
def test_quadratic_roots_solve_it_and_obey_vieta(a2, a1, a0):
    _check_roots(a2, a1, a0)


# a2 / max(|a1|, |a0|): zero, or a magnitude in [1e-20, 1e-13]; a smaller
# nonzero one lets a2 reach subnormal values, and a0 / a2 in the Vieta check
# then overflows
small_ratio = st.floats(1e-20, 1e-13)


@settings(max_examples=400, deadline=None)
@given(a1=st.one_of(magnitude, magnitude.map(lambda v: -v)), a0=coefficient,
       ratio=st.one_of(st.just(0.0), small_ratio, small_ratio.map(lambda v: -v)))
@example(a1=1e-100, a0=4.5e54, ratio=1e-20)  # a2 = 4.5e34, a1 far below both
def test_quadratic_roots_near_the_linear_branch(a1, a0, ratio):
    # a2 at most about the threshold below which the quadratic degrades to linear
    _check_roots(ratio * max(abs(a1), abs(a0)), a1, a0)


# -- a step of the scheme on random data, at nx=4 -----------------------------


def _ops(params):
    mesh = build_uniform_mesh(4, 4)
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


@pytest.fixture(scope="module")
def coarsening_ops():
    params = coarsening_params()
    return _ops(params), params


def _random_velocity(ops, rng, amplitude):
    """A random velocity, zero on the boundary as the unforced runs keep it."""
    u = amplitude * rng.standard_normal(ops.p2v.ndofs)
    u[ops.p2v.boundary_dofs] = 0.0
    return u


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), phi_scale=st.floats(0.0, 1.0),
       u_scale=st.floats(0.0, 1.0), p_scale=st.floats(0.0, 10.0))
def test_one_unforced_step_closes_the_energy_identity(coarsening_ops, seed, phi_scale,
                                                      u_scale, p_scale):
    ops, params = coarsening_ops
    rng = np.random.default_rng(seed)
    state = init_state(ops, phi_scale * rng.uniform(-1.0, 1.0, ops.p1.ndofs),
                       _random_velocity(ops, rng, u_scale),
                       p_scale * rng.standard_normal(ops.p1.ndofs), params)
    _, report = step(state, params, ops)
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
    return ops, params


def _random_loads(ops, rng):
    """The old level and the explicit loads of a step, drawn at random."""
    n1, n2 = ops.p1.ndofs, ops.p2v.ndofs
    terms = ExplicitTerms(
        e1h=4.0, e2h=9.0, sqrt_e1=2.0, sqrt_e2=3.0,
        conv_scalar=rng.standard_normal(n1), fp=rng.standard_normal(n1),
        capillary=rng.standard_normal(n2), convection=rng.standard_normal(n2),
        grad_p=rng.standard_normal(n2), g_phi_load=rng.standard_normal(n1),
        g_u_load=rng.standard_normal(n2))
    bc = rng.standard_normal(ops.p2v.boundary_dofs.size)
    return rng.standard_normal(n1), rng.standard_normal(n2), terms, bc


def _combine(a, x, b, y):
    if isinstance(x, ExplicitTerms):
        return ExplicitTerms(**{name: _combine(a, getattr(x, name), b, getattr(y, name))
                                if isinstance(getattr(x, name), np.ndarray) else getattr(x, name)
                                for name in x.__dataclass_fields__})
    return a * x + b * y


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
def test_split_solves_are_linear_in_their_loads(split_ops, seed, a, b):
    ops, params = split_ops
    rng = np.random.default_rng(seed)
    one, two = _random_loads(ops, rng), _random_loads(ops, rng)
    both = [_combine(a, x, b, y) for x, y in zip(one, two)]

    def solve(phi_n, u_n, terms, bc):
        """Each split solution with its matrix."""
        (phi0, mu0), (phi1, mu1) = ch_split_solve(ops, params, phi_n, terms)
        ch = [(ops.a_ch, np.concatenate(x)) for x in ((phi0, mu0), (phi1, mu1))]
        vel = velocity_split_solve(ops, params, u_n, terms, bc)
        return ch + [(ops.velocity.matrix, y) for y in vel]

    # each solve leaves a residual of at most tol ||rhs|| <= tol ||A|| ||x||, so the
    # defect of the superposition has A d at most twice that, ||A|| <= ||A||_F
    for (mat, x), (_, y), (_, xy) in zip(solve(*one), solve(*two), solve(*both)):
        planar = isinstance(mat, Planar)  # two copies of the block
        frobenius = np.sqrt((1 + planar) * ((mat.block if planar else mat).data ** 2).sum())
        bound = 2.01 * params.solver_tol * frobenius * (abs(a) * np.linalg.norm(x)
                                                        + abs(b) * np.linalg.norm(y))
        assert np.linalg.norm(mat @ (xy - (a * x + b * y))) <= bound


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       roots=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=2),
       c2=st.floats(1e-3, 1.0))
def test_the_root_whose_ratio_is_nearest_one_is_chosen(coarsening_ops, seed, roots, c2):
    ops, _ = coarsening_ops
    m_v = Planar(ops.forms.m_p2)
    rng = np.random.default_rng(seed)
    z0, z1 = rng.standard_normal((2, ops.p2v.ndofs))
    rho, u_tilde, ratio = closest_ratio_root(roots, lambda root: z0 + root * z1, m_v, c2)
    ratios = [root / np.sqrt(0.5 * (u @ (m_v @ u)) + c2)
              for root, u in ((root, z0 + root * z1) for root in roots)]
    best = int(np.argmin([abs(q - 1.0) for q in ratios]))  # the first of equal ones
    assert (rho, ratio) == (roots[best], ratios[best])
    assert np.array_equal(u_tilde, z0 + rho * z1)


def test_the_first_of_two_equally_near_roots_is_chosen(coarsening_ops):
    # a double root: both candidates give the same ratio, and the first one's
    # velocity comes back
    ops, _ = coarsening_ops
    u = np.random.default_rng(3).standard_normal(ops.p2v.ndofs)
    made = []

    def velocity_of(root):
        made.append(u.copy())
        return made[-1]

    _, u_tilde, _ = closest_ratio_root((0.7, 0.7), velocity_of, Planar(ops.forms.m_p2), 0.1)
    assert len(made) == 2 and u_tilde is made[0]
