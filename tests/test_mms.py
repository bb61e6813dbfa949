import gc
import weakref

import numpy as np
import pytest

from oracles import finite_difference_forcing
from chns import assembly as asm
from chns import mms
from chns.experiments import default_tau_rule, run_convergence_level
from chns.fem import build_space, interpolate
from chns.mesh import build_uniform_mesh
from chns.mms import trig_case
from chns.scheme import Params


@pytest.fixture(scope="module")
def case():
    return trig_case(Params())


def test_forcing_at_time_zero(case):
    # every transport/diffusion term vanishes at t = 0, leaving phi_t
    x = np.array([0.2, 0.55, 0.9])
    y = np.array([0.3, 0.75, 0.1])
    g = case.g_phi(0.0, x, y)
    assert np.allclose(g, np.cos(np.pi * x) * np.cos(np.pi * y), atol=1e-13)

    g1, g2 = case.g_u(0.0, x, y)
    assert np.allclose(g1, np.pi * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y), atol=1e-12)
    assert np.allclose(g2, -np.pi * np.sin(np.pi * y) ** 2 * np.sin(2 * np.pi * x), atol=1e-12)


def test_forcing_finite_difference_cross_validation(case):
    rng = np.random.default_rng(123)
    x = rng.uniform(0.05, 0.95, 50)
    y = rng.uniform(0.05, 0.95, 50)
    params = Params()
    for t in (0.02, 0.07):
        ga, (gu1a, gu2a) = case.g_phi(t, x, y), case.g_u(t, x, y)
        gb, (gu1b, gu2b) = finite_difference_forcing(case, params, t, x, y)
        scale = max(np.abs(ga).max(), np.abs(gu1a).max(), np.abs(gu2a).max())
        assert np.abs(ga - gb).max() <= 1e-6 * scale
        assert np.abs(gu1a - gu1b).max() <= 1e-6 * scale
        assert np.abs(gu2a - gu2b).max() <= 1e-6 * scale


def test_velocity_divergence_free_and_boundary(case):
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 40)
    y = rng.uniform(0, 1, 40)
    d = 1e-6
    for t in (0.03, 0.09):
        div = (case.u(t, x + d, y)[0] - case.u(t, x - d, y)[0]) / (2 * d) \
            + (case.u(t, x, y + d)[1] - case.u(t, x, y - d)[1]) / (2 * d)
        assert np.abs(div).max() <= 1e-6
    edge = np.linspace(0.0, 1.0, 13)
    for t in (0.05,):
        for xx, yy in ((edge, np.zeros_like(edge)), (edge, np.ones_like(edge)),
                       (np.zeros_like(edge), edge), (np.ones_like(edge), edge)):
            u1, u2 = case.u(t, xx, yy)
            assert np.abs(u1).max() <= 1e-14
            assert np.abs(u2).max() <= 1e-14


def test_pressure_zero_mean(case):
    mesh = build_uniform_mesh(16, 16)
    p1 = build_space(mesh, "p1")
    lumped = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()
    for t in (0.02, 0.1):
        coeffs = interpolate(p1, lambda x, y: case.p(t, x, y))
        assert abs(lumped @ coeffs) <= 1e-6  # integral of the interpolant


def test_mu_consistent_with_phase_field(case):
    # mu must equal lam * (-laplace(phi) + G'(phi)); laplacan by central differences
    params = Params()
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, 30)
    y = rng.uniform(0.1, 0.9, 30)
    d = 1e-4
    t = 0.06
    lap = (case.phi(t, x + d, y) + case.phi(t, x - d, y) + case.phi(t, x, y + d)
           + case.phi(t, x, y - d) - 4 * case.phi(t, x, y)) / d ** 2
    f = case.phi(t, x, y)
    expect = params.lam * (-lap + (f ** 3 - f) / params.eps ** 2)
    got = case.mu(t, x, y)
    assert np.abs(got - expect).max() <= 1e-5 * np.abs(got).max()


def test_gradients_match_finite_differences(case):
    rng = np.random.default_rng(31)
    x = rng.uniform(0.05, 0.95, 20)
    y = rng.uniform(0.05, 0.95, 20)
    d = 1e-6
    t = 0.04
    for field, grad in ((case.phi, case.grad_phi), (case.mu, case.grad_mu),
                        (case.p, case.grad_p)):
        gx = (field(t, x + d, y) - field(t, x - d, y)) / (2 * d)
        gy = (field(t, x, y + d) - field(t, x, y - d)) / (2 * d)
        ax, ay = grad(t, x, y)
        scale = max(np.abs(ax).max(), np.abs(ay).max(), 1.0)
        assert np.abs(gx - ax).max() <= 1e-5 * scale
        assert np.abs(gy - ay).max() <= 1e-5 * scale
    (d1x, d1y), (d2x, d2y) = case.grad_u(t, x, y)
    fd1x = (case.u(t, x + d, y)[0] - case.u(t, x - d, y)[0]) / (2 * d)
    fd2y = (case.u(t, x, y + d)[1] - case.u(t, x, y - d)[1]) / (2 * d)
    assert np.abs(fd1x - d1x).max() <= 1e-5 * max(np.abs(d1x).max(), 1.0)
    assert np.abs(fd2y - d2y).max() <= 1e-5 * max(np.abs(d2y).max(), 1.0)


# -- the kept space factors of the trigonometric case ----------------------


def _frozen(values):
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def _flat(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _flat(item)]
    return [np.asarray(value, dtype=float)]


@pytest.fixture
def frozen_evaluations(monkeypatch):
    """The factors `_trig_eval` returns for frozen points, in call order."""
    made = []

    def counted(x, y):
        factors = real(x, y)
        if mms._frozen(x) and mms._frozen(y):
            made.append(factors)
        return factors

    real = mms._trig_eval
    monkeypatch.setattr(mms, "_trig_eval", counted)
    return made


def test_cached_fields_match_uncached(frozen_evaluations):
    case = trig_case(Params())
    tab = asm._tables(build_space(build_uniform_mesh(6, 6), "p1"), 8)
    x, y = tab["x"], tab["y"]
    for t in (0.0, 0.03, 0.1, 1.7):
        for name in case.__dataclass_fields__:
            field = getattr(case, name)
            cached = _flat(field(t, x, y))
            # writeable copies are never kept, so this evaluates sin and cos afresh
            fresh = _flat(field(t, x.copy(), y.copy()))
            assert len(cached) == len(fresh)
            for a, b in zip(cached, fresh):
                np.testing.assert_array_max_ulp(a, b, maxulp=4)
    # every field at every time read the one kept evaluation
    assert len(frozen_evaluations) == 1


def test_new_coordinate_arrays_get_their_own_factors(frozen_evaluations):
    case = trig_case(Params())
    rng = np.random.default_rng(41)
    pairs = [(_frozen(xs), _frozen(ys)) for xs, ys in rng.uniform(0.0, 1.0, (20, 2, 64))]
    for _ in range(2):
        for x, y in pairs:
            np.testing.assert_array_equal(case.p(0.2, x, y), case.p(0.2, x.copy(), y.copy()))
    assert len(frozen_evaluations) == len(pairs)
    # arrays that can change are evaluated afresh on every call
    xs, ys = rng.uniform(0.0, 1.0, (2, 64))
    before = case.phi(0.2, xs, ys)
    xs += 0.25
    assert not np.array_equal(case.phi(0.2, xs, ys), before)
    # so are read-only views, whose base may change
    view = np.broadcast_to(xs, xs.shape)
    y = _frozen(ys)
    before = case.phi(0.2, view, y)
    xs += 0.25
    assert not np.array_equal(case.phi(0.2, view, y), before)
    assert len(frozen_evaluations) == len(pairs)


def test_a_case_frees_its_kept_factors_with_it(frozen_evaluations):
    case = trig_case(Params())
    x, y = _frozen(np.linspace(0.0, 1.0, 16)), _frozen(np.linspace(1.0, 0.0, 16))
    case.g_phi(0.05, x, y)
    points, factor = weakref.ref(x), weakref.ref(frozen_evaluations.pop().sx)
    del x, y
    gc.collect()
    assert points() is not None and factor() is not None  # the case holds them
    del case
    gc.collect()
    assert points() is None and factor() is None


@pytest.mark.parametrize("steps", [20, 40])
def test_a_convergence_level_evaluates_each_frozen_point_set_once(steps, frozen_evaluations):
    # the degree-5 points, shared by P1 and P2, and the degree-8 norm points
    run_convergence_level(4, Params(), t_end=steps * default_tau_rule(1.0 / 4))
    assert len(frozen_evaluations) == 2
