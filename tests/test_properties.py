"""Property tests: the PRESB algebra and the roots of the scalar reduction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chns.experiments import relaxation_params
from chns.fem import build_space
from chns.linsolve import Presb
from chns.mesh import build_uniform_mesh
from chns.scheme import ReductionError, build_operators, solve_quadratic


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
