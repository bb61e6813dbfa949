"""Manufactured solution machinery for the convergence study.

The analytic fields are a smooth phase profile, a divergence-free swirl
velocity vanishing on the boundary of the unit square, and a zero-mean
pressure. The chemical potential is defined scheme-consistently as
mu = lam * (-laplace(phi) + G'(phi)), and the forcing terms are the
pointwise residuals of the coupled model in these fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PI = np.pi


class _Trig(NamedTuple):
    """sin and cos of pi x, pi y, 2 pi x and 2 pi y: every space factor of the case."""

    sx: np.ndarray
    cx: np.ndarray
    sy: np.ndarray
    cy: np.ndarray
    s2x: np.ndarray
    c2x: np.ndarray
    s2y: np.ndarray
    c2y: np.ndarray


def _trig_eval(x, y) -> _Trig:
    return _Trig(np.sin(PI * x), np.cos(PI * x), np.sin(PI * y), np.cos(PI * y),
                 np.sin(2 * PI * x), np.cos(2 * PI * x), np.sin(2 * PI * y), np.cos(2 * PI * y))


def _frozen(a) -> bool:
    return isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable


@dataclass
class MmsCase:
    """Closed-form fields, gradients, and forcing of one manufactured run."""

    phi: object
    mu: object
    u: object
    p: object
    grad_phi: object
    grad_mu: object
    grad_u: object   # nested [component][direction]
    grad_p: object
    g_phi: object
    g_u: object


def trig_case(params) -> MmsCase:
    """The standard trigonometric case on the unit square.

    Every field is polynomial in sin t, cos t and the space factors of
    `_trig`. The case keeps the factors of frozen points, read-only arrays
    that own their data such as the quadrature points of the assembly
    tables, for as long as it lives, so on those points a time step
    evaluates no trigonometric function of space. Each kept entry holds
    its arrays, so no other array can take their ids while the case lives.
    Any other arrays are evaluated afresh.
    """
    lam, eps, mob, nu = params.lam, params.eps, params.mobility, params.nu
    kept: dict[tuple[int, int], tuple] = {}  # (id(x), id(y)) -> (x, y, factors)

    def _trig(x, y) -> _Trig:
        if not (_frozen(x) and _frozen(y)):
            return _trig_eval(x, y)
        key = (id(x), id(y))
        if key not in kept:
            kept[key] = (x, y, _trig_eval(x, y))
        return kept[key][2]

    def ax(x, y):
        tg = _trig(x, y)
        return tg.cx * tg.cy

    def grad_ax(x, y):
        tg = _trig(x, y)
        return (-PI * tg.sx * tg.cy,
                -PI * tg.cx * tg.sy)

    def phi(t, x, y):
        return 2.0 + np.sin(t) * ax(x, y)

    def grad_phi(t, x, y):
        gx, gy = grad_ax(x, y)
        s = np.sin(t)
        return s * gx, s * gy

    def mu(t, x, y):
        f = phi(t, x, y)
        return lam * (2.0 * PI ** 2 * np.sin(t) * ax(x, y) + (f * f * f - f) / eps ** 2)

    def grad_mu(t, x, y):
        f = phi(t, x, y)
        gx, gy = grad_ax(x, y)
        s = np.sin(t)
        factor = lam * s * (2.0 * PI ** 2 + (3.0 * f ** 2 - 1.0) / eps ** 2)
        return factor * gx, factor * gy

    def laplace_mu(t, x, y):
        s = np.sin(t)
        f = phi(t, x, y)
        a = ax(x, y)
        tg = _trig(x, y)
        grad_a_sq = PI ** 2 * (tg.sx ** 2 * tg.cy ** 2 + tg.cx ** 2 * tg.sy ** 2)
        return lam * (-4.0 * PI ** 4 * s * a
                      + ((3.0 * f ** 2 - 1.0) * (-2.0 * PI ** 2 * s * a)
                         + 6.0 * f * s ** 2 * grad_a_sq) / eps ** 2)

    def u(t, x, y):
        s = np.sin(t)
        tg = _trig(x, y)
        return (PI * tg.sx ** 2 * tg.s2y * s,
                -PI * tg.sy ** 2 * tg.s2x * s)

    def u_t(t, x, y):
        c = np.cos(t)
        tg = _trig(x, y)
        return (PI * tg.sx ** 2 * tg.s2y * c,
                -PI * tg.sy ** 2 * tg.s2x * c)

    def grad_u(t, x, y):
        s = np.sin(t)
        tg = _trig(x, y)
        d1x = PI ** 2 * tg.s2x * tg.s2y * s
        d1y = 2 * PI ** 2 * tg.sx ** 2 * tg.c2y * s
        d2x = -2 * PI ** 2 * tg.sy ** 2 * tg.c2x * s
        d2y = -PI ** 2 * tg.s2y * tg.s2x * s
        return ((d1x, d1y), (d2x, d2y))

    def laplace_u(t, x, y):
        s = np.sin(t)
        tg = _trig(x, y)
        l1 = 2 * PI ** 3 * s * tg.s2y * (tg.c2x - 2 * tg.sx ** 2)
        l2 = -2 * PI ** 3 * s * tg.s2x * (tg.c2y - 2 * tg.sy ** 2)
        return l1, l2

    def p(t, x, y):
        tg = _trig(x, y)
        return tg.cx * tg.sy * np.sin(t)

    def grad_p(t, x, y):
        s = np.sin(t)
        tg = _trig(x, y)
        return (-PI * tg.sx * tg.sy * s,
                PI * tg.cx * tg.cy * s)

    def g_phi(t, x, y):
        u1, u2 = u(t, x, y)
        px, py = grad_phi(t, x, y)
        phit = np.cos(t) * ax(x, y)
        return phit + u1 * px + u2 * py - mob * laplace_mu(t, x, y)

    def g_u(t, x, y):
        u1, u2 = u(t, x, y)
        (d1x, d1y), (d2x, d2y) = grad_u(t, x, y)
        ut1, ut2 = u_t(t, x, y)
        l1, l2 = laplace_u(t, x, y)
        px, py = grad_p(t, x, y)
        fx, fy = grad_phi(t, x, y)
        m = mu(t, x, y)
        g1 = ut1 + u1 * d1x + u2 * d1y - nu * l1 + px - m * fx
        g2 = ut2 + u1 * d2x + u2 * d2y - nu * l2 + py - m * fy
        return g1, g2

    return MmsCase(phi=phi, mu=mu, u=u, p=p,
                   grad_phi=grad_phi, grad_mu=grad_mu, grad_u=grad_u, grad_p=grad_p,
                   g_phi=g_phi, g_u=g_u)
