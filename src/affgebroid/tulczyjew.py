"""Canonical involution, the phase-space isomorphism, and the
dynamics-as-submanifold characterizations with residual tests.

Double points come in two readings: velocity-side quadruples (x, y; z, v)
and momentum-side quadruples (x, p; z, w).  The maps below shuttle between
them; the dynamics of a regular Lagrangian and of its induced Hamiltonian
land on the same momentum-side submanifold, which the residuals measure.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import reeb_section
from .lagrangian import momentum_equation_rhs
from .legendre import NewtonParams, leg_inverse
from .model import JetPoint, PhasePoint, VStarPoint, _Point


def sigma(model, j):
    """Canonical involution on velocity-side double points:
    (x, y; z, v) -> (x, z; y, v + C_0g (y - z) + C_bg z y).  Involutive."""
    s = model.structure_at(j.x)
    v = j.v + (j.y - j.z) @ s.c0 + np.einsum("bga,b,g->a", s.c, j.z, j.y)
    return JetPoint(j.x, j.z, j.y, v)


class LvStarPoint(_Point):
    """Coordinates on the dual of the prolongation: base, velocity slot, and
    the two covector blocks (reference/fibre directions, vertical
    directions)."""

    __slots__ = ("x", "z", "cov_t", "cov_v")


def a_map(model, p):
    """Phase-space isomorphism:
    (x, p; z, w) -> (x, z; w - C_0g p - C_ag z p, p)."""
    s = model.structure_at(p.x)
    cov_t = p.w - s.c0 @ p.p - np.einsum("agb,a,b->g", s.c, p.z, p.p)
    return LvStarPoint(p.x, p.z, cov_t, p.p)


def a_map_inverse(model, lv):
    """Solve the linear relation of a_map for (p, w)."""
    s = model.structure_at(lv.x)
    p = lv.cov_v
    w = lv.cov_t + s.c0 @ p + np.einsum("agb,a,b->g", s.c, lv.z, p)
    return PhasePoint(lv.x.copy(), p.copy(), lv.z.copy(), w)


def dl_point(sys, a):
    """Differential of L as a covector on the prolongation at (x, y): the
    fibre-direction components pick up the anchor, the vertical ones are
    plain fibre derivatives."""
    m = sys.model.chart.dim_base
    _, grad = sys.lagrangian.value_grad(np.concatenate([a.x, a.y]))
    s = sys.model.structure_at(a.x)
    return LvStarPoint(a.x, a.y, s.rho @ grad[:m], grad[m:])


def s_l_generator(sys, a):
    """Parametric point of the Lagrangian dynamics submanifold on the
    momentum side, from a point of A."""
    return a_map_inverse(sys.model, dl_point(sys, a))


@dataclass
class SubmanifoldResidual:
    """Defect of a momentum-side double point against the dynamics
    submanifold of a Lagrangian: momentum block, velocity-matching block,
    covelocity block.  All three vanish exactly on the submanifold."""

    point: PhasePoint
    res_p: np.ndarray
    res_z: np.ndarray
    res_v: np.ndarray

    @property
    def max_abs(self):
        return float(np.max(np.abs(np.concatenate([self.res_p, self.res_z, self.res_v]))))


def s_l_residual(sys, p, params=None):
    """Three-block membership test.

    res_p: momenta against dL/dy at the velocity slot.
    res_z: velocity slot against the Legendre inverse of the momenta.
    res_v: covelocities against the momentum-equation right side at the
    velocity slot.
    """
    params = params or NewtonParams()
    res_p = p.p - sys.legendre_data(p.x, p.z)[1]
    matched = leg_inverse(sys, VStarPoint(p.x, p.p), guess=p.z, params=params)
    res_z = p.z - matched.y
    res_v = p.w - momentum_equation_rhs(sys, p.x, p.z)
    return SubmanifoldResidual(point=p, res_p=res_p, res_z=res_z, res_v=res_v)


def s_h_point(sys, q):
    """The Hamiltonian dynamics submanifold, parametrized by the dual bundle:
    the momentum-side double point carried by the Reeb motion at q."""
    n = sys.model.chart.fibre_dim
    r = reeb_section(sys, q)
    return PhasePoint(q.x.copy(), q.p.copy(), r[1 : 1 + n], r[1 + n :])
