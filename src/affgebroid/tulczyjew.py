"""Canonical involution, its linear twin, the phase-space isomorphism, and
the dynamics-as-submanifold characterizations with residual tests.

Double points come in two readings: velocity-side quadruples (x, y; z, v)
and momentum-side quadruples (x, p; z, w).  The maps below shuttle between
them; the dynamics of a regular Lagrangian and of its induced Hamiltonian
land on the same momentum-side submanifold, which the residuals measure.
"""

from dataclasses import dataclass

import numpy as np

from .flow import Trajectory, time_derivative
from .hamiltonian import momentum_rate
from .lagrangian import momentum_equation_rhs
from .legendre import NewtonParams, leg_inverse
from .model import APoint, JetPoint, PhasePoint, VStarPoint


def sigma(model, j):
    """Canonical involution on velocity-side double points:
    (x, y; z, v) -> (x, z; y, v + C_0g (y - z) + C_bg z y).  Involutive."""
    s = model.structure_at(j.x)
    v = j.v + (j.y - j.z) @ s.c0 + np.einsum("bga,b,g->a", s.c, j.z, j.y)
    return JetPoint(j.x, j.z, j.y, v)


def sigma_l(model, j):
    """Linear-side flip: (x, y; z, v) -> (x, z; y, v - C_0g z + C_bg z y)."""
    s = model.structure_at(j.x)
    v = j.v - j.z @ s.c0 + np.einsum("bga,b,g->a", s.c, j.z, j.y)
    return JetPoint(j.x, j.z, j.y, v)


def tilde_pairing(j):
    """Pairing swap between the two double readings:
    (x, a; b, c) -> (x, c; b, a)."""
    return PhasePoint(j.x, j.v, j.z, j.y)


def a_map_dual(model, j):
    """Dual of the phase-space isomorphism: pairing swap after the linear
    flip.  Sends velocity-side doubles to momentum-side doubles."""
    return tilde_pairing(sigma_l(model, j))


@dataclass
class LvStarPoint:
    """Coordinates on the dual of the prolongation: base, velocity slot, and
    the two covector blocks (reference/fibre directions, vertical
    directions)."""

    x: np.ndarray
    z: np.ndarray
    cov_t: np.ndarray
    cov_v: np.ndarray


def a_map(model, p):
    """Phase-space isomorphism:
    (x, p; z, w) -> (x, z; w - C_0g p - C_ag z p, p)."""
    s = model.structure_at(p.x)
    cov_t = p.w - s.c0 @ p.p - np.einsum("agb,a,b->g", s.c, p.z, p.p)
    return LvStarPoint(x=p.x.copy(), z=p.z.copy(), cov_t=cov_t, cov_v=p.p.copy())


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
    _, dldx, dldy, _, _ = sys.derivs(a.x, a.y)
    s = sys.model.structure_at(a.x)
    return LvStarPoint(
        x=a.x.copy(), z=a.y.copy(), cov_t=s.rho @ dldx, cov_v=dldy
    )


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
        return float(
            max(np.max(np.abs(self.res_p)), np.max(np.abs(self.res_z)), np.max(np.abs(self.res_v)))
        )


def s_l_residual(sys, p, params=None):
    """Three-block membership test.

    res_p: momenta against dL/dy at the velocity slot.
    res_z: velocity slot against the Legendre inverse of the momenta.
    res_v: covelocities against the momentum-equation right side at the
    velocity slot.
    """
    params = params or NewtonParams()
    _, _, dldy, _, _ = sys.derivs(p.x, p.z)
    res_p = p.p - dldy
    matched = leg_inverse(sys, VStarPoint(p.x, p.p), guess=p.z, params=params)
    res_z = p.z - matched.y
    res_v = p.w - momentum_equation_rhs(sys, p.x, p.z)
    return SubmanifoldResidual(point=p, res_p=res_p, res_z=res_z, res_v=res_v)


def s_h_point(sys, q):
    """The Hamiltonian dynamics submanifold, parametrized by the dual bundle:
    the momentum-side double point carried by the Reeb motion at q."""
    s = sys.model.structure_at(q.x)
    dhdx, dhdp = sys.grad(q.x, q.p)
    return PhasePoint(q.x.copy(), q.p.copy(), dhdp, momentum_rate(s, dhdx, dhdp, q.p))


def lift_hamilton_trajectory(sys, traj):
    """Attach the submanifold slots (z, w) to a Hamilton trajectory on
    (x, p), producing rows (x, p, z, w)."""
    m = sys.model.chart.dim_base
    rows = []
    for state in traj.states:
        ph = s_h_point(sys, VStarPoint(state[:m], state[m:]))
        rows.append(np.concatenate([ph.x, ph.p, ph.z, ph.w]))
    out_meta = dict(traj.meta)
    out_meta["lift"] = "reeb"
    return Trajectory(traj.times.copy(), np.array(rows), out_meta)


def lift_el_trajectory(sys, traj):
    """Carry an Euler-Lagrange trajectory on (x, y) into the momentum-side
    submanifold rows (x, p, z, w)."""
    m = sys.model.chart.dim_base
    rows = []
    for state in traj.states:
        ph = s_l_generator(sys, APoint(state[:m], state[m:]))
        rows.append(np.concatenate([ph.x, ph.p, ph.z, ph.w]))
    out_meta = dict(traj.meta)
    out_meta["lift"] = "dL"
    return Trajectory(traj.times.copy(), np.array(rows), out_meta)


def admissibility_residual(model, traj):
    """How far a stored momentum-side trajectory (x, p, z, w) is from being
    an admissible motion: the base must flow along the anchor of the velocity
    slot, the momenta must flow along the covelocity slot.  Returns the two
    max defects (base block, momentum block); derivatives are second-order
    finite differences on the stored grid."""
    m = model.chart.dim_base
    n = model.chart.fibre_dim
    xs = traj.states[:, :m]
    ps = traj.states[:, m : m + n]
    zs = traj.states[:, m + n : m + 2 * n]
    ws = traj.states[:, m + 2 * n :]
    dx = time_derivative(traj.times, xs)
    dp = time_derivative(traj.times, ps)
    res_base = 0.0
    for i in range(len(traj.times)):
        s = model.structure_at(xs[i])
        drift = s.rho0 + zs[i] @ s.rho
        res_base = max(res_base, float(np.max(np.abs(dx[i] - drift))))
    res_mom = float(np.max(np.abs(dp - ws)))
    return res_base, res_mom
