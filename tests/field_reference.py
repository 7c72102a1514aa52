"""The numpy assembly of the Euler-Lagrange and Hamilton fields, and of the
momentum-equation right side, that the fused kernels replaced, kept as the
reference they are tested against.

Each field is put together from structure_at, the energy function's
derivatives and small matrix products, and the fibre solve is
np.linalg.solve guarded by the 2-norm condition number np.linalg.cond.
"""

import numpy as np

from affgebroid.errors import SingularLagrangian


def momentum_rate(s, dhdx, dhdp, p):
    """pdot = - rho dH/dx + C_0 p + C_ba^g (dH/dp_b) p_g, from the structure
    values s at the base point."""
    return -(s.rho @ dhdx) + s.c0 @ p + np.einsum("bag,b,g->a", s.c, dhdp, p)


def hamilton_field(sys):
    m = sys.model.chart.dim_base

    def field(state):
        x, p = state[:m], state[m:]
        s = sys.model.structure_at(x)
        dhdx, dhdp = sys.grad(x, p)
        xdot = s.rho0 + dhdp @ s.rho
        return np.concatenate([xdot, momentum_rate(s, dhdx, dhdp, p)])

    return field


def reeb_section(sys, point):
    x, p = point.x, point.p
    s = sys.model.structure_at(x)
    dhdx, dhdp = sys.grad(x, p)
    return np.concatenate([[1.0], dhdp, momentum_rate(s, dhdx, dhdp, p)])


def _pieces(sys, x, y):
    s = sys.model.structure_at(x)
    _, dldx, dldy, d2xy, w = sys.derivs(x, y)
    y = np.asarray(y, dtype=float)
    vel = s.rho0 + y @ s.rho
    coupling = s.c0 + np.einsum("b,bag->ag", y, s.c)
    rhs = s.rho @ dldx + coupling @ dldy
    return vel, rhs, rhs - vel @ d2xy, w


def momentum_equation_rhs(sys, x, y):
    return _pieces(sys, x, y)[1]


def solve(w, rhs):
    cond = float(np.linalg.cond(w)) if np.isfinite(w).all() else float("inf")
    if not cond < 1e12:
        raise SingularLagrangian("fibre Hessian singular: condition number %.3e" % cond)
    return np.linalg.solve(w, rhs)


def el_field(sys):
    m = sys.model.chart.dim_base

    def field(state):
        vel, _, r, w = _pieces(sys, state[:m], state[m:])
        return np.concatenate([vel, solve(w, r)])

    return field


def el_section(sys, point):
    _, _, r, w = _pieces(sys, point.x, point.y)
    return np.concatenate([[1.0], point.y, solve(w, r)])
