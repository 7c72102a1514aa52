"""Lagrangian dynamics: Cartan forms, the dynamics section, regularity.

Prolongation vectors and covectors use the fixed basis order
(reference direction, n fibre directions, n vertical directions); index 0 is
the reference slot, 1..n the fibre block, n+1..2n the vertical block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularLagrangian
from .expressions import ScalarField, parse


class LagrangianSystem:
    """A model together with a Lagrangian over (base, velocity) coordinates."""

    def __init__(self, model, lagrangian):
        self.model = model
        names = model.chart.base_names + model.chart.fibre_names
        if isinstance(lagrangian, str):
            lagrangian = parse(lagrangian, names)
        if not isinstance(lagrangian, ScalarField):
            raise TypeError("lagrangian must be a ScalarField or source string")
        if lagrangian.variables != names:
            raise ValueError(
                "lagrangian bound to %r, chart wants %r" % (lagrangian.variables, names)
            )
        self.lagrangian = lagrangian

    def derivs(self, x, y):
        """Value, base gradient, fibre gradient, mixed block and fibre Hessian
        of L at (x, y)."""
        m = self.model.chart.dim_base
        point = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        d = self.lagrangian.eval_dual2(point)
        return d.val, d.grad[:m], d.grad[m:], d.hess[:m, m:], d.hess[m:, m:]

    def fibre_hessian(self, x, y):
        m = self.model.chart.dim_base
        point = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        names = self.lagrangian.variables[m:]
        return self.lagrangian.eval_dual2(point, active=names).hess


def _regularity(w):
    """The regularity rule, shared by every solve and by is_regular: W is
    regular when its condition number is below 1e12, which rescaling L leaves
    unchanged.  Returns (flag, condition number); a W with a non-finite entry
    counts as singular."""
    cond = float(np.linalg.cond(w)) if np.isfinite(w).all() else float("inf")
    return cond < 1e12, cond


def solve_fibre_hessian(w, rhs):
    """Linear solve with the fibre Hessian, refused when W is singular under
    the regularity rule."""
    ok, cond = _regularity(w)
    if not ok:
        raise SingularLagrangian("fibre Hessian singular: condition number %.3e" % cond)
    return np.linalg.solve(w, rhs)


def vertical_endomorphism(point, vec):
    """Vertical endomorphism on prolongation vectors at a point of A:
    (z0, z, v) -> (0, 0, z - y z0).  Squares to zero."""
    y = point.y
    n = y.shape[0]
    vec = np.asarray(vec, dtype=float)
    out = np.zeros(2 * n + 1)
    out[1 + n :] = vec[1 : 1 + n] - y * vec[0]
    return out


@dataclass
class CartanData:
    """Cartan 1-form coefficients (theta0 on the reference covector, theta on
    the fibre covectors), the Cartan 2-form matrix, and the fibre Hessian."""

    theta0: float
    theta: np.ndarray
    omega: np.ndarray
    hessian: np.ndarray


def _unit(dim, i):
    u = np.zeros(dim)
    u[i] = 1.0
    return u


def _wedge(a, b):
    return np.outer(a, b) - np.outer(b, a)


def momentum_equation_rhs(sys, x, y):
    """Right side of the momentum form of the dynamics:
    d/dt (dL/dy^a) = rho_a^i dL/dx^i + (C_0a^g + C_ba^g y^b) dL/dy^g."""
    return _dynamics_pieces(sys, x, y)[-1]


def _dynamics_pieces(sys, x, y):
    s = sys.model.structure_at(x)
    lval, dldx, dldy, d2xy, w = sys.derivs(x, y)
    y = np.asarray(y, dtype=float)
    vel = s.rho0 + y @ s.rho
    coupling = s.c0 + np.einsum("b,bag->ag", y, s.c)
    rhs = s.rho @ dldx + coupling @ dldy
    return s, lval, dldx, dldy, d2xy, w, vel, rhs


def cartan_data(sys, point, xi0=None):
    """Cartan forms at a point of A.

    xi0 is the acceleration part of an arbitrary reference section used in the
    vertical covectors; the assembled 2-form does not depend on it (the
    dependence cancels against the symmetric Hessian), which tests check by
    assembling with several choices.
    """
    x, y = point.x, point.y
    n = sys.model.chart.fibre_dim
    s, lval, dldx, dldy, d2xy, w, vel, rhs = _dynamics_pieces(sys, x, y)
    if xi0 is None:
        xi0 = np.zeros(n)
    xi0 = np.asarray(xi0, dtype=float)

    dim = 2 * n + 1
    e0 = _unit(dim, 0)
    theta = [_unit(dim, 1 + a) - y[a] * e0 for a in range(n)]
    psi = [_unit(dim, 1 + n + a) - xi0[a] * e0 for a in range(n)]

    # coefficient of theta^a wedge e^0; equals W (xi0 - xi) on solutions
    a_coeff = vel @ d2xy + w @ xi0 - rhs
    # coefficient of theta^a wedge theta^b
    p = s.rho @ d2xy
    b_coeff = p.T - p + np.einsum("abg,g->ab", s.c, dldy)

    omega = np.zeros((dim, dim))
    for a in range(n):
        omega += a_coeff[a] * _wedge(theta[a], e0)
        for b in range(n):
            omega += w[a, b] * _wedge(theta[a], psi[b])
            omega += 0.5 * b_coeff[a, b] * _wedge(theta[a], theta[b])
    return CartanData(
        theta0=lval - float(y @ dldy),
        theta=dldy,
        omega=omega,
        hessian=w,
    )


def is_regular(sys, point):
    """Regularity of L at a point: nonsingular fibre Hessian.  Returns
    (flag, condition number)."""
    return _regularity(sys.fibre_hessian(point.x, point.y))


def el_section(sys, point):
    """Dynamics section at a point: components (1, y^a, xi^a) on the
    prolongation basis.  Requires a regular Lagrangian."""
    x, y = point.x, point.y
    _, _, _, d2xy, w, vel, rhs = _dynamics_pieces(sys, x, y)[1:]
    xi = solve_fibre_hessian(w, rhs - vel @ d2xy)
    return np.concatenate([[1.0], y, xi])


def el_vector_field(sys):
    """Autonomous field on (x, y) space integrating the dynamics:
    xdot = anchor drift, ydot = xi from the momentum equation."""
    m = sys.model.chart.dim_base

    def field(state):
        x, y = state[:m], state[m:]
        s, _, _, _, d2xy, w, vel, rhs = _dynamics_pieces(sys, x, y)
        xi = solve_fibre_hessian(w, rhs - vel @ d2xy)
        return np.concatenate([vel, xi])

    return field


def energy(sys, point):
    """y^a dL/dy^a - L, the energy-like function conserved when nothing in
    the model depends on the reference base coordinate."""
    lval, _, dldy, _, _ = sys.derivs(point.x, point.y)
    return float(point.y @ dldy) - lval


def cosymplectic_check_L(sys, point):
    """(sup-norm of the Cartan 2-form contracted with the dynamics section,
    |reference covector on the section - 1|).  Both vanish for a regular L."""
    data = cartan_data(sys, point)
    r = el_section(sys, point)
    return float(np.max(np.abs(data.omega.T @ r))), abs(float(r[0]) - 1.0)


def bordered_volume_det(omega, eta):
    """Determinant of [[Omega, eta], [-eta^T, 0]]; nonzero exactly when
    eta wedge Omega^n is a volume form."""
    dim = omega.shape[0]
    m = np.zeros((dim + 1, dim + 1))
    m[:dim, :dim] = omega
    m[:dim, dim] = eta
    m[dim, :dim] = -eta
    return float(np.linalg.det(m))
