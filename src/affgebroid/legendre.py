"""Legendre duality both ways: fibre derivative of L, its Newton inverse,
the induced Hamiltonian, and reconstruction of L from a Hamiltonian.

The induced Hamiltonian never differentiates the Newton loop; its gradient
and fibre Hessian come from the implicit-function identities at the paired
point: dH/dp = y, dH/dx = -dL/dx, fibre Hessian of H = inverse of the fibre
Hessian of L.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDivergence
from .flow import integrate_rk4
from .hamiltonian import HamiltonianSystem, hamilton_vector_field
from .lagrangian import el_vector_field, solve_fibre_hessian
from .model import APoint, VStarPoint


@dataclass
class NewtonParams:
    tol: float = 1e-12
    max_iter: int = 50


def _newton(fun_jac, z0, params):
    """Damped Newton: full step, halved while the residual norm grows.
    fun_jac(z) -> (residual, jacobian solve callable)."""
    z = np.array(z0, dtype=float)
    res, solve = fun_jac(z)
    norm = float(np.max(np.abs(res)))
    for _ in range(params.max_iter):
        if norm <= params.tol:
            return z
        step = solve(res)
        lam = 1.0
        for _ in range(30):
            trial = z - lam * step
            tres, tsolve = fun_jac(trial)
            tnorm = float(np.max(np.abs(tres)))
            if np.isfinite(tnorm) and (tnorm < norm or tnorm <= params.tol):
                z, res, solve, norm = trial, tres, tsolve, tnorm
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                "damping stalled at residual %.3e (tol %.1e)" % (norm, params.tol)
            )
    if norm <= params.tol:
        return z
    raise NewtonDivergence(
        "no convergence after %d iterations, residual %.3e" % (params.max_iter, norm)
    )


def leg(sys, a):
    """Fibre derivative of L: (x, y) -> (x, dL/dy)."""
    return VStarPoint(a.x, sys.derivs(a.x, a.y)[2])


def leg_extended(sys, a):
    """Extended Legendre map into the full dual: (x, y0, p) with
    y0 = L - y dL/dy, p = dL/dy."""
    lval, _, dldy, _, _ = sys.derivs(a.x, a.y)
    return (a.x.copy(), lval - float(a.y @ dldy), dldy)


def leg_inverse(sys, v, guess=None, params=None):
    """Velocity with dL/dy(x, y) = p, by damped Newton on the fibre.

    guess seeds the iteration (default: fibre origin).  Requires a regular
    Lagrangian along the path; raises SingularLagrangian or NewtonDivergence.
    """
    params = params or NewtonParams()
    n = sys.model.chart.fibre_dim
    x, p = v.x, v.p

    def fun_jac(y):
        _, _, dldy, _, w = sys.derivs(x, y)
        return dldy - p, lambda r: solve_fibre_hessian(w, r)

    y0 = np.zeros(n) if guess is None else np.array(guess, dtype=float)
    return APoint(x, _newton(fun_jac, y0, params))


def h_from_L(sys, v, guess=None, params=None):
    """Hamiltonian induced by L at a dual point: p y - L at the matched
    velocity."""
    a = leg_inverse(sys, v, guess=guess, params=params)
    lval = sys.derivs(a.x, a.y)[0]
    return float(v.p @ a.y) - lval


class InducedHamiltonian(HamiltonianSystem):
    """Legendre image of a Lagrangian as a live Hamiltonian system.  Keeps a
    warm-start cache for the fibre Newton solve; results are identical either
    way, the cache only saves iterations along continuous paths."""

    def __init__(self, lag_sys, params=None):
        self.model = lag_sys.model
        self.lag = lag_sys
        self.params = params or NewtonParams()
        self._warm = None

    def _match(self, x, p):
        a = leg_inverse(
            self.lag, VStarPoint(x, p), guess=self._warm, params=self.params
        )
        self._warm = a.y.copy()
        return a

    def value(self, x, p):
        a = self._match(x, p)
        return float(np.asarray(p, float) @ a.y) - self.lag.derivs(a.x, a.y)[0]

    def grad(self, x, p):
        a = self._match(x, p)
        dldx = self.lag.derivs(a.x, a.y)[1]
        return -dldx, a.y.copy()

    def fibre_hessian(self, x, p):
        a = self._match(x, p)
        w = self.lag.derivs(a.x, a.y)[4]
        return np.linalg.inv(w)


class LegendrePair:
    """A Lagrangian system with its induced Hamiltonian side."""

    def __init__(self, lag_sys, params=None):
        self.lag = lag_sys
        self.params = params or NewtonParams()
        self.ham = InducedHamiltonian(lag_sys, self.params)


def fh(sys, v):
    """Fibre derivative of a Hamiltonian: (x, p) -> (x, dH/dp).  Inverts the
    Legendre map of the matching Lagrangian."""
    _, dhdp = sys.grad(v.x, v.p)
    return APoint(v.x, dhdp)


def fh_det(sys, v):
    """Determinant of the momentum Hessian of H; nonzero where fh is a local
    diffeomorphism."""
    return float(np.linalg.det(sys.fibre_hessian(v.x, v.p)))


def l_from_h(sys, a, section=None, guess=None, params=None):
    """Lagrangian reconstructed from a Hamiltonian at a point of A.

    Runs through an auxiliary reference section (fibre components `section`,
    default zero): with p matched by dH/dp = y,
        L = p (y - section) + (-H + section p).
    The section contribution cancels identically; callers can pass different
    sections to see the same value, which is the point of keeping the
    argument.
    """
    params = params or NewtonParams()
    x, y = a.x, a.y
    n = sys.model.chart.fibre_dim
    section = np.zeros(n) if section is None else np.asarray(section, dtype=float)

    def fun_jac(p):
        _, dhdp = sys.grad(x, p)

        def solve(r):
            w = sys.fibre_hessian(x, p)
            try:
                return np.linalg.solve(w, r)
            except np.linalg.LinAlgError:
                raise NewtonDivergence("momentum Hessian singular") from None

        return dhdp - y, solve

    p0 = np.zeros(n) if guess is None else np.array(guess, dtype=float)
    p = _newton(fun_jac, p0, params)
    h_section = -sys.value(x, p) + float(section @ p)
    return float(p @ (y - section)) + h_section


def flow_commutation_check(pair, a0, t1, dt):
    """Sup over a shared time grid of |Legendre image of the Lagrangian flow
    minus the Hamiltonian flow| started from matched states."""
    lag, ham = pair.lag, pair.ham
    m = lag.model.chart.dim_base
    el_traj = integrate_rk4(
        el_vector_field(lag), np.concatenate([a0.x, a0.y]), 0.0, t1, dt
    )
    v0 = leg(lag, a0)
    h_traj = integrate_rk4(
        hamilton_vector_field(ham), np.concatenate([v0.x, v0.p]), 0.0, t1, dt
    )
    worst = 0.0
    for el_state, h_state in zip(el_traj.states, h_traj.states):
        image = leg(lag, APoint(el_state[:m], el_state[m:]))
        gap = np.concatenate([image.x, image.p]) - h_state
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst
