"""Legendre duality both ways: fibre derivative of L, its Newton inverse,
the induced Hamiltonian, and reconstruction of L from a Hamiltonian.

InducedHamiltonian pairs a regular Lagrangian (.lag) with its Hamiltonian;
flow_commutation_check reads both sides from it.  It never differentiates
the Newton loop: its gradient and fibre Hessian come from the
implicit-function identities at the paired point: dH/dp = y,
dH/dx = -dL/dx, fibre Hessian of H = inverse of the fibre Hessian of L.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDivergence, SingularLagrangian
from .expressions import Var, compile_trees, float_args
from .flow import integrate_rk4
from .hamiltonian import HamiltonianSystem, hamilton_vector_field
from .lagrangian import _fibre_solve, el_vector_field, solve_fibre_hessian
from .model import APoint, VStarPoint, motion_trees


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
    return VStarPoint(a.x, sys.legendre_data(a.x, a.y)[1])


def leg_extended(sys, a):
    """Extended Legendre map into the full dual: (x, y0, p) with
    y0 = L - y dL/dy, p = dL/dy."""
    lval, dldy, _ = sys.legendre_data(a.x, a.y)
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
        out = sys.evaluate("legendre", x, y)
        w = out[1 + n :]
        return np.array(out[1 : 1 + n]) - p, lambda r: np.array(_fibre_solve(w, r.tolist()))

    y0 = np.zeros(n) if guess is None else np.array(guess, dtype=float)
    return APoint(x, _newton(fun_jac, y0, params))


class InducedHamiltonian(HamiltonianSystem):
    """Legendre image of a Lagrangian as a live Hamiltonian system.  Keeps a
    warm-start cache for the fibre Newton solve, which saves iterations along
    continuous paths.  Where Newton starts changes the matched velocity by
    rounding, within the Newton tol, so results can depend on the order of
    earlier calls at that level; the same call sequence reproduces exactly."""

    def __init__(self, lag_sys, params=None):
        self.model = lag_sys.model
        self.lag = lag_sys
        self.params = params or NewtonParams()
        self._warm = None
        self._kernel = None

    def _match(self, x, p):
        a = leg_inverse(
            self.lag, VStarPoint(x, p), guess=self._warm, params=self.params
        )
        self._warm = a.y.copy()
        return a

    def value(self, x, p):
        a = self._match(x, p)
        return float(np.asarray(p, float) @ a.y) - self.lag.lagrangian.eval(
            np.concatenate([a.x, a.y])
        )

    def grad(self, x, p):
        a = self._match(x, p)
        point = np.concatenate([a.x, a.y])
        _, dldx = self.lag.lagrangian.value_grad(point, active=self.model.chart.base_names)
        return -dldx, a.y.copy()

    def fibre_hessian(self, x, p):
        """W^-1 at the matched velocity, solved column by column under the
        regularity rule of the fibre solves."""
        a = self._match(x, p)
        w = self.lag.legendre_data(a.x, a.y)[2]
        return np.array([_fibre_solve(w.ravel().tolist(), e) for e in np.eye(len(w)).tolist()]).T

    def motion(self, state):
        """As HamiltonianSystem.motion, from the same trees with the
        structure values, dH/dx and dH/dp as free variables: the structure
        is evaluated first, then grad runs the Newton solve."""
        model = self.model
        m, n = model.chart.dim_base, model.chart.fibre_dim
        x, p = state[:m], state[m:]
        values = model.structure_values(x)
        dhdx, dhdp = self.grad(x, p)
        if self._kernel is None:
            gx = [Var("gx%d" % i) for i in range(m)]
            gp = [Var("gp%d" % a) for a in range(n)]
            pv = [Var("p%d" % a) for a in range(n)]
            names = ["s%d" % k for k in range(len(values))] + [v.name for v in pv + gx + gp]
            trees = motion_trees(model.structure_trees(free=True), gx, gp, pv)
            self._kernel = compile_trees(trees, names)
        args = float_args(p, model.chart.dual_names) + dhdx.tolist() + dhdp.tolist()
        return self._kernel(*values, *args)


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
    argument.  The Newton steps solve with the momentum Hessian under the
    regularity rule of the fibre solves, and a Hessian that fails it raises
    NewtonDivergence("momentum Hessian singular").
    """
    params = params or NewtonParams()
    x, y = a.x, a.y
    n = sys.model.chart.fibre_dim
    section = np.zeros(n) if section is None else np.asarray(section, dtype=float)

    def fun_jac(p):
        _, dhdp = sys.grad(x, p)

        def solve(r):
            try:
                return solve_fibre_hessian(sys.fibre_hessian(x, p), r)
            except SingularLagrangian:
                raise NewtonDivergence("momentum Hessian singular") from None

        return dhdp - y, solve

    p0 = np.zeros(n) if guess is None else np.array(guess, dtype=float)
    p = _newton(fun_jac, p0, params)
    h_section = -sys.value(x, p) + float(section @ p)
    return float(p @ (y - section)) + h_section


def flow_commutation_check(ham, a0, t1, dt):
    """Sup over a shared time grid of |Legendre image of the Lagrangian flow
    minus the Hamiltonian flow| started from matched states, for an
    InducedHamiltonian ham and its Lagrangian ham.lag."""
    lag = ham.lag
    m = lag.model.chart.dim_base
    el_traj = integrate_rk4(
        el_vector_field(lag), np.concatenate([a0.x, a0.y]), 0.0, t1, dt
    )
    v0 = leg(lag, a0)
    h_traj = integrate_rk4(
        hamilton_vector_field(ham), np.concatenate([v0.x, v0.p]), 0.0, t1, dt
    )
    images = [leg(lag, APoint(s[:m], s[m:])) for s in el_traj.states]
    gaps = np.array([np.concatenate([v.x, v.p]) for v in images]) - h_traj.states
    return float(np.max(np.abs(gaps)))
