"""Legendre duality both ways: fibre derivative of L, its inverse, the
induced Hamiltonian, and reconstruction of L from a Hamiltonian.

Both directions read the "legendre" kernel of the system (L, dL/dy, W on
A; H, dH/dp, W_H on the dual) and run one damped Newton on it, except that
for a constant regular W (LagrangianSystem.constant_hessian) the inverse of
Leg_L is affine, y = W^-1 (p - dL/dy(x, 0)), and compiled.  InducedHamiltonian
pairs a regular Lagrangian (.lag) with its Hamiltonian; flow_commutation_check
reads both sides from it.  It never differentiates the inverse: its value and
fibre Hessian come from the kernel output at the matched velocity, and its
gradient and motion from the implicit-function identities there: dH/dp = y,
dH/dx = -dL/dx, fibre Hessian of H = inverse of the fibre Hessian of L.
"""

from dataclasses import dataclass
from math import isfinite, isnan, nan

import numpy as np

from .errors import NewtonDivergence, SingularLagrangian
from .expressions import float_args
from .flow import integrate_rk4
from .hamiltonian import hamilton_vector_field
from .lagrangian import _fibre_solve, el_vector_field
from .model import APoint, VStarPoint


@dataclass
class NewtonParams:
    tol: float = 1e-12
    max_iter: int = 50


def _newton(sys, x, target, z0, params):
    """Damped Newton on the fibre for dE/dz(x, z) = target, with E the
    energy function of sys, L or a parsed H, started at z0 (None: the fibre
    origin): full step, halved while the residual norm grows.  The steps
    solve with the fibre Hessian under the regularity rule.  Takes and runs
    on lists of floats over the "legendre" kernel of sys; returns z as a list
    and the kernel output at z, (E, dE/dz, W row-major) as one flat tuple."""
    n = sys.model.chart.fibre_dim
    params = params or NewtonParams()
    kernel = sys.kernel("legendre")

    def at(z):
        out = kernel(*x, *z)
        res = [g - p for g, p in zip(out[1 : 1 + n], target)]
        # the sup norm is NaN when an entry is, as np.max reads it; max()
        # alone drops a NaN that is not first: max(1.0, nan) == 1.0
        return out, res, nan if any(map(isnan, res)) else max(map(abs, res))

    z = [0.0] * n if z0 is None else z0
    out, res, norm = at(z)
    for _ in range(params.max_iter):
        if norm <= params.tol:
            return z, out
        step = _fibre_solve(out[1 + n :], res)
        lam = 1.0
        for _ in range(30):
            trial = [a - lam * b for a, b in zip(z, step)]
            tout, tres, tnorm = at(trial)
            if isfinite(tnorm) and (tnorm < norm or tnorm <= params.tol):
                z, out, res, norm = trial, tout, tres, tnorm
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                "damping stalled at residual %.3e (tol %.1e)" % (norm, params.tol)
            )
    if norm <= params.tol:
        return z, out
    raise NewtonDivergence(
        "no convergence after %d iterations, residual %.3e" % (params.max_iter, norm)
    )


def _floats(sys, x, *fibre):
    # x and fibre vectors (None stays None) as the float lists _newton takes
    names, n = sys._energy.variables, sys.model.chart.fibre_dim
    x = float_args(x, names[:-n])
    return [x] + [v if v is None else float_args(v, names[-n:]) for v in fibre]


def leg(sys, a):
    """Fibre derivative of L: (x, y) -> (x, dL/dy)."""
    return VStarPoint(a.x, sys.legendre_data(a.x, a.y)[1])


def leg_inverse(sys, v, guess=None, params=None):
    """Velocity with dL/dy(x, y) = p: the closed form for a constant W,
    otherwise damped Newton on the fibre from guess (default: the fibre
    origin) under params.  Requires a regular Lagrangian along the path;
    raises SingularLagrangian or NewtonDivergence."""
    x, p, guess = _floats(sys, v.x, v.p, guess)
    if sys.constant_hessian is not None:
        return APoint(v.x, sys.kernel("inverse")(*x, *p))
    return APoint(v.x, _newton(sys, x, p, guess, params)[0])


class InducedHamiltonian:
    """Legendre image of a Lagrangian as a live Hamiltonian: value, grad,
    fibre_hessian, motion and motion_kernel as a HamiltonianSystem has
    them, read at the velocity leg_inverse matches to p.  The Newton solve
    keeps a warm-start cache, which saves iterations along continuous
    paths.  Where Newton starts changes the matched velocity by rounding,
    within the Newton tol, so results can depend on the order of earlier
    calls at that level; the same call sequence reproduces exactly."""

    def __init__(self, lag_sys, params=None):
        self.model = lag_sys.model
        self.lag = lag_sys
        self.params = params or NewtonParams()
        self._warm = None
        self._w_inv = None

    def _match(self, x, p):
        # the velocity y with dL/dy(x, y) = p (Newton starts at the last
        # one) and the "legendre" kernel output of L there, on float lists
        if self.lag.constant_hessian is not None:
            y = list(self.lag.kernel("inverse")(*x, *p))
            return y, self.lag.kernel("legendre")(*x, *y)
        y, out = _newton(self.lag, x, p, self._warm, self.params)
        self._warm = y
        return y, out

    def value(self, x, p):
        y, out = self._match(*_floats(self.lag, x, p))
        return float(np.asarray(p, float) @ y) - out[0]

    def grad(self, x, p):
        """(dH/dx, dH/dp) = (-dL/dx, y) at the matched velocity y."""
        x, p = _floats(self.lag, x, p)
        y, _ = self._match(x, p)
        dldx = self.lag.lagrangian.value_grad(x + y)[1][: len(x)]
        return -dldx, np.array(y)

    def fibre_hessian(self, x, p):
        """W^-1 at the matched velocity, solved column by column under the
        regularity rule of the fibre solves; a constant W is solved once."""
        y, out = self._match(*_floats(self.lag, x, p))
        if self._w_inv is None or self.lag.constant_hessian is None:
            w = out[1 + len(y) :]
            self._w_inv = np.array([_fibre_solve(w, e) for e in np.eye(len(y)).tolist()]).T
        return self._w_inv.copy()

    def motion_kernel(self):
        """The motion kernel, positional over (x, p), from the trees of
        HamiltonianSystem.motion, with H = p.y - L last: the "induced"
        kernel of the Lagrangian, which for a W that varies takes the
        velocity the Newton solve matches to p as inputs after (x, p)."""
        if self.lag.constant_hessian is not None:
            return self.lag.kernel("induced")
        return self._newton_motion

    def motion(self, state):
        """The motion kernel at the state (x, p)."""
        chart = self.model.chart
        return self.motion_kernel()(*float_args(state, chart.base_names + chart.dual_names))

    def _newton_motion(self, *state):
        m = self.model.chart.dim_base
        y, _ = self._match(state[:m], state[m:])
        return self.lag.kernel("induced")(*state, *y)


def l_from_h(sys, a, section=None, guess=None, params=None):
    """Lagrangian reconstructed from a parsed HamiltonianSystem at a point
    of A.

    Runs through an auxiliary reference section (fibre components `section`,
    default zero): with p matched by dH/dp = y,
        L = p (y - section) + (-H + section p).
    The section contribution cancels identically; callers can pass different
    sections to see the same value, which is the point of keeping the
    argument.  The Newton reads H, dH/dp and the momentum Hessian from the
    "legendre" kernel of sys; its steps solve under the regularity rule of
    the fibre solves, and a Hessian that fails it raises
    NewtonDivergence("momentum Hessian singular").
    """
    n = sys.model.chart.fibre_dim
    section = np.zeros(n) if section is None else np.asarray(section, dtype=float)
    try:
        p, out = _newton(sys, *_floats(sys, a.x, a.y, guess), params)
    except SingularLagrangian:
        raise NewtonDivergence("momentum Hessian singular") from None
    p = np.array(p)
    return float(p @ (a.y - section)) + (-out[0] + float(section @ p))


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
    # the image of a state (x, y) is (x, dL/dy), one "legendre" kernel call
    kernel, n = lag.kernel("legendre"), lag.model.chart.fibre_dim
    images = [s[:m] + list(kernel(*s)[1 : 1 + n]) for s in el_traj.states.tolist()]
    return float(np.max(np.abs(np.array(images) - h_traj.states)))
