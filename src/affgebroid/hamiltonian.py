"""Hamiltonian dynamics on the dual bundle, twice: once through the
cosymplectic pair (2-form + reference covector, Reeb section), once through
the affine Poisson structure on the extended dual.  Both must produce the
same motion; tests and the check suite compare them.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import Var, compile_trees, float_args
from .flow import rate_field
from .lagrangian import _EnergySystem, _unit, _wedge, bordered_volume_det
from .model import motion_trees


class HamiltonianSystem(_EnergySystem):
    """A model with a Hamiltonian over (base, momentum) coordinates.

    Evaluation goes through value/grad/fibre_hessian/motion/motion_kernel
    so a numerically induced Hamiltonian (Legendre image of a Lagrangian)
    can drop in for a parsed one.  Its kernels are compiled as a
    LagrangianSystem's are, one per kind: "motion" and "legendre".
    """

    def __init__(self, model, hamiltonian):
        super().__init__(model, hamiltonian, "hamiltonian", model.chart.dual_names)
        self.hamiltonian = self._energy

    def _point(self, x, p):
        return np.concatenate([np.asarray(x, float), np.asarray(p, float)])

    def value(self, x, p):
        return self.hamiltonian.eval(self._point(x, p))

    def grad(self, x, p):
        """(dH/dx, dH/dp) at a point."""
        m = self.model.chart.dim_base
        _, g = self.hamiltonian.value_grad(self._point(x, p))
        return g[:m], g[m:]

    def fibre_hessian(self, x, p):
        """The momentum Hessian W_H, from the "legendre" kernel."""
        return self.legendre_data(x, p)[2]

    def motion_kernel(self):
        """The "motion" kernel, positional over (x, p): xdot, pdot, dH/dp
        and H, one flat tuple.  Its checked steps are the structure fields,
        then the value of H, then its partials."""
        return self.kernel("motion")

    def motion(self, state):
        """The "motion" kernel at the state (x, p)."""
        return self.motion_kernel()(*float_args(state, self.hamiltonian.variables))

    def _compile(self, kind):
        if kind != "motion":
            return super()._compile(kind)
        model, h = self.model, self.hamiltonian
        m = model.chart.dim_base
        grad = [h._partial(j).ast for j in range(len(h.variables))]
        steps = model.structure_steps() + [(h.ast, True)] + [(d, False) for d in grad]
        p = [Var(name) for name in h.variables[m:]]
        outputs = motion_trees(model.structure_trees(), grad[:m], grad[m:], p) + [h.ast]
        return compile_trees(outputs, h.variables, steps)


@dataclass
class CosymplecticData:
    """2-form matrix on the prolongation basis, reference covector, and the
    bordered volume determinant (nonzero iff eta wedge omega^n is a volume)."""

    omega: np.ndarray
    eta: np.ndarray
    volume: float


def omega_h(sys, point):
    """Hamiltonian 2-form at a point of the dual bundle."""
    x, p = point.x, point.p
    n = sys.model.chart.fibre_dim
    s = sys.model.structure_at(x)
    dhdx, dhdp = sys.grad(x, p)
    dim = 2 * n + 1
    omega = np.zeros((dim, dim))
    e0 = _unit(dim, 0)
    for g in range(n):
        fib = _unit(dim, 1 + g)
        vert = _unit(dim, 1 + n + g)
        omega += _wedge(fib, vert)
        omega += (float(s.rho[g] @ dhdx) - float(s.c0[g] @ p)) * _wedge(fib, e0)
        omega += dhdp[g] * _wedge(vert, e0)
        for b in range(n):
            omega += 0.5 * float(s.c[g, b] @ p) * _wedge(fib, _unit(dim, 1 + b))
    eta = e0
    return CosymplecticData(omega=omega, eta=eta, volume=bordered_volume_det(omega, eta))


def reeb_section(sys, point):
    """The unique section with eta(R) = 1 and omega contracted with R zero;
    its projection drives the motion on the dual bundle.  Components
    (1, dH/dp, pdot)."""
    m, n = sys.model.chart.dim_base, sys.model.chart.fibre_dim
    out = sys.motion(np.concatenate([point.x, point.p]))
    return np.array((1.0,) + out[m + n : m + 2 * n] + out[m : m + n])


def hamilton_vector_field(sys):
    """Autonomous field on (x, p): xdot = anchor drift along dH/dp,
    pdot = - rho dH/dx + momentum twist, with H as its energy.  Its kernel
    is the motion kernel of sys, a HamiltonianSystem or an
    InducedHamiltonian: the rate is its first outputs, H its last."""
    names = sys.model.chart.base_names + sys.model.chart.dual_names
    return rate_field(sys.motion_kernel(), names, energy_at=-1)


def poisson_data(model, x, p):
    """Affine Poisson bivector on the extended dual at a point, as a matrix
    over the coordinate order (x^1..x^m, y0, p_1..p_n).  No entry reads the
    y0 slot, so it is not an argument."""
    m = model.chart.dim_base
    n = model.chart.fibre_dim
    s = model.structure_at(x)
    p = np.asarray(p, dtype=float)
    size = m + 1 + n
    mat = np.zeros((size, size))
    for i in range(m):
        mat[m, i] = s.rho0[i]
        mat[i, m] = -s.rho0[i]
    for a in range(n):
        row = m + 1 + a
        for i in range(m):
            mat[row, i] = s.rho[a, i]
            mat[i, row] = -s.rho[a, i]
        v = float(s.c0[a] @ p)
        mat[m, row] = v
        mat[row, m] = -v
        for b in range(n):
            mat[row, m + 1 + b] = float(s.c[a, b] @ p)
    return mat


def poisson_hamiltonian_field(sys):
    """Motion on (x, p) obtained by contracting the bivector with the
    differential of the extended function -H - y0 on (x, y0, p), one
    poisson_data call per state."""
    m = sys.model.chart.dim_base

    def field(state):
        x, p = state[:m], state[m:]
        dhdx, dhdp = sys.grad(x, p)
        xvec = poisson_data(sys.model, x, p) @ np.concatenate([-dhdx, [-1.0], -dhdp])
        return np.concatenate([xvec[:m], xvec[m + 1 :]])

    return field


def cosymplectic_check_h(sys, point):
    """(sup norm of omega contracted with the Reeb section,
    |eta(Reeb) - 1|)."""
    data = omega_h(sys, point)
    r = reeb_section(sys, point)
    return float(np.max(np.abs(data.omega.T @ r))), abs(float(r @ data.eta) - 1.0)
