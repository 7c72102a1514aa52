"""Lagrangian dynamics: Cartan forms, the dynamics section, regularity.

Prolongation vectors and covectors use the fixed basis order
(reference direction, n fibre directions, n vertical directions); index 0 is
the reference slot, 1..n the fibre block, n+1..2n the vertical block.

A system evaluates L through compiled kernels, see _EnergySystem.kernel.
The "el" kernel returns the base velocity, the right side r of W xi = r,
the fibre Hessian W, the momentum-equation right side and, last, L, which
it evaluates anyway as a checked step; it builds the momentum equation with
model.motion_trees, the builder of the Hamilton motion.  The "legendre"
kernel returns L, dL/dy and W for the Legendre map and the energy.  When W
depends on the point, a generated LU solves for xi on every call and the
Legendre inverse runs a Newton, whose velocity the "induced" kernel of the
Legendre image takes as inputs.  When the W trees fold to literals and W is
regular (constant_hessian), solve_trees factors W once, as the kernels
compile: the "el" kernel also returns xi, before L, the Legendre inverse
gets a kernel of its own, and the "induced" kernel reads the velocity from
its trees.  A HamiltonianSystem compiles its "legendre" kernel (H, dH/dp,
W_H) with the same builder.  The regularity rule is the LU's: W is regular
when its 1-norm condition number ||W||_1 ||W^-1||_1 is below 1e12.  Only
cartan_data, the independent route the cosymplectic check compares
against, assembles the pieces in numpy from derivs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularLagrangian
from .expressions import Bin, Num, Var, compile_trees, float_args, literal_value, parse
from .expressions import rebuild, tree_negate, tree_num, tree_op, tree_sum
from .flow import rate_field
from .model import motion_trees


class _EnergySystem:
    """A model with an energy function over (base, fibre) coordinates, L
    over (x, y) or H over (x, p), and the fused kernels over them."""

    def __init__(self, model, source, what, fibre_names):
        if not isinstance(source, str):
            raise TypeError("%s must be a source string" % what)
        self.model = model
        self._energy = parse(source, model.chart.base_names + fibre_names)
        # compiled on first use, one per kind, see kernel
        self._kernels = {}

    def kernel(self, kind):
        """A fused kernel, compiled on first use, returning one flat tuple.
        Over (base, fibre) values, kind "legendre" returns the energy E,
        dE/dfibre and its fibre Hessian W row-major; "el" (L only) the base
        velocity vel, r = rhs - vel d2L/dxdy, W, the momentum-equation right
        side rhs, for a constant W xi, and last L; "motion" (H only) xdot,
        pdot, dH/dp and last H.  "induced" is the "motion" of the image of
        L, with H = p.y - L last, over (x, p) for a constant W and over
        (x, p, y), y the velocity matched to p, otherwise; "inverse", for a
        constant W, the y with dL/dy(x, y) = p over (x, p)."""
        k = self._kernels.get(kind)
        if k is None:
            k = self._kernels[kind] = self._compile(kind)
        return k

    def _compile(self, kind):
        # "legendre", "el" and the closed forms; the checked steps run as
        # the separate evaluations ran them: the structure fields (for "el"
        # and "induced"), the value of the energy function, then its
        # partials in the order eval_dual2 evaluates them
        model, f = self.model, self._energy
        m, n = model.chart.dim_base, model.chart.fibre_dim
        grad = [f._partial(j) for j in range(m + n)]

        def hess(r, s):
            return grad[min(r, s)]._partial(max(r, s)).ast

        w = [[hess(m + a, m + b) for b in range(n)] for a in range(n)]
        upper = [w[a][b] for a in range(n) for b in range(a, n)]
        w_flat = [t for row in w for t in row]
        dldy = [d.ast for d in grad[m:]]
        if kind == "legendre":
            steps = [(f.ast, True)] + [(t, False) for t in dldy + upper]
            return compile_trees([f.ast] + dldy + w_flat, f.variables, steps)
        if kind in ("inverse", "induced"):
            # y = W^-1 (p - dL/dy(x, 0)) for a constant W, else the velocity
            # a Newton matched to p, taken as the inputs after (x, p); at y,
            # dH/dx = -dL/dx and dH/dp = y
            names = model.chart.base_names + model.chart.dual_names
            p = [Var(name) for name in names[m:]]
            if self.constant_hessian is None:
                names += f.variables[m:]
                y = [Var(name) for name in f.variables[m:]]
            else:
                origin = {name: Num(0.0) for name in f.variables[m:]}
                g = [tree_op("-", pa, rebuild(d, origin)) for pa, d in zip(p, dldy)]
                y = solve_trees(self.constant_hessian, g)
            if kind == "inverse":
                return compile_trees(y, names)
            at_y = dict(zip(f.variables[m:], y))
            dhdx = [tree_negate(rebuild(d.ast, at_y)) for d in grad[:m]]
            lval = rebuild(f.ast, at_y)
            outputs = motion_trees(model.structure_trees(), dhdx, y, p) + [_dual_value(p, y, lval)]
            return compile_trees(outputs, names, model.structure_steps() + [(lval, True)])
        d2xy = [[hess(i, m + a) for a in range(n)] for i in range(m)]
        partials = [d.ast for d in grad] + [t for row in d2xy for t in row] + upper
        steps = model.structure_steps() + [(f.ast, True)] + [(t, False) for t in partials]
        # the momentum equation is the Hamilton pdot at dH/dx = -dL/dx,
        # dH/dp = y and p = dL/dy
        y = [Var(name) for name in f.variables[m:]]
        dhdx = [tree_negate(d.ast) for d in grad[:m]]
        motion = motion_trees(model.structure_trees(), dhdx, y, dldy)
        vel, rhs = motion[:m], motion[m : m + n]
        drift = [tree_sum(tree_op("*", vel[i], d2xy[i][a]) for i in range(m)) for a in range(n)]
        r = [tree_sum([rhs[a], tree_negate(drift[a])]) for a in range(n)]
        xi = [] if self.constant_hessian is None else solve_trees(self.constant_hessian, r)
        return compile_trees(vel + r + w_flat + rhs + xi + [f.ast], f.variables, steps)

    def evaluate(self, kind, x, y):
        """The kernel of that kind at (x, y)."""
        return self.kernel(kind)(*float_args(list(x) + list(y), self._energy.variables))

    def legendre_data(self, x, y):
        """The energy function, its fibre gradient and its fibre Hessian W
        at (x, y), from the "legendre" kernel: L, dL/dy and W for a
        Lagrangian, H, dH/dp and W_H for a Hamiltonian."""
        n = self.model.chart.fibre_dim
        out = self.evaluate("legendre", x, y)
        return out[0], np.array(out[1 : 1 + n]), np.reshape(out[1 + n :], (n, n))


class LagrangianSystem(_EnergySystem):
    """A model together with a Lagrangian over (base, velocity) coordinates."""

    def __init__(self, model, lagrangian):
        super().__init__(model, lagrangian, "lagrangian", model.chart.fibre_names)
        self.lagrangian = self._energy

    @functools.cached_property
    def constant_hessian(self):
        """W as n*n floats row-major when its trees fold to literals and it
        passes the regularity rule, else None.  Read on first kernel use."""
        m, n = self.model.chart.dim_base, self.model.chart.fibre_dim
        f = self.lagrangian
        w = [literal_value(f._partial(m + min(a, b))._partial(m + max(a, b)).ast)
             for a in range(n) for b in range(n)]
        return None if None in w or not regularity(np.reshape(w, (n, n)))[0] else w

    def derivs(self, x, y):
        """Value, base gradient, fibre gradient, mixed block and fibre Hessian
        of L at (x, y)."""
        m = self.model.chart.dim_base
        point = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
        d = self.lagrangian.eval_dual2(point)
        return d.val, d.grad[:m], d.grad[m:], d.hess[:m, m:], d.hess[m:, m:]


# ---------------------------------------------------------------------------
# the fibre solve and the regularity rule
#
# One LU with partial pivoting per fibre dimension n, generated as
# straight-line Python and kept (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 9).  Besides xi it returns the exact 1-norm condition
# number ||W||_1 ||W^-1||_1 (ch. 15): the columns of (LU)^-1 come from n unit
# solves, and since the row permutation only permutes the columns of W^-1,
# their largest absolute column sum is ||W^-1||_1.  The 1-norm condition lies
# within a factor n of the 2-norm one and, like it, does not change when L
# is scaled.

COND_LIMIT = 1e12


@functools.lru_cache(maxsize=None)
def fibre_lu(n):
    """The LU solve for n x n systems, f(w, b) -> (xi, cond), with w the n*n
    entries of W row-major and b the right side, both sequences of floats.
    xi is a tuple; a W with a non-finite entry or an exactly zero pivot gives
    (None, inf), and a non-finite condition number is reported as inf."""
    a = [["a%d_%d" % (i, j) for j in range(n)] for i in range(n)]
    b = ["b%d" % i for i in range(n)]
    cols = ["s%d" % j for j in range(n)]
    lines = ["%s, = w" % ", ".join(e for row in a for e in row), "%s, = b" % ", ".join(b)]
    for j in range(n):
        lines.append("s%d = %s" % (j, " + ".join("abs(%s)" % a[i][j] for i in range(n))))
    lines.append("if not _isfinite(%s): return None, inf" % " + ".join(cols))
    lines.append("norm = max(%s)" % ", ".join(cols) if n > 1 else "norm = s0")
    for k in range(n):
        # the row of the largest pivot candidate swaps in whole, with the
        # multipliers already stored left of column k and its entry of b
        lines.append("big = abs(%s)" % a[k][k])
        if k < n - 1:
            lines.append("p = %d" % k)
            for i in range(k + 1, n):
                lines.append("t = abs(%s)" % a[i][k])
                lines.append("if t > big: p, big = %d, t" % i)
        lines.append("if big == 0.0: return None, inf")
        for i in range(k + 1, n):
            rk, ri = a[k] + [b[k]], a[i] + [b[i]]
            lines.append(
                "%sif p == %d: %s = %s"
                % ("el" if i > k + 1 else "", i, ", ".join(rk + ri), ", ".join(ri + rk))
            )
        for i in range(k + 1, n):
            lines.append("%s = %s / %s" % (a[i][k], a[i][k], a[k][k]))
            for j in range(k + 1, n):
                lines.append("%s = %s - %s * %s" % (a[i][j], a[i][j], a[i][k], a[k][j]))
            lines.append("%s = %s - %s * %s" % (b[i], b[i], a[i][k], b[k]))
    for i in reversed(range(n)):
        subs = "".join(" - %s * x%d" % (a[i][j], j) for j in reversed(range(i + 1, n)))
        lines.append("x%d = (%s%s) / %s" % (i, b[i], subs, a[i][i]))
    # L^-1 below its unit diagonal, then (LU)^-1 = U^-1 L^-1 column by column
    for j in range(n):
        for i in range(j + 1, n):
            subs = "".join(" - %s * y%d_%d" % (a[i][k], k, j) for k in range(j + 1, i))
            lines.append("y%d_%d = -%s%s" % (i, j, a[i][j], subs))
    for j in range(n):
        for i in reversed(range(n)):
            unit = "y%d_%d" % (i, j) if i > j else ("1.0" if i == j else "0.0")
            subs = "".join(" - %s * z%d_%d" % (a[i][k], k, j) for k in reversed(range(i + 1, n)))
            lines.append("z%d_%d = (%s%s) / %s" % (i, j, unit, subs, a[i][i]))
    inv = ["%s" % " + ".join("abs(z%d_%d)" % (i, j) for i in range(n)) for j in range(n)]
    lines.append("cond = norm * %s" % ("max(%s)" % ", ".join(inv) if n > 1 else inv[0]))
    lines.append("if not cond < inf: cond = inf")
    lines.append("return (%s), cond" % "".join("x%d, " % i for i in range(n)))
    # the builtins and constants are default arguments, read as locals
    source = "def lu(w, b, abs=abs, max=max, _isfinite=_isfinite, inf=inf):\n%s\n" % "\n".join(
        "    " + ln for ln in lines
    )
    namespace = {"_isfinite": math.isfinite, "inf": math.inf}
    exec(compile(source, "<lu%d>" % n, "exec"), namespace)
    return namespace.pop("lu")


def solve_trees(w, b):
    """The trees of xi with W xi = b, for a regular W given as its n*n
    floats row-major and b a list of n trees: fibre_lu(n)'s elimination,
    with its pivot rule and order of operations, run once.  Its pivots,
    multipliers and U are floats; the operations on b stay trees, and none
    is dropped, so a kernel of them gives fibre_lu's xi bit for bit."""
    n = len(b)
    a = [list(w[i * n : (i + 1) * n]) for i in range(n)]
    b = list(b)

    def op(o, s, t):
        # only literals fold: dropping a zero term can flip the sign of a zero
        literals = literal_value(s) is not None and literal_value(t) is not None
        return tree_op(o, s, t) if literals else Bin(o, s, t)

    for k in range(n):
        # the largest candidate, the first row on ties, as fibre_lu's strict >
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        for i in range(k + 1, n):
            a[i][k] = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - a[i][k] * a[k][j]
            b[i] = op("-", b[i], op("*", tree_num(a[i][k]), b[k]))
    for i in reversed(range(n)):
        for j in reversed(range(i + 1, n)):
            b[i] = op("-", b[i], op("*", tree_num(a[i][j]), b[j]))
        b[i] = op("/", b[i], tree_num(a[i][i]))
    return b


def _dual_value(p, y, lval):
    # the tree of H = p.y - L, the sum left to right
    return tree_op("-", tree_sum(tree_op("*", pa, ya) for pa, ya in zip(p, y)), lval)


def _fibre_solve(w, b):
    # xi from the flat W and b, refused when W is singular under the rule
    xi, cond = fibre_lu(len(b))(w, b)
    if not cond < COND_LIMIT:
        raise SingularLagrangian("fibre Hessian singular: condition number %.3e" % cond)
    return xi


def regularity(w):
    """The regularity rule that every fibre solve applies: W is regular when its 1-norm condition number is below 1e12, which
    rescaling L leaves unchanged.  Returns (flag, condition number); a W
    with a non-finite entry counts as singular."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    _, cond = fibre_lu(n)(w.ravel().tolist(), [0.0] * n)
    return cond < COND_LIMIT, cond


def solve_fibre_hessian(w, rhs):
    """Linear solve with the fibre Hessian, refused with SingularLagrangian
    when W is singular under the regularity rule."""
    w = np.asarray(w, dtype=float)
    return np.array(_fibre_solve(w.ravel().tolist(), np.asarray(rhs, dtype=float).tolist()))


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
    m, n = sys.model.chart.dim_base, sys.model.chart.fibre_dim
    return np.array(sys.evaluate("el", x, y)[m + n + n * n : m + 2 * n + n * n])


def cartan_data(sys, point, xi0=None):
    """Cartan forms at a point of A.

    xi0 is the acceleration part of an arbitrary reference section used in the
    vertical covectors; the assembled 2-form does not depend on it (the
    dependence cancels against the symmetric Hessian), which tests check by
    assembling with several choices.
    """
    x, y = point.x, point.y
    n = sys.model.chart.fibre_dim
    s = sys.model.structure_at(x)
    lval, dldx, dldy, d2xy, w = sys.derivs(x, y)
    vel = s.rho0 + y @ s.rho
    coupling = s.c0 + np.einsum("b,bag->ag", y, s.c)
    rhs = s.rho @ dldx + coupling @ dldy
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


def el_section(sys, point):
    """Dynamics section at a point: components (1, y^a, xi^a) on the
    prolongation basis.  Requires a regular Lagrangian."""
    ydot = el_vector_field(sys)(np.concatenate([point.x, point.y]))
    return np.concatenate([[1.0], point.y, ydot[sys.model.chart.dim_base :]])


def el_vector_field(sys):
    """Autonomous field on (x, y) space integrating the dynamics:
    xdot = anchor drift, ydot = xi from the momentum equation, with L as
    its energy.  For a constant W its kernel is the "el" kernel itself, the
    rate read from vel and xi; otherwise the "el" kernel followed by the LU
    solve, returning vel, xi and L."""
    m, n = sys.model.chart.dim_base, sys.model.chart.fibre_dim
    kernel, w_end = sys.kernel("el"), m + n + n * n
    names = sys.lagrangian.variables
    if sys.constant_hessian is not None:
        positions = list(range(m)) + list(range(w_end + n, w_end + 2 * n))
        return rate_field(kernel, names, positions, energy_at=-1)

    def solved(*state):
        out = kernel(*state)
        return out[:m] + _fibre_solve(out[m + n : w_end], out[m : m + n]) + out[-1:]

    return rate_field(solved, names, energy_at=-1)


def energy(sys, point):
    """y^a dL/dy^a - L, the energy-like function conserved when nothing in
    the model depends on the reference base coordinate."""
    lval, dldy, _ = sys.legendre_data(point.x, point.y)
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
