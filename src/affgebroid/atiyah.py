"""Reduction of principal-bundle connection data to an adapted chart.

Everything here is local.  A real Lie algebra enters through its structure
constants, the bundle through connection coefficients on a trivialising
chart whose first base coordinate is the time direction.  reduce() turns
that data into an ordinary model whose fibre stacks the spatial block
before the algebra block and whose structure functions are emitted as
expression trees, so validation and expansion treat them exactly like
hand-written ones.  The *_equations_check functions then pit the generic
engines, run by a system on that model, against the reduced equations of
motion assembled directly from curvature and bracket values (curvature()
evaluates the connection once and carries its values for that assembly);
the caller judges their max_abs gap.  Both routes take the derivatives of
the connection coefficients from the one symbolic engine (_diff, guarded
against finite differences by its own property test); apart from that they
share only the input fields, so agreement certifies the reduction table:
curvature assembly, bracket twist, fibre packing and signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import JacobiViolation
from .expressions import (
    ScalarField,
    bind_row,
    literal_value,
    rebuild,
    tree_negate,
    tree_num,
    tree_op,
    tree_sum,
)
from .hamiltonian import hamilton_vector_field
from .lagrangian import momentum_equation_rhs
from .model import AffgebroidModel, Chart


def _constants_tensor(c, r):
    """(r, r, r) array with [a, b, g] = c_ab^g, antisymmetric in (a, b).

    Accepts either the {(a, b): row} dict convention used for model bracket
    functions (1-based, a < b, antisymmetry filled in) or a full array, which
    must be exactly antisymmetric.
    """
    if isinstance(c, dict):
        cc = np.zeros((r, r, r))
        for key, row in c.items():
            a, b = key
            if not (1 <= a < b <= r):
                raise ValueError(
                    "constant keys must be pairs (a, b) with 1 <= a < b <= %d, got %r"
                    % (r, (a, b))
                )
            row = np.asarray([float(v) for v in row])
            if row.shape != (r,):
                raise ValueError("constants row %r needs %d entries" % ((a, b), r))
            cc[a - 1, b - 1] = row
            cc[b - 1, a - 1] = -row
        return cc
    cc = np.asarray(c, float)
    if cc.shape != (r, r, r):
        raise ValueError("constants must have shape %r, got %r" % ((r, r, r), cc.shape))
    if not np.array_equal(cc, -np.swapaxes(cc, 0, 1)):
        raise ValueError("constants must be antisymmetric in the lower index pair")
    return cc


def jacobi_residual(cc):
    """Max-abs residual of the constant Jacobi identity for a bracket tensor."""
    cc = np.asarray(cc, float)
    cyc = (
        np.einsum("abe,ecd->abcd", cc, cc)
        + np.einsum("bce,ead->abcd", cc, cc)
        + np.einsum("cae,ebd->abcd", cc, cc)
    )
    return float(np.abs(cyc).max()) if cyc.size else 0.0


class AtiyahSpec:
    """Connection data on a trivialising chart.

    base_names lists the base coordinates with time first, so there are
    len(base_names) - 1 spatial directions.  c holds the algebra constants
    (dict or full tensor, see _constants_tensor); the Jacobi identity is
    checked here, scaled by the cube of the largest entry.  k0 gives the r
    connection coefficients along the time direction and k one row of r per
    spatial direction, as expression strings or fields over the base.  The
    three boxes go to the adapted chart, as in Chart.
    """

    __slots__ = ("base_names", "algebra_dim", "c", "k0", "k", "chart")

    def __init__(
        self,
        base_names,
        algebra_dim,
        c,
        k0,
        k,
        base_box=None,
        fibre_box=None,
        dual_box=None,
        jacobi_tol=1e-9,
    ):
        self.base_names = tuple(base_names)
        r = int(algebra_dim)
        if r < 1:
            raise ValueError("algebra_dim must be positive")
        self.algebra_dim = r
        self.c = _constants_tensor(c, r)
        scale = max(1.0, float(np.abs(self.c).max())) ** 3
        res = jacobi_residual(self.c)
        if res > jacobi_tol * scale:
            raise JacobiViolation(
                "structure constants break the Jacobi identity, residual %.3e" % res
            )
        m = len(self.base_names) - 1
        self.k0 = bind_row(k0, r, self.base_names, "k0")
        k = list(k)
        if len(k) != m:
            raise ValueError("k needs one row per spatial direction: %d, got %d" % (m, len(k)))
        self.k = tuple(
            bind_row(row, r, self.base_names, "k[%d]" % (i + 1)) for i, row in enumerate(k)
        )
        self.chart = Chart(
            self.base_names, m + r, base_box=base_box, fibre_box=fibre_box, dual_box=dual_box
        )

    @property
    def spatial_dim(self):
        return len(self.base_names) - 1


@dataclass
class CurvatureData:
    """Curvature values at a base point: b0i[i - 1, c - 1] pairs the time
    direction with the i-th spatial one, bij is antisymmetric in its first
    two (spatial) slots.  k0 (r,) and k (m, r) are the connection
    coefficients there, which the curvature is assembled from."""

    b0i: np.ndarray
    bij: np.ndarray
    k0: np.ndarray
    k: np.ndarray


def curvature(spec, x):
    """Curvature of the connection at a base point, assembled from values
    and gradients of the connection coefficients.

    The gradients come from the same _diff as the trees reduce() emits; the
    assembly (which derivative pairs with which, the bracket term, signs) is
    written independently of _curvature_trees, and the checks below rely on
    that split.
    """
    x = np.asarray(x, float)
    m, r = spec.spatial_dim, spec.algebra_dim
    cc = spec.c
    k0_val = np.empty(r)
    k0_grad = np.empty((r, m + 1))
    for a, f in enumerate(spec.k0):
        k0_val[a], k0_grad[a] = f.value_grad(x)
    ki_val = np.empty((m, r))
    ki_grad = np.empty((m, r, m + 1))
    for i, row in enumerate(spec.k):
        for a, f in enumerate(row):
            ki_val[i, a], ki_grad[i, a] = f.value_grad(x)
    b0i = np.empty((m, r))
    for i in range(m):
        b0i[i] = (
            ki_grad[i, :, 0]
            - k0_grad[:, 1 + i]
            - np.einsum("a,b,abc->c", k0_val, ki_val[i], cc)
        )
    bij = np.zeros((m, m, r))
    for i in range(m):
        for j in range(i + 1, m):
            row = (
                ki_grad[j, :, 1 + i]
                - ki_grad[i, :, 1 + j]
                - np.einsum("a,b,abc->c", ki_val[i], ki_val[j], cc)
            )
            bij[i, j] = row
            bij[j, i] = -row
    return CurvatureData(b0i, bij, k0_val, ki_val)


def _bracket_node(cc, left, right, g):
    # sum over (a, b) of c_ab^g * left^a * right^b as a tree
    return tree_sum(
        tree_op("*", tree_num(float(cc[a, b, g])), tree_op("*", left[a], right[b]))
        for a in range(len(left))
        for b in range(len(right))
        if cc[a, b, g] != 0.0
    )


def _linear_node(cc, a, g, trees):
    # sum over b of c_ab^g * trees^b
    return tree_sum(
        tree_op("*", tree_num(float(cc[a, b, g])), t) for b, t in enumerate(trees) if cc[a, b, g] != 0.0
    )


def _curvature_trees(spec, k0, k):
    """Symbolic counterpart of curvature(): the trees of b0i and bij over the
    base, from the connection coefficients rebuilt as k0 and k."""
    m, r = spec.spatial_dim, spec.algebra_dim

    def entry(d1, d2, left, right, g):
        # d1 - d2 - bracket(left, right)^g, from two partials
        return tree_op("-", tree_op("-", d1.ast, d2.ast), _bracket_node(spec.c, left, right, g))

    b0i = [
        [entry(spec.k[i][g]._partial(0), spec.k0[g]._partial(1 + i), k0, k[i], g) for g in range(r)]
        for i in range(m)
    ]
    bij = {
        (i, j): [
            entry(spec.k[j][g]._partial(1 + i), spec.k[i][g]._partial(1 + j), k[i], k[j], g)
            for g in range(r)
        ]
        for i in range(m)
        for j in range(i + 1, m)
    }
    return b0i, bij


def _bracket_row(m, trees, names):
    # spatial targets empty, algebra targets the trees, a literal 0 as "0"
    return ["0"] * m + ["0" if literal_value(t) == 0.0 else ScalarField(t, names) for t in trees]


def reduce(spec):
    """Adapted-chart model of the quotient structure.

    Fibre packing is fixed: spatial block first (indices 1..m), algebra
    block second (m+1..m+r).  The reference element is anchored to the time
    direction, spatial elements to their coordinate directions, algebra
    elements to nothing; the bracket functions combine the curvature, the
    connection twisted by the algebra bracket, and the constants themselves.
    """
    m, r = spec.spatial_dim, spec.algebra_dim
    names = spec.base_names
    cc = spec.c
    k0 = [rebuild(f.ast) for f in spec.k0]
    k = [[rebuild(f.ast) for f in row] for row in spec.k]
    b0i, bij = _curvature_trees(spec, k0, k)

    rho0 = ["1"] + ["0"] * m
    rho = []
    for j in range(m):
        row = ["0"] * (m + 1)
        row[1 + j] = "1"
        rho.append(row)
    for _ in range(r):
        rho.append(["0"] * (m + 1))

    c0 = [_bracket_row(m, [tree_negate(t) for t in b0i[j]], names) for j in range(m)]
    c0 += [_bracket_row(m, [_linear_node(cc, a, g, k0) for g in range(r)], names) for a in range(r)]

    rows = {}
    for (i, j), trees in bij.items():
        rows[(i + 1, j + 1)] = _bracket_row(m, [tree_negate(t) for t in trees], names)
    for i in range(m):
        for a in range(r):
            rows[(i + 1, m + a + 1)] = _bracket_row(
                m, [_linear_node(cc, a, g, k[i]) for g in range(r)], names
            )
    cdict = {key: row for key, row in rows.items() if any(isinstance(e, ScalarField) for e in row)}
    for a in range(r):
        for b in range(a + 1, r):
            if np.any(cc[a, b] != 0.0):
                cdict[(m + a + 1, m + b + 1)] = [0.0] * m + [float(v) for v in cc[a, b]]

    return AffgebroidModel(spec.chart, rho0, rho, c0=c0, c=cdict)


@dataclass
class EquationCheck:
    """Two independent RHS assemblies of the same equations of motion."""

    generic: np.ndarray
    printed: np.ndarray

    @property
    def max_abs(self):
        return float(np.abs(self.generic - self.printed).max())


def lp_equations_check(spec, sys, point):
    """Momentum-equation RHS of sys, a LagrangianSystem on the reduction of
    spec, against the reduced display.

    The generic route reads the model's structure functions; the display is
    assembled from curvature() and the connection values it carries, the raw
    constants and the derivatives of sys.lagrangian.  Spatial components:
    dl/dx^i minus the algebra momenta contracted with
    B_0i + B_ji xdot^j + bracket(K_i, vbar).
    Algebra components: the momenta transported by
    bracket(., K_0 + K_j xdot^j - vbar).
    """
    if sys.model.chart is not spec.chart:
        raise ValueError("sys is not built on the reduction of spec: its chart is not spec.chart")
    x = np.asarray(point.x, float)
    y = np.asarray(point.y, float)
    generic = momentum_equation_rhs(sys, x, y)

    m, r = spec.spatial_dim, spec.algebra_dim
    cc = spec.c
    _, grad = sys.lagrangian.value_grad(np.concatenate([x, y]))
    dldx = grad[1 : m + 1]
    dldy = grad[m + 1 :]
    pbar = dldy[m:]
    xdot, vbar = y[:m], y[m:]
    cur = curvature(spec, x)
    printed = np.empty(m + r)
    for i in range(m):
        brack = (
            cur.b0i[i]
            + xdot @ cur.bij[:, i, :]
            + np.einsum("dcb,c,d->b", cc, cur.k[i], vbar)
        )
        printed[i] = dldx[i] - pbar @ brack
    inner = (
        np.einsum("acb,c->ab", cc, cur.k0)
        + np.einsum("acb,jc,j->ab", cc, cur.k, xdot)
        - np.einsum("adb,d->ab", cc, vbar)
    )
    printed[m:] = inner @ pbar
    return EquationCheck(generic, printed)


def hp_equations_check(spec, sys, point):
    """Hamilton field of sys, a HamiltonianSystem on the reduction of spec,
    against the reduced display, which reads the derivatives of
    sys.hamiltonian.

    Base clock runs at unit rate, spatial positions follow dH/dp.  Spatial
    momenta feel -dH/dx minus the algebra momenta contracted with curvature
    and connection terms; algebra momenta are transported by the bracket.
    """
    if sys.model.chart is not spec.chart:
        raise ValueError("sys is not built on the reduction of spec: its chart is not spec.chart")
    x = np.asarray(point.x, float)
    p = np.asarray(point.p, float)
    generic = hamilton_vector_field(sys)(np.concatenate([x, p]))

    m, r = spec.spatial_dim, spec.algebra_dim
    cc = spec.c
    _, grad = sys.hamiltonian.value_grad(np.concatenate([x, p]))
    dhdx = grad[1 : m + 1]
    dhdp = grad[m + 1 :]
    dp_sp, dp_alg = dhdp[:m], dhdp[m:]
    pbar = p[m:]
    cur = curvature(spec, x)
    printed = np.empty(1 + m + m + r)
    printed[0] = 1.0
    printed[1 : 1 + m] = dp_sp
    for i in range(m):
        brack = (
            cur.b0i[i]
            + dp_sp @ cur.bij[:, i, :]
            + np.einsum("acb,c,a->b", cc, cur.k[i], dp_alg)
        )
        printed[1 + m + i] = -dhdx[i] - pbar @ brack
    inner = (
        np.einsum("abc,b->ac", cc, cur.k0)
        + np.einsum("abc,kb,k->ac", cc, cur.k, dp_sp)
        - np.einsum("abc,b->ac", cc, dp_alg)
    )
    printed[1 + m + m :] = inner @ pbar
    return EquationCheck(generic, printed)


SO3_CONSTANTS = {(1, 2): (0.0, 0.0, 1.0), (2, 3): (1.0, 0.0, 0.0), (1, 3): (0.0, -1.0, 0.0)}

HEISENBERG_CONSTANTS = {(1, 2): (0.0, 0.0, 1.0)}

SL2_CONSTANTS = {(1, 2): (0.0, 2.0, 0.0), (1, 3): (0.0, 0.0, -2.0), (2, 3): (1.0, 0.0, 0.0)}


def flat_spec(m=1, r=1):
    """Zero connection over an abelian algebra: every bracket entry vanishes."""
    base = ("t",) + tuple("x%d" % (i + 1) for i in range(m))
    box = [(0.0, 2.0)] + [(-1.0, 1.0)] * m
    return AtiyahSpec(
        base,
        r,
        np.zeros((r, r, r)),
        ["0"] * r,
        [["0"] * r for _ in range(m)],
        base_box=box,
    )


def magnetic_spec():
    """One spatial direction, one abelian charge, field strength equal to x1."""
    return AtiyahSpec(
        ("t", "x1"),
        1,
        np.zeros((1, 1, 1)),
        ["0"],
        [["x1*t"]],
        base_box=[(0.0, 2.0), (-1.0, 1.0)],
    )


def so3_spec():
    """Rotation-algebra connection with every coupling term active: the time
    coefficient bends with x1, the spatial one with t, so curvature, the
    twisted transport and the constant block all show up in the reduction."""
    return AtiyahSpec(
        ("t", "x1"),
        3,
        SO3_CONSTANTS,
        ["0", "0", "x1"],
        [["t", "0", "0"]],
        base_box=[(0.0, 2.0), (-1.0, 1.0)],
    )


def conjugate_constants(cc, t):
    """Transport of a bracket tensor by a change of basis of the algebra.

    The result is the same algebra written in the frame t maps onto, so the
    Jacobi identity survives up to rounding; antisymmetry is restored exactly
    from the upper triangle.
    """
    cc = np.asarray(cc, float)
    t = np.asarray(t, float)
    tinv = np.linalg.inv(t)
    out = np.einsum("ap,bq,pqr,rc->abc", t, t, cc, tinv)
    r = out.shape[0]
    for a in range(r):
        out[a, a] = 0.0
        for b in range(a + 1, r):
            out[b, a] = -out[a, b]
    return out


_ALGEBRAS = {
    "so3": (3, SO3_CONSTANTS),
    "heisenberg": (3, HEISENBERG_CONSTANTS),
    "sl2": (3, SL2_CONSTANTS),
    "abelian": (2, {}),
}


def random_spec(rng, m=2, algebra="so3", conjugate=True):
    """Random reduction input with affine connection coefficients.

    Degree-one coefficients keep every reduced structure function polynomial
    of degree at most two, so this is a cheap generator of x-dependent models
    that pass validation by construction.  The algebra constants are drawn
    from a named algebra, optionally pushed through a random change of basis.
    """
    if algebra not in _ALGEBRAS:
        raise ValueError("unknown algebra %r, have %s" % (algebra, sorted(_ALGEBRAS)))
    r, consts = _ALGEBRAS[algebra]
    cc = _constants_tensor(consts, r)
    if conjugate:
        while True:
            t = np.eye(r) + 0.4 * rng.uniform(-1.0, 1.0, size=(r, r))
            if abs(np.linalg.det(t)) > 0.2:
                break
        cc = conjugate_constants(cc, t)
    base = ("t",) + tuple("x%d" % (i + 1) for i in range(m))

    def affine():
        coef = rng.uniform(-1.0, 1.0, size=m + 2)
        parts = [repr(float(coef[0]))]
        for name, cv in zip(base, coef[1:]):
            parts.append("%r*%s" % (float(cv), name))
        return " + ".join(parts)

    k0 = [affine() for _ in range(r)]
    k = [[affine() for _ in range(r)] for _ in range(m)]
    return AtiyahSpec(base, r, cc, k0, k)
