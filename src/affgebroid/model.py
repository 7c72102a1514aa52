"""Charts, point containers, and the structure-function model.

A model is a chart (base coordinates x^i plus an n-dimensional fibre) together
with the local structure functions of an affine bundle A inside its bidual:
anchors rho_0, rho_alpha over the base, and bracket coefficients C_0a^g,
C_ab^g.  The distinguished index 0 refers to the affine reference direction
e_0; its bracket target component is structurally zero (C_I J^0 = 0), which
the storage layout enforces rather than checks.

The structure has one layout, the flat order of structure_values: rho0,
rho, c0, then c with both halves (C_ba^g = -C_ab^g, zero diagonal), each
row-major.  structure_grad_values gives the m partials of each of those
entries in turn.  One splitter turns either, or their trees, into
StructureValues arrays.  The kernels of the systems compile the trees of
structure_trees in with their own terms, so no kernel takes the structure
values as inputs.  Only the residual kernel of validate_structure lays them
out over the indices 0..n; it is compiled on first use and kept on the
model, like the kernels of the structure values.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import prod

import numpy as np

from .errors import DomainError
from .expressions import (
    Neg,
    Num,
    bind_row,
    compile_trees,
    constant_field,
    float_args,
    literal_value,
    tree_negate,
    tree_op,
    tree_sum,
)


class Chart:
    """Coordinate box data: named base coordinates and an n-dim fibre.

    Velocity coordinates are y1..yn, momentum coordinates p1..pn.  Each
    coordinate carries an interval; sampling helpers draw uniformly from the
    boxes so tests and the CLI stay inside the declared domain.
    """

    __slots__ = ("base_names", "fibre_dim", "base_box", "fibre_box", "dual_box", "_bounds")

    def __init__(self, base_names, fibre_dim, base_box=None, fibre_box=None, dual_box=None):
        self.base_names = tuple(base_names)
        self.fibre_dim = int(fibre_dim)
        m, n = len(self.base_names), self.fibre_dim
        if m < 1:
            raise ValueError("need at least one base coordinate")
        if n < 1:
            raise ValueError("fibre dimension must be positive")
        if len(set(self.base_names)) != m:
            raise ValueError("duplicate base coordinate names")
        for name in self.base_names:
            if not name.isidentifier():
                raise ValueError("bad coordinate name %r" % name)
            if name in self.fibre_names + self.dual_names:
                raise ValueError(
                    "base coordinate %r is named like a fibre or momentum coordinate" % name
                )
        self.base_box = self._check_box(base_box, m, "base")
        self.fibre_box = self._check_box(fibre_box, n, "fibre")
        self.dual_box = self._check_box(dual_box, n, "dual") if dual_box is not None else self.fibre_box
        self._bounds = {}  # box -> its lower ends and widths, from its first draw

    @staticmethod
    def _check_box(box, k, what):
        if box is None:
            return tuple((-1.0, 1.0) for _ in range(k))
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != k:
            raise ValueError("%s box needs %d intervals, got %d" % (what, k, len(box)))
        for lo, hi in box:
            if not lo < hi:
                raise ValueError("empty %s interval [%r, %r]" % (what, lo, hi))
        return box

    @property
    def dim_base(self):
        return len(self.base_names)

    @property
    def fibre_names(self):
        return tuple("y%d" % (a + 1) for a in range(self.fibre_dim))

    @property
    def dual_names(self):
        return tuple("p%d" % (a + 1) for a in range(self.fibre_dim))

    def _draw(self, rng, box, k=None):
        # a point, or k rows of them, from one call: lo + (hi - lo) u is
        # rng.uniform(lo, hi) at the double u, so the floats and the generator
        # state are those of scalar draws in row-major order
        if box not in self._bounds:
            lo, hi = np.array(box).T
            self._bounds[box] = lo, hi - lo
        lo, span = self._bounds[box]
        return lo + span * rng.random(len(box) if k is None else (k, len(box)))

    def sample_base(self, rng):
        return self._draw(rng, self.base_box)

    def sample_a(self, rng):
        return APoint(self._draw(rng, self.base_box), self._draw(rng, self.fibre_box))

    def sample_vstar(self, rng):
        return VStarPoint(self._draw(rng, self.base_box), self._draw(rng, self.dual_box))

    def sample_jet(self, rng):
        return JetPoint(
            self._draw(rng, self.base_box),
            self._draw(rng, self.fibre_box),
            self._draw(rng, self.fibre_box),
            self._draw(rng, self.fibre_box),
        )

    def sample_phase(self, rng):
        return PhasePoint(
            self._draw(rng, self.base_box),
            self._draw(rng, self.dual_box),
            self._draw(rng, self.fibre_box),
            self._draw(rng, self.dual_box),
        )


class _Point:
    """Named coordinate blocks, one per slot, each stored as a flat float
    array; positional construction follows the slot order."""

    __slots__ = ()

    def __init__(self, *blocks):
        if len(blocks) != len(self.__slots__):
            raise TypeError(
                "%s takes %d coordinate blocks, got %d"
                % (type(self).__name__, len(self.__slots__), len(blocks))
            )
        for name, v in zip(self.__slots__, blocks):
            setattr(self, name, np.array(v, dtype=float).reshape(-1))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join(str(getattr(self, name).tolist()) for name in self.__slots__),
        )


class APoint(_Point):
    """Point of the affine bundle: base x, velocity fibre y^a."""

    __slots__ = ("x", "y")


class VStarPoint(_Point):
    """Point of the dual bundle: base x, momenta p_a."""

    __slots__ = ("x", "p")


class JetPoint(_Point):
    """Velocity-side double point (x, y; z, v): a point of A with a second
    fibre pair attached (prolongation coordinates)."""

    __slots__ = ("x", "y", "z", "v")


class PhasePoint(_Point):
    """Momentum-side double point (x, p; z, w): base x, momenta p_a, velocity
    slot z^a, covelocity slot w_a."""

    __slots__ = ("x", "p", "z", "w")


@dataclass
class StructureValues:
    """Structure functions, or their gradients, at one base point."""

    rho0: np.ndarray  # (m,)
    rho: np.ndarray   # (n, m), row a = anchor of e_a
    c0: np.ndarray    # (n, n), [a, g] = C_0a^g
    c: np.ndarray     # (n, n, n), [a, b, g] = C_ab^g, antisymmetric in a, b


class AffgebroidModel:
    """Structure functions over a chart.

    rho0: m expressions over the base; rho: n rows of m; c0: n x n (row a,
    column g is C_0a^g); c: dict {(a, b): n expressions} for 1 <= a < b <= n.
    Strings are parsed over the base names; ScalarFields must already be bound
    to exactly the base names in order.
    """

    def __init__(self, chart, rho0, rho, c0=None, c=None):
        self.chart = chart
        m, n = chart.dim_base, chart.fibre_dim
        names = chart.base_names
        self.rho0 = bind_row(rho0, m, names, "rho0")
        rho = list(rho)
        if len(rho) != n:
            raise ValueError("rho needs %d rows, got %d" % (n, len(rho)))
        self.rho = tuple(bind_row(r, m, names, "rho[%d]" % (a + 1)) for a, r in enumerate(rho))
        if c0 is None:
            c0 = [["0"] * n for _ in range(n)]
        c0 = list(c0)
        if len(c0) != n:
            raise ValueError("c0 needs %d rows" % n)
        self.c0 = tuple(bind_row(r, n, names, "c0[%d]" % (a + 1)) for a, r in enumerate(c0))
        self.c = {}
        for key, row in (c or {}).items():
            a, b = key
            if not (1 <= a < b <= n):
                raise ValueError(
                    "c keys must be pairs (a, b) with 1 <= a < b <= %d, got %r" % (n, (a, b))
                )
            self.c[(a, b)] = bind_row(row, n, names, "c[%r]" % (key,))
        self._const = all(f.is_constant() for f in self._fields())
        self._cache = None
        # compiled on first use by structure_values, structure_grad_values
        # and validate_structure
        self._values_kernel = None
        self._grad_kernel = None
        self._residuals = None

    def _fields(self):
        # every structure field in declaration order: rho0, rho, c0, then c
        return (f for row in (self.rho0, *self.rho, *self.c0, *self.c.values()) for f in row)

    def _flat_trees(self, read=lambda f: [f.ast]):
        # the trees read(f) gives for each entry of the flat layout, in turn:
        # C_ab^g for a > b reads C_ba^g negated, and the diagonal and the
        # pairs not given read the constant 0
        n = self.chart.fibre_dim
        zero = read(constant_field(0.0, self.chart.base_names))
        c = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for (a, b), row in self.c.items():
            for g, f in enumerate(row):
                c[a - 1][b - 1][g] = read(f)
                c[b - 1][a - 1][g] = [Neg(t) for t in c[a - 1][b - 1][g]]
        rows = [[read(f) for f in row] for row in (self.rho0, *self.rho, *self.c0)]
        return [t for row in rows + [r for plane in c for r in plane] for e in row for t in e]

    def _split(self, flat, tail=()):
        # StructureValues of an array whose last axis runs over the flat
        # layout, each entry spread over the trailing axes `tail` (the m
        # partials of a gradient); the axes before it are kept
        m, n = self.chart.dim_base, self.chart.fibre_dim
        k, lead = prod(tail), flat.shape[:-1]
        a, b, c = k * m, k * (n + 1) * m, k * ((n + 1) * m + n * n)
        parts = flat[..., :a], flat[..., a:b], flat[..., b:c], flat[..., c:]
        shapes = (m,), (n, m), (n, n), (n, n, n)
        return StructureValues(*[p.reshape(lead + s + tail) for p, s in zip(parts, shapes)])

    def structure_at(self, x):
        if self._const and self._cache is not None:
            return self._cache
        out = self._split(np.array(self.structure_values(x)))
        if self._const:
            # every later call hands out these arrays, so nobody may write them
            for arr in (out.rho0, out.rho, out.c0, out.c):
                arr.flags.writeable = False
            self._cache = out
        return out

    def structure_grad_at(self, x):
        """d/dx of the structure at x, StructureValues with a trailing axis
        i over the base: rho0 (m, m), rho (n, m, m), c0 (n, n, m) and
        c (n, n, n, m), [..., i] the partial by x^i."""
        return self._split(np.array(self.structure_grad_values(x)), (self.chart.dim_base,))

    def structure_steps(self):
        """The checked steps every evaluation of the structure runs first:
        each field's value, in declaration order."""
        return [(f.ast, True) for f in self._fields()]

    def structure_trees(self):
        """The structure functions as trees, in the layout of StructureValues
        with nested lists for arrays; every kernel that reads the structure
        compiles them in."""
        flat = self._flat_trees()
        s = self._split(np.fromiter(flat, dtype=object, count=len(flat)))
        return StructureValues(s.rho0.tolist(), s.rho.tolist(), s.c0.tolist(), s.c.tolist())

    def structure_values(self, x):
        """The structure values at x as one flat tuple of floats, the flat
        layout: rho0, rho, c0, then c with both halves, each row-major."""
        if self._values_kernel is None:
            names, steps = self.chart.base_names, self.structure_steps()
            self._values_kernel = compile_trees(self._flat_trees(), names, steps)
        return self._values_kernel(*float_args(x, self.chart.base_names))

    def structure_grad_values(self, x):
        """d/dx of structure_values at x as one flat tuple of floats: the m
        partials of each entry of the flat layout in turn."""
        if self._grad_kernel is None:
            grads, steps = self._grad_trees()
            self._grad_kernel = compile_trees(grads, self.chart.base_names, steps)
        return self._grad_kernel(*float_args(x, self.chart.base_names))

    def _grad_trees(self):
        # the m partials of each flat entry, and per base-dependent field its
        # checked value then its partials, as value_grad runs them; a constant
        # field's partials are zeros, as d/dx of a constant like 1/0 may raise
        m = self.chart.dim_base

        def partials(f):
            return [Num(0.0) if f.is_constant() else f._partial(i).ast for i in range(m)]

        steps = []
        for f in self._fields():
            if not f.is_constant():
                steps += [(f.ast, True)] + [(d, False) for d in partials(f)]
        return self._flat_trees(partials), steps


def motion_trees(s, dhdx, dhdp, p):
    """The trees of xdot = rho0 + rho dH/dp, pdot = - rho dH/dx + C_0 p +
    C_ba^g (dH/dp_b) p_g and dH/dp, one flat list, over the structure trees
    s and the trees of dH/dx, dH/dp and the momenta.  Both dynamics are
    built from it: the Hamilton motion as it reads, and the Euler-Lagrange
    momentum equation with dH/dx = -dL/dx, dH/dp = y and p = dL/dy, where
    pdot is rho_a^i dL/dx^i + (C_0a^g + C_ba^g y^b) dL/dy^g."""
    m, n = len(dhdx), len(dhdp)
    xdot = [
        tree_sum([s.rho0[i], tree_sum(tree_op("*", dhdp[a], s.rho[a][i]) for a in range(n))])
        for i in range(m)
    ]
    pdot = [
        tree_sum([
            tree_negate(tree_sum(tree_op("*", s.rho[a][i], dhdx[i]) for i in range(m))),
            tree_sum(tree_op("*", s.c0[a][g], p[g]) for g in range(n)),
            tree_sum(
                tree_op("*", tree_op("*", s.c[b][a][g], dhdp[b]), p[g])
                for b in range(n)
                for g in range(n)
            ),
        ])
        for a in range(n)
    ]
    return xdot + pdot + list(dhdp)


def from_lie_algebroid(chart, rho, c):
    """Wrap plain Lie algebroid data (anchors rho_a, bracket c) as a model
    with the reference direction central and anchorless: rho_0 = 0, C_0a = 0."""
    return AffgebroidModel(chart, ["0"] * chart.dim_base, rho, c=c)


@dataclass
class ValidationReport:
    n_points: int
    tol: float
    max_anchor: float
    max_jacobi: float
    worst_anchor_point: np.ndarray
    worst_jacobi_point: np.ndarray
    per_point: list = field(default_factory=list, repr=False)

    @property
    def max_residual(self):
        return float(np.maximum(self.max_anchor, self.max_jacobi))

    @property
    def passed(self):
        return self.max_residual <= self.tol

    def summary(self):
        return (
            "structure validation over %d points: anchor residual %.3e, "
            "jacobi residual %.3e, tol %.1e -> %s"
            % (
                self.n_points,
                self.max_anchor,
                self.max_jacobi,
                self.tol,
                "pass" if self.passed else "FAIL",
            )
        )


def _residual_kernel(model):
    # (kernel, k): the kernel's first k outputs are the anchor residuals over
    # I <= J, the rest the Jacobi ones over I <= J <= K, those that fold to 0
    # left out.  A repeated index gives 0 up to rounding, or a non-finite
    # value where a term overflows; each group leads with the sum of d - d
    # over the partials d of its fields, not finite where one is not, which
    # a literal factor 0 may have folded away.  The steps are the structure's
    # values, then the partials, so the kernel raises what reading them raises
    m, n = model.chart.dim_base, model.chart.fibre_dim
    grads, grad_steps = model._grad_trees()

    def lay_out(flat, tail=()):
        # rho_I (n+1, m, ...) and C_IJ^K (n+1, n+1, n+1, ...) of the flat
        # trees, slot 0 being e_0
        s = model._split(np.fromiter(flat, dtype=object, count=len(flat)), tail)
        c = np.full((n + 1,) * 3 + tail, Num(0.0), dtype=object)
        c[0, 1:, 1:] = s.c0
        c[1:, 0, 1:] = np.frompyfunc(tree_negate, 1, 1)(s.c0)
        c[1:, 1:, 1:] = s.c
        return np.concatenate([s.rho0[None], s.rho]), c

    def dot(u, v):
        # a literal factor 0 adds a zero, which changes no residual's size
        return tree_sum(tree_op("*", a, b) for a, b in zip(u, v)
                        if 0.0 not in (literal_value(a), literal_value(b)))

    def guard(fields):
        return tree_sum(tree_op("-", f._partial(i).ast, f._partial(i).ast)
                        for f in fields if not f.is_constant() for i in range(m))

    rho, c = lay_out(model._flat_trees())
    drho, dc = lay_out(grads, (m,))
    indices = range(n + 1)
    anchor = (tree_op("-", tree_op("-", dot(rho[i], drho[j, k]), dot(rho[j], drho[i, k])),
                      dot(c[i, j], rho[:, k]))
              for i, j in combinations_with_replacement(indices, 2) for k in range(m))
    jacobi = (tree_sum(t for a, b, e in ((i, j, k), (j, k, i), (k, i, j))
                       for t in (dot(rho[a], dc[b, e, g]), dot(c[a, :, g], c[b, e])))
              for i, j, k in combinations_with_replacement(indices, 3) for g in indices[1:])
    fields = list(model._fields())
    anchor = [guard(fields[: (n + 1) * m])] + [t for t in anchor if literal_value(t) != 0.0]
    jacobi = [guard(fields[(n + 1) * m :])] + [t for t in jacobi if literal_value(t) != 0.0]
    steps = model.structure_steps() + [(t, False) for t, _ in grad_steps]
    return compile_trees(anchor + jacobi, model.chart.base_names, steps), len(anchor)


def validate_structure(model, sample_points=None, tol=1e-8, samples=50, seed=0):
    """Check anchor compatibility and the Jacobi identity at sample points.

    Anchor residual, all I, J over {0, 1..n}, target j:
        rho_I^i d(rho_J^j)/dx^i - rho_J^i d(rho_I^j)/dx^i - C_IJ^K rho_K^j
    Jacobi residual, all I, J, K, target L:
        sum over cyclic (I,J,K) of [rho_I^i d(C_JK^L)/dx^i + C_IM^L C_JK^M]
    Both are antisymmetric in their lower indices, so the max over all index
    tuples is the max over I <= J (<= K), up to rounding.  A non-finite
    residual fails.  The residuals at a point are one call of a kernel
    compiled from the structure trees and their partials on first use per
    model; the sample points are one draw.
    """
    chart = model.chart
    if sample_points is None:
        points = chart._draw(np.random.default_rng(seed), chart.base_box, max(samples, 0))
    else:
        points = [np.asarray(x, dtype=float) for x in sample_points]
    if not len(points):
        raise ValueError("structure validation needs at least one sample point")
    if model._residuals is None:
        model._residuals = _residual_kernel(model)
    kernel, k = model._residuals
    rows = []
    for i, x in enumerate(points):
        try:
            rows.append(kernel(*float_args(x, chart.base_names)))
        except (DomainError, ValueError):
            # the error is the first met reading the values of each block
            # of 32 points before their partials: a value that fails later
            # in this block comes before a partial that fails here
            for y in points[i : i - i % 32 + 32]:
                model.structure_values(y)
            raise
    res = np.abs(rows)
    anchor, jacobi = res[:, :k].max(axis=1), res[:, k:].max(axis=1)
    # argmax lands on the first NaN, and np.max propagates it
    ia, ij = int(np.argmax(anchor)), int(np.argmax(jacobi))
    return ValidationReport(
        n_points=len(points),
        tol=tol,
        max_anchor=float(np.max(anchor)),
        max_jacobi=float(np.max(jacobi)),
        worst_anchor_point=points[ia],
        worst_jacobi_point=points[ij],
        per_point=list(zip(anchor.tolist(), jacobi.tolist())),
    )
