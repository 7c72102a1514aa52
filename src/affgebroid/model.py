"""Charts, point containers, and the structure-function model.

A model is a chart (base coordinates x^i plus an n-dimensional fibre) together
with the local structure functions of an affine bundle A inside its bidual:
anchors rho_0, rho_alpha over the base, and bracket coefficients C_0a^g,
C_ab^g.  The distinguished index 0 refers to the affine reference direction
e_0; its bracket target component is structurally zero (C_I J^0 = 0), which
the storage layout enforces rather than checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    Neg,
    Num,
    Var,
    bind_row,
    compile_trees,
    float_args,
    literal_value,
    tree_negate,
    tree_product,
    tree_sum,
)


class Chart:
    """Coordinate box data: named base coordinates and an n-dim fibre.

    Velocity coordinates are y1..yn, momentum coordinates p1..pn.  Each
    coordinate carries an interval; sampling helpers draw uniformly from the
    boxes so tests and the CLI stay inside the declared domain.
    """

    __slots__ = ("base_names", "fibre_dim", "base_box", "fibre_box", "dual_box")

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

    def _draw(self, rng, box):
        return np.array([rng.uniform(lo, hi) for lo, hi in box])

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
    """Structure functions evaluated at one base point."""

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
        self._const = all(f.is_constant() for f, _ in self._slots())
        self._cache = None
        # compiled on first use by structure_at and structure_grad_at
        self._values_kernel = None
        self._grad_kernel = None

    def _slots(self):
        """Every structure field with its place in the full arrays: (I, j)
        for the anchor rho_I^j, (I, J, K) for the bracket C_IJ^K (whose
        (J, I, K) entry is its negation)."""
        for j, f in enumerate(self.rho0):
            yield f, (0, j)
        for a, row in enumerate(self.rho):
            for j, f in enumerate(row):
                yield f, (1 + a, j)
        for a, row in enumerate(self.c0):
            for g, f in enumerate(row):
                yield f, (0, 1 + a, 1 + g)
        for (a, b), row in self.c.items():
            for g, f in enumerate(row):
                yield f, (a, b, 1 + g)

    @property
    def is_constant_structure(self):
        return self._const

    def structure_at(self, x):
        if self._const and self._cache is not None:
            return self._cache
        m, n = self.chart.dim_base, self.chart.fibre_dim
        # one flat array in the order rho0, rho, c0, c, each row-major
        vals = np.array(self.structure_values(x))
        anchor = vals[: (n + 1) * m].reshape(n + 1, m)
        rho0, rho = anchor[0], anchor[1:]
        c0 = vals[(n + 1) * m : (n + 1) * m + n * n].reshape(n, n)
        c = vals[(n + 1) * m + n * n :].reshape(n, n, n)
        out = StructureValues(rho0, rho, c0, c)
        if self._const:
            # every later call hands out these arrays, so nobody may write them
            for arr in (rho0, rho, c0, c):
                arr.flags.writeable = False
            self._cache = out
        return out

    def _flat_trees(self):
        # rho0, rho, c0, c, each row-major; C_ab^g for a > b is the negation
        # of C_ba^g and the diagonal is zero
        n = self.chart.fibre_dim
        c = [[[Num(0.0)] * n for _ in range(n)] for _ in range(n)]
        for (a, b), row in self.c.items():
            for g, f in enumerate(row):
                c[a - 1][b - 1][g] = f.ast
                c[b - 1][a - 1][g] = Neg(f.ast)
        flat = [f.ast for f in self.rho0]
        flat += [f.ast for rows in (self.rho, self.c0) for row in rows for f in row]
        return flat + [t for plane in c for row in plane for t in row]

    def structure_steps(self):
        """The checked steps every evaluation of the structure runs first:
        each field's value, in slot order."""
        return [(f.ast, True) for f, _ in self._slots()]

    def structure_trees(self, free=False):
        """The structure functions as trees, in the layout of StructureValues
        with nested lists for arrays.  With free=True, every tree that is not
        a literal becomes the variable "s<k>", k its position in the flat
        tuple structure_values returns."""
        m, n = self.chart.dim_base, self.chart.fibre_dim
        flat = self._flat_trees()
        if free:
            flat = [t if literal_value(t) is not None else Var("s%d" % k) for k, t in enumerate(flat)]
        it = iter(flat)

        def take(*shape):
            if len(shape) == 1:
                return [next(it) for _ in range(shape[0])]
            return [take(*shape[1:]) for _ in range(shape[0])]

        return StructureValues(take(m), take(n, m), take(n, n), take(n, n, n))

    def structure_values(self, x):
        """The structure values at x as one flat tuple of floats, in the
        order of structure_trees(free=True)."""
        if self._values_kernel is None:
            names, steps = self.chart.base_names, self.structure_steps()
            self._values_kernel = compile_trees(self._flat_trees(), names, steps)
        return self._values_kernel(*float_args(x, self.chart.base_names))

    def structure_grad_at(self, x):
        """d/dx of the full anchor and bracket arrays: (n+1, m, m) indexed
        [I, j, i] = d rho_I^j / d x^i, and (n+1, n+1, n+1, m)."""
        m, n = self.chart.dim_base, self.chart.fibre_dim
        rg = np.zeros((n + 1, m, m))
        cg = np.zeros((n + 1, n + 1, n + 1, m))
        if self._const:
            return rg, cg
        if self._grad_kernel is None:
            self._grad_kernel = self._compile_grads()
        kernel, anchor_at, upper, lower = self._grad_kernel
        grads = np.array(kernel(*float_args(x, self.chart.base_names)))
        k = len(anchor_at)
        rg.put(anchor_at, grads[:k])
        cg.put(upper, grads[k:])
        cg.put(lower, -grads[k:])
        return rg, cg

    def _compile_grads(self):
        # the steps follow value_grad per base-dependent field: its checked
        # value, then its partials.  The outputs are the anchor partials,
        # then the bracket ones, each with its flat position in rg or cg (and
        # in cg of its negation).  Constant fields have zero gradients.
        m, n = self.chart.dim_base, self.chart.fibre_dim
        names = self.chart.base_names
        rg_shape, cg_shape = (n + 1, m, m), (n + 1, n + 1, n + 1, m)
        steps, anchor, bracket, anchor_at, upper, lower = [], [], [], [], [], []
        for f, slot in self._slots():
            if f.is_constant():
                continue
            partials = [f._partial(i).ast for i in range(len(names))]
            steps += [(f.ast, True)] + [(d, False) for d in partials]
            for i, d in enumerate(partials):
                if len(slot) == 2:
                    anchor.append(d)
                    anchor_at.append(np.ravel_multi_index(slot + (i,), rg_shape))
                else:
                    bracket.append(d)
                    upper.append(np.ravel_multi_index(slot + (i,), cg_shape))
                    lower.append(np.ravel_multi_index((slot[1], slot[0], slot[2], i), cg_shape))
        positions = (np.array(at, dtype=int) for at in (anchor_at, upper, lower))
        return (compile_trees(anchor + bracket, names, steps), *positions)


def motion_trees(s, dhdx, dhdp, p):
    """The trees of xdot = rho0 + rho dH/dp, pdot = - rho dH/dx + C_0 p +
    C_ba^g (dH/dp_b) p_g and dH/dp, one flat list, over the structure trees
    s and the trees of dH/dx, dH/dp and the momenta.  Both dynamics are
    built from it: the Hamilton motion as it reads, and the Euler-Lagrange
    momentum equation with dH/dx = -dL/dx, dH/dp = y and p = dL/dy, where
    pdot is rho_a^i dL/dx^i + (C_0a^g + C_ba^g y^b) dL/dy^g."""
    m, n = len(dhdx), len(dhdp)
    xdot = [
        tree_sum([s.rho0[i], tree_sum(tree_product(dhdp[a], s.rho[a][i]) for a in range(n))])
        for i in range(m)
    ]
    pdot = [
        tree_sum([
            tree_negate(tree_sum(tree_product(s.rho[a][i], dhdx[i]) for i in range(m))),
            tree_sum(tree_product(s.c0[a][g], p[g]) for g in range(n)),
            tree_sum(
                tree_product(tree_product(s.c[b][a][g], dhdp[b]), p[g])
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
    m = chart.dim_base
    zeros = ["0"] * m
    return AffgebroidModel(chart, zeros, rho, c0=None, c=c)


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


# samples per einsum block: the Jacobi tensor of a block holds
# _BLOCK * (n+1)^4 floats, so memory stays flat in the sample count
_BLOCK = 32


def validate_structure(model, sample_points=None, tol=1e-8, samples=50, seed=0):
    """Check anchor compatibility and the Jacobi identity at sample points.

    Anchor residual, all I, J over {0, 1..n}, target j:
        rho_I^i d(rho_J^j)/dx^i - rho_J^i d(rho_I^j)/dx^i - C_IJ^K rho_K^j
    Jacobi residual, all I, J, K, target L:
        sum over cyclic (I,J,K) of [rho_I^i d(C_JK^L)/dx^i + C_IM^L C_JK^M]
    Both are antisymmetric in their lower indices, so the max over all index
    tuples is the max over I < J (< K).  A non-finite residual fails.
    """
    if sample_points is None:
        rng = np.random.default_rng(seed)
        sample_points = [model.chart.sample_base(rng) for _ in range(samples)]
    points = [np.asarray(x, dtype=float) for x in sample_points]
    if not points:
        raise ValueError("structure validation needs at least one sample point")
    n = model.chart.fibre_dim
    anchor, jacobi = [], []
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        # the anchor and bracket over the indices 0..n, slot 0 = e_0
        values = [model.structure_at(x) for x in block]
        rho = np.stack([np.vstack([s.rho0, s.rho]) for s in values])  # (k, N, m), N = n + 1
        cf = np.zeros((len(block), n + 1, n + 1, n + 1))              # (k, N, N, N)
        cf[:, 0, 1:, 1:] = [s.c0 for s in values]
        cf[:, 1:, 0, 1:] = -cf[:, 0, 1:, 1:]
        cf[:, 1:, 1:, 1:] = [s.c for s in values]
        grads = [model.structure_grad_at(x) for x in block]
        rg = np.stack([g[0] for g in grads])                      # (k, N, m, m)
        cg = np.stack([g[1] for g in grads])                      # (k, N, N, N, m)
        res = (
            np.einsum("kIi,kJji->kIJj", rho, rg)
            - np.einsum("kJi,kIji->kIJj", rho, rg)
            - np.einsum("kIJK,kKj->kIJj", cf, rho)
        )
        anchor.append(np.abs(res).reshape(len(block), -1).max(axis=1))
        lie = np.einsum("kIi,kJKLi->kIJKL", rho, cg)
        alg = np.einsum("kIML,kJKM->kIJKL", cf, cf)
        res = np.zeros_like(lie)
        for cyc in ("kIJKL->kIJKL", "kJKIL->kIJKL", "kKIJL->kIJKL"):
            res += np.einsum(cyc, lie)
            res += np.einsum(cyc, alg)
        jacobi.append(np.abs(res).reshape(len(block), -1).max(axis=1))
    anchor = np.concatenate(anchor)
    jacobi = np.concatenate(jacobi)
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
