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

from .expressions import ScalarField, constant_field, parse


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

    def contains_base(self, x):
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self.base_box))

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


def _arr(v):
    return np.array(v, dtype=float).reshape(-1)


class APoint:
    """Point of the affine bundle: base x, velocity fibre y^a."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _arr(x)
        self.y = _arr(y)

    def __repr__(self):
        return "APoint(%s, %s)" % (self.x.tolist(), self.y.tolist())


class VStarPoint:
    """Point of the dual bundle: base x, momenta p_a."""

    __slots__ = ("x", "p")

    def __init__(self, x, p):
        self.x = _arr(x)
        self.p = _arr(p)

    def __repr__(self):
        return "VStarPoint(%s, %s)" % (self.x.tolist(), self.p.tolist())


class JetPoint:
    """Velocity-side double point (x, y; z, v): a point of A with a second
    fibre pair attached (prolongation coordinates)."""

    __slots__ = ("x", "y", "z", "v")

    def __init__(self, x, y, z, v):
        self.x = _arr(x)
        self.y = _arr(y)
        self.z = _arr(z)
        self.v = _arr(v)

    def __repr__(self):
        return "JetPoint(%s, %s, %s, %s)" % tuple(
            u.tolist() for u in (self.x, self.y, self.z, self.v)
        )


class PhasePoint:
    """Momentum-side double point (x, p; z, w): base x, momenta p_a, velocity
    slot z^a, covelocity slot w_a."""

    __slots__ = ("x", "p", "z", "w")

    def __init__(self, x, p, z, w):
        self.x = _arr(x)
        self.p = _arr(p)
        self.z = _arr(z)
        self.w = _arr(w)

    def __repr__(self):
        return "PhasePoint(%s, %s, %s, %s)" % tuple(
            u.tolist() for u in (self.x, self.p, self.z, self.w)
        )


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
        self.rho0 = self._row(rho0, m, "rho0")
        rho = list(rho)
        if len(rho) != n:
            raise ValueError("rho needs %d rows, got %d" % (n, len(rho)))
        self.rho = tuple(self._row(r, m, "rho[%d]" % (a + 1)) for a, r in enumerate(rho))
        if c0 is None:
            c0 = [["0"] * n for _ in range(n)]
        c0 = list(c0)
        if len(c0) != n:
            raise ValueError("c0 needs %d rows" % n)
        self.c0 = tuple(self._row(r, n, "c0[%d]" % (a + 1)) for a, r in enumerate(c0))
        self.c = {}
        for key, row in (c or {}).items():
            a, b = key
            if not (1 <= a < b <= n):
                raise ValueError(
                    "c keys must be pairs (a, b) with 1 <= a < b <= %d, got %r" % (n, (a, b))
                )
            self.c[(a, b)] = self._row(row, n, "c[%r]" % (key,))
        self._const = all(
            f.is_constant() for f in self._all_fields()
        )
        self._cache = None

    def _row(self, row, k, what):
        fields = []
        row = list(row)
        if len(row) != k:
            raise ValueError("%s needs %d entries, got %d" % (what, k, len(row)))
        for entry in row:
            if isinstance(entry, ScalarField):
                if entry.variables != self.chart.base_names:
                    raise ValueError(
                        "%s: field bound to %r, chart base is %r"
                        % (what, entry.variables, self.chart.base_names)
                    )
                fields.append(entry)
            elif isinstance(entry, str):
                fields.append(parse(entry, self.chart.base_names))
            else:
                fields.append(constant_field(float(entry), self.chart.base_names))
        return tuple(fields)

    def _all_fields(self):
        yield from self.rho0
        for r in self.rho:
            yield from r
        for r in self.c0:
            yield from r
        for r in self.c.values():
            yield from r

    @property
    def is_constant_structure(self):
        return self._const

    def c_value(self, a, b, g, x):
        """C_ab^g at x, for any 1-based a, b: reads of the swapped pair are the
        exact negation, diagonal reads are 0."""
        n = self.chart.fibre_dim
        if not (1 <= a <= n and 1 <= b <= n and 1 <= g <= n):
            raise IndexError("indices out of range")
        if a == b:
            return 0.0
        if a < b:
            return self.c[(a, b)][g - 1].eval(x) if (a, b) in self.c else 0.0
        return -(self.c[(b, a)][g - 1].eval(x)) if (b, a) in self.c else 0.0

    def structure_at(self, x):
        if self._const and self._cache is not None:
            return self._cache
        m, n = self.chart.dim_base, self.chart.fibre_dim
        x = np.asarray(x, dtype=float)
        rho0 = np.array([f.eval(x) for f in self.rho0])
        rho = np.array([[f.eval(x) for f in row] for row in self.rho]).reshape(n, m)
        c0 = np.array([[f.eval(x) for f in row] for row in self.c0]).reshape(n, n)
        c = np.zeros((n, n, n))
        for (a, b), row in self.c.items():
            vals = np.array([f.eval(x) for f in row])
            c[a - 1, b - 1, :] = vals
            c[b - 1, a - 1, :] = -vals
        out = StructureValues(rho0, rho, c0, c)
        if self._const:
            # every later call hands out these arrays, so nobody may write them
            for arr in (rho0, rho, c0, c):
                arr.flags.writeable = False
            self._cache = out
        return out

    # full (n+1)-indexed arrays, slot 0 = reference direction e_0

    def full_anchor_at(self, x):
        s = self.structure_at(x)
        return np.vstack([s.rho0[None, :], s.rho])

    def full_c_at(self, x):
        n = self.chart.fibre_dim
        s = self.structure_at(x)
        full = np.zeros((n + 1, n + 1, n + 1))
        full[0, 1:, 1:] = s.c0
        full[1:, 0, 1:] = -s.c0
        full[1:, 1:, 1:] = s.c
        return full

    def structure_grad_at(self, x):
        """d/dx of the full anchor and bracket arrays: (n+1, m, m) indexed
        [I, j, i] = d rho_I^j / d x^i, and (n+1, n+1, n+1, m)."""
        m, n = self.chart.dim_base, self.chart.fibre_dim
        x = np.asarray(x, dtype=float)
        rg = np.zeros((n + 1, m, m))
        cg = np.zeros((n + 1, n + 1, n + 1, m))
        if self._const:
            return rg, cg
        for j, f in enumerate(self.rho0):
            if not f.is_constant():
                rg[0, j, :] = f.value_grad(x)[1]
        for a, row in enumerate(self.rho):
            for j, f in enumerate(row):
                if not f.is_constant():
                    rg[1 + a, j, :] = f.value_grad(x)[1]
        for a, row in enumerate(self.c0):
            for g, f in enumerate(row):
                if not f.is_constant():
                    grad = f.value_grad(x)[1]
                    cg[0, 1 + a, 1 + g, :] = grad
                    cg[1 + a, 0, 1 + g, :] = -grad
        for (a, b), row in self.c.items():
            for g, f in enumerate(row):
                if not f.is_constant():
                    grad = f.value_grad(x)[1]
                    cg[a, b, 1 + g, :] = grad
                    cg[b, a, 1 + g, :] = -grad
        return rg, cg


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
        return max(self.max_anchor, self.max_jacobi)

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


def validate_structure(model, sample_points=None, tol=1e-8, samples=50, seed=0):
    """Check anchor compatibility and the Jacobi identity at sample points.

    Anchor residual, all I < J over {0, 1..n}, target j:
        rho_I^i d(rho_J^j)/dx^i - rho_J^i d(rho_I^j)/dx^i - C_IJ^K rho_K^j
    Jacobi residual, all I < J < K, target L:
        sum over cyclic (I,J,K) of [rho_I^i d(C_JK^L)/dx^i + C_IM^L C_JK^M]
    """
    if sample_points is None:
        rng = np.random.default_rng(seed)
        sample_points = [model.chart.sample_base(rng) for _ in range(samples)]
    n = model.chart.fibre_dim
    max_anchor = 0.0
    max_jacobi = 0.0
    worst_a = worst_j = np.asarray(sample_points[0], dtype=float)
    per_point = []
    for x in sample_points:
        x = np.asarray(x, dtype=float)
        rho = model.full_anchor_at(x)           # (n+1, m)
        cf = model.full_c_at(x)                 # (n+1, n+1, n+1)
        rg, cg = model.structure_grad_at(x)
        pa = 0.0
        for i_ in range(n + 1):
            for j_ in range(i_ + 1, n + 1):
                res = rho[i_] @ rg[j_].T - rho[j_] @ rg[i_].T - cf[i_, j_] @ rho
                pa = max(pa, float(np.max(np.abs(res))))
        pj = 0.0
        for i_ in range(n + 1):
            for j_ in range(i_ + 1, n + 1):
                for k_ in range(j_ + 1, n + 1):
                    for el in range(1, n + 1):
                        acc = 0.0
                        for a_, b_, c_ in ((i_, j_, k_), (j_, k_, i_), (k_, i_, j_)):
                            acc += float(rho[a_] @ cg[b_, c_, el])
                            acc += float(cf[a_, :, el] @ cf[b_, c_, :])
                        pj = max(pj, abs(acc))
        if pa > max_anchor:
            max_anchor, worst_a = pa, x
        if pj > max_jacobi:
            max_jacobi, worst_j = pj, x
        per_point.append((pa, pj))
    return ValidationReport(
        n_points=len(sample_points),
        tol=tol,
        max_anchor=max_anchor,
        max_jacobi=max_jacobi,
        worst_anchor_point=worst_a,
        worst_jacobi_point=worst_j,
        per_point=per_point,
    )
