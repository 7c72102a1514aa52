"""Command-line front end: JSON configs in, reports and CSV trajectories out.

Exit codes: 0 everything passed, 1 a mathematical check failed, 2 bad usage
or bad config, 3 runtime numeric failure (blow-up, singular fibre Hessian,
stalled Newton or step underflow).

Config schema, a single JSON object; unknown keys are rejected anywhere and
reported with their path.  Numbers must be finite: NaN, Infinity, numbers
beyond the float range and literals in expressions that overflow are config
errors.

  chart        {"base": [names], "fibre_dim": n, "box": {name: [lo, hi]}}
               box entries are per-coordinate and optional (default [-1, 1]);
               velocity coordinates are named y1..yn, momenta p1..pn.
  structure    {"rho0": [m exprs], "rho": [n rows of m exprs],
               "c0": [n rows of n exprs], "c": {"a,b": [n exprs]}}
               c0 and c are optional; expressions may be JSON numbers.
  atiyah       {"algebra_dim": r, "c": {"a,b": [r numbers]},
               "k0": [r exprs], "k": [one row of r exprs per spatial coord]}
               exactly one of structure/atiyah must be present, and for
               atiyah configs chart.fibre_dim must equal spatial + algebra.
  lagrangian   expression over base + y coordinates (optional)
  hamiltonian  expression over base + p coordinates (optional)
  initial      {"x": [m values], "y": [n values], "p": [n values]}
  integrator   {"method": "rk4", "dt": h, "t0": a, "t1": b} or
               {"method": "rk45", "rtol": r, "atol": s, "t0": a, "t1": b}
  seed         integer feeding every randomized check (default 0)

CSV layout for simulate: integration time "t" first, then the base
coordinates (a base coordinate itself named "t" is emitted as "t_state" to
keep headers unique), then the fibre (lagrangian mode) or dual (hamiltonian
mode) coordinates, then the running "L" or "H" value and a finite-difference
"residual" column; anchorless models with no reference bracket also get the
conserved "casimir" column (half the squared momentum norm) in hamiltonian
mode.  All numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

from .atiyah import AtiyahSpec, hp_equations_check, lp_equations_check
from .atiyah import reduce as reduce_spec
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    JacobiViolation,
    NewtonDivergence,
    NonFiniteState,
    SingularLagrangian,
    StepUnderflow,
)
from .expressions import literal_value, rebuild
from .flow import integrate_rk4, integrate_rk45, rate_and_energy, time_derivative
from .hamiltonian import (
    HamiltonianSystem,
    hamilton_vector_field,
    poisson_hamiltonian_field,
)
from .lagrangian import LagrangianSystem, el_vector_field, regularity
from .legendre import InducedHamiltonian, flow_commutation_check, leg_inverse
from .model import AffgebroidModel, APoint, Chart, VStarPoint, validate_structure
from .tulczyjew import a_map, a_map_inverse, s_h_point, s_l_generator, s_l_residual, sigma

_NUMERIC_ERRORS = (
    NonFiniteState,
    StepUnderflow,
    SingularLagrangian,
    NewtonDivergence,
    DomainError,
    EvaluationError,
)


def _is_num(v):
    # a finite JSON number: bool is an int to Python but not a number here,
    # and an integer beyond the float range counts as infinite
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _num(v, path):
    if not _is_num(v):
        raise ConfigError("%s: expected a number, got %r" % (path, v))
    return float(v)


def _positive(v, path):
    if _num(v, path) <= 0.0:
        raise ConfigError("%s: must be positive" % path)
    return float(v)


def _int(v, path, least):
    if type(v) is not int or v < least:
        raise ConfigError(
            "%s: expected a %s integer" % (path, "positive" if least else "nonnegative")
        )
    return v


def _section(raw, path, allowed, required=()):
    """raw as the object at path: no key outside allowed, and every required
    key present."""
    if not isinstance(raw, dict):
        raise ConfigError("%s: expected an object" % path)
    for k in raw:
        if k not in allowed:
            raise ConfigError(
                "%s.%s: unknown key (allowed: %s)" % (path, k, ", ".join(sorted(allowed)))
            )
    if not all(k in raw for k in required):
        raise ConfigError(
            "%s: %s %s required"
            % (path, " and ".join(required), "are" if len(required) > 1 else "is")
        )
    return raw


def _array(v, shape, path, numbers=False):
    """Nested lists of the given shape at path: of numbers, returned as
    floats, or of expressions (strings or numbers)."""
    if len(shape) > 1:
        if not isinstance(v, list) or len(v) != shape[0]:
            raise ConfigError("%s: expected %d rows" % (path, shape[0]))
        return [_array(row, shape[1:], "%s[%d]" % (path, i), numbers) for i, row in enumerate(v)]
    if not isinstance(v, list) or len(v) != shape[0]:
        what = "numbers" if numbers else "expressions"
        raise ConfigError("%s: expected a list of %d %s" % (path, shape[0], what))
    for i, entry in enumerate(v):
        if not (_is_num(entry) or (not numbers and isinstance(entry, str))):
            what = "a number" if numbers else "an expression string or number"
            raise ConfigError("%s[%d]: expected %s" % (path, i, what))
    return [float(entry) for entry in v] if numbers else v


def _pairs(raw, n, path, numbers=False):
    """A table of n-entry rows keyed "a,b" with 1 <= a < b <= n, as a dict
    keyed by (a, b)."""
    if not isinstance(raw, dict):
        raise ConfigError("%s: expected an object" % path)
    out = {}
    for key, row in raw.items():
        try:
            a, b = map(int, key.split(","))
        except ValueError:
            a = b = 0
        if not 1 <= a < b <= n:
            raise ConfigError(
                '%s.%s: keys must look like "a,b" with 1 <= a < b <= %d, got %r'
                % (path, key, n, key)
            )
        out[(a, b)] = _array(row, (n,), "%s.%s" % (path, key), numbers)
    return out


def _wrap(path, ctor, *args, **kwargs):
    """ctor(*args, **kwargs), its ParseError or ValueError reported as a
    config error at path; a JacobiViolation passes, so main exits 1 on it."""
    try:
        return ctor(*args, **kwargs)
    except JacobiViolation:
        raise
    except ValueError as e:  # ParseError included
        raise ConfigError("%s: %s" % (path, e))


def _chart(raw):
    _section(raw, "chart", ("base", "fibre_dim", "box"))
    base = raw.get("base")
    if not isinstance(base, list) or not base or not all(isinstance(s, str) for s in base):
        raise ConfigError("chart.base: expected a nonempty list of coordinate names")
    n = _int(raw.get("fibre_dim"), "chart.fibre_dim", 1)
    box = raw.get("box", {})
    if not isinstance(box, dict):
        raise ConfigError("chart.box: expected an object keyed by coordinate name")
    axes = (base, ["y%d" % a for a in range(1, n + 1)], ["p%d" % a for a in range(1, n + 1)])
    intervals = {}
    for name, v in box.items():
        if not any(name in names for names in axes):
            raise ConfigError("chart.box.%s: not a coordinate of this chart" % name)
        iv = intervals[name] = _array(v, (2,), "chart.box.%s" % name, numbers=True)
        if not iv[0] < iv[1]:
            raise ConfigError("chart.box.%s: empty interval %r" % (name, iv))
    boxes = ([intervals.get(nm, (-1.0, 1.0)) for nm in names] for names in axes)
    return _wrap("chart", Chart, base, n, *boxes)


def _structure(raw, chart):
    m, n = chart.dim_base, chart.fibre_dim
    _section(raw, "structure", ("rho0", "rho", "c0", "c"), ("rho0", "rho"))
    shapes = {"rho0": (m,), "rho": (n, m), "c0": (n, n)}
    rows = {k: _array(raw[k], shape, "structure." + k) for k, shape in shapes.items() if k in raw}
    c = _pairs(raw["c"], n, "structure.c") if "c" in raw else None
    return _wrap("structure", AffgebroidModel, chart, c=c, **rows)


def _atiyah(raw, chart):
    _section(raw, "atiyah", ("algebra_dim", "c", "k0", "k"), ("k0", "k"))
    r = _int(raw.get("algebra_dim"), "atiyah.algebra_dim", 1)
    m = chart.dim_base - 1
    if chart.fibre_dim != m + r:
        raise ConfigError(
            "chart.fibre_dim: atiyah charts need spatial + algebra = %d, got %d"
            % (m + r, chart.fibre_dim)
        )
    return _wrap(
        "atiyah",
        AtiyahSpec,
        chart.base_names,
        r,
        _pairs(raw.get("c", {}), r, "atiyah.c", numbers=True),
        _array(raw["k0"], (r,), "atiyah.k0"),
        _array(raw["k"], (m, r), "atiyah.k"),
        base_box=chart.base_box,
        fibre_box=chart.fibre_box,
        dual_box=chart.dual_box,
    )


def _energy(raw, key, system, model):
    """The system of the energy function at key, or None if there is none."""
    source = raw.get(key)
    if source is None:
        return None
    if not isinstance(source, str):
        raise ConfigError("%s: expected an expression string" % key)
    return _wrap(key, system, model, source)


def _initial(raw, chart):
    _section(raw, "initial", ("x", "y", "p"))
    sizes = {"x": chart.dim_base, "y": chart.fibre_dim, "p": chart.fibre_dim}
    return SimpleNamespace(**{
        k: np.array(_array(raw[k], (size,), "initial." + k, numbers=True)) if k in raw else None
        for k, size in sizes.items()
    })


# per method: its step-size keys with their defaults, all of which must be
# positive, and the error when one is not; t0 and t1 are common to both
_METHODS = {
    "rk4": ({"dt": 1e-3}, "integrator.dt: must be positive"),
    "rk45": ({"rtol": 1e-8, "atol": 1e-10}, "integrator tolerances must be positive"),
}


def _integrator(raw):
    if not isinstance(raw, dict):
        raise ConfigError("integrator: expected an object")
    method = raw.get("method", "rk4")
    if not isinstance(method, str) or method not in _METHODS:
        raise ConfigError("integrator.method: expected rk4 or rk45, got %r" % (method,))
    steps, nonpositive = _METHODS[method]
    defaults = dict(steps, t0=0.0, t1=1.0)
    _section(raw, "integrator", {"method", *defaults})
    out = SimpleNamespace(
        method=method,
        **{k: _num(raw.get(k, d), "integrator." + k) for k, d in defaults.items()},
    )
    if min(getattr(out, k) for k in steps) <= 0.0:
        raise ConfigError(nonpositive)
    if not out.t1 > out.t0:
        raise ConfigError("integrator: t1 must exceed t0")
    return out


_TOP_KEYS = ("chart", "structure", "atiyah", "lagrangian", "hamiltonian", "initial",
             "integrator", "seed")


def load_config(path):
    """Parse and schema-check a JSON config; everything downstream works off
    the bundle this returns."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("%s: invalid JSON, line %d column %d: %s" % (path, e.lineno, e.colno, e.msg))
    except ValueError as e:  # bytes that are not UTF-8, or an integer too long to convert
        raise ConfigError("%s: invalid JSON: %s" % (path, e))
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _section(raw, "config", _TOP_KEYS, ("chart",))
    chart = _chart(raw["chart"])
    if ("structure" in raw) == ("atiyah" in raw):
        raise ConfigError("config: exactly one of structure/atiyah is required")
    spec = _atiyah(raw["atiyah"], chart) if "atiyah" in raw else None
    model = _structure(raw["structure"], chart) if spec is None else reduce_spec(spec)
    return SimpleNamespace(
        raw=raw,
        chart=chart,
        model=model,
        spec=spec,
        # parse errors in the energy functions surface here, with their key
        lag_sys=_energy(raw, "lagrangian", LagrangianSystem, model),
        ham_sys=_energy(raw, "hamiltonian", HamiltonianSystem, model),
        initial=_initial(raw.get("initial", {}), chart),
        integrator=_integrator(raw.get("integrator", {})),
        seed=_int(raw.get("seed", 0), "seed", 0),
    )


def _write(path, text):
    """Write text to path, an unwritable path reported as a config error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (path, e))


def _pure_algebra(model):
    # no anchors and no reference bracket: momentum norm is then conserved
    # for orthogonal-structure algebras and worth a column; a constant
    # field folds to its value
    fields = [f for row in (model.rho0, *model.rho, *model.c0) for f in row]
    return all(f.is_constant() and literal_value(rebuild(f.ast)) == 0.0 for f in fields)


def cmd_validate(args):
    if args.samples < 1:
        raise ConfigError("--samples: expected a positive integer, got %d" % args.samples)
    _positive(args.tol, "--tol")
    bundle = load_config(args.config)
    report = validate_structure(
        bundle.model, tol=args.tol, samples=args.samples, seed=bundle.seed
    )
    print(report.summary())
    print("worst anchor point:", np.array2string(report.worst_anchor_point))
    print("worst jacobi point:", np.array2string(report.worst_jacobi_point))
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_simulate(args):
    bundle = load_config(args.config)
    chart = bundle.chart
    m = chart.dim_base
    if bundle.initial.x is None:
        raise ConfigError("initial.x: required for simulate")
    if args.mode == "lagrangian":
        if bundle.lag_sys is None:
            raise ConfigError("lagrangian: required for --mode lagrangian")
        if bundle.initial.y is None:
            raise ConfigError("initial.y: required for --mode lagrangian")
        field = el_vector_field(bundle.lag_sys)
        state0 = np.concatenate([bundle.initial.x, bundle.initial.y])
        coord_names = chart.fibre_names
        value_name = "L"
    else:
        if bundle.ham_sys is None:
            raise ConfigError("hamiltonian: required for --mode hamiltonian")
        if bundle.initial.p is None:
            raise ConfigError("initial.p: required for --mode hamiltonian")
        field = hamilton_vector_field(bundle.ham_sys)
        state0 = np.concatenate([bundle.initial.x, bundle.initial.p])
        coord_names = chart.dual_names
        value_name = "H"

    integ = bundle.integrator
    if integ.method == "rk4":
        traj = integrate_rk4(field, state0, integ.t0, integ.t1, integ.dt)
    else:
        traj = integrate_rk45(
            field, state0, integ.t0, integ.t1, rtol=integ.rtol, atol=integ.atol
        )

    with_casimir = args.mode == "hamiltonian" and _pure_algebra(bundle.model)
    base_headers = ["t_state" if nm == "t" else nm for nm in chart.base_names]
    header = ["t"] + base_headers + list(coord_names) + [value_name, "residual"]
    states = traj.states
    # the field and its energy at every state but the last are the
    # integrator's first stage there, which the field being pure makes
    # exact to reuse
    rate, value = rate_and_energy(field, traj.final)
    if len(traj) >= 3:
        rates = np.vstack([traj.slopes, rate])
        residual = np.max(np.abs(time_derivative(traj.times, states) - rates), axis=1)
    else:
        residual = np.full(len(traj), np.nan)
    columns = [traj.times, states, np.append(traj.energies, value), residual]
    if with_casimir:
        header.append("casimir")
        # a dot per row: a vectorised sum of squares may round differently
        columns.append([0.5 * float(s[m:] @ s[m:]) for s in states])
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(r) for r in np.column_stack(columns).tolist()]
    _write(args.out, "\n".join(lines) + "\n")
    print("wrote %d rows to %s" % (len(traj), args.out))
    return 0


def _parse_grid(text, chart):
    """--grid "y1=lo:hi:k,y2=lo:hi:k" -> per-coordinate sample arrays; any
    coordinate not named keeps its box with the default count."""
    axes = {}
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ConfigError("grid: expected name=lo:hi:count, got %r" % part)
            name, rng = part.split("=", 1)
            name = name.strip()
            if name not in chart.fibre_names:
                raise ConfigError("grid: %r is not a velocity coordinate" % name)
            if name in axes:
                raise ConfigError("grid: duplicate axis %r" % name)
            bits = rng.split(":")
            if len(bits) != 3:
                raise ConfigError("grid: expected lo:hi:count in %r" % part)
            try:
                lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
            except ValueError:
                raise ConfigError("grid: bad numbers in %r" % part)
            if count < 1 or not lo <= hi:
                raise ConfigError("grid: need lo <= hi and count >= 1 in %r" % part)
            axes[name] = (lo, hi, count)
    values = []
    for name, (blo, bhi) in zip(chart.fibre_names, chart.fibre_box):
        lo, hi, count = axes.get(name, (blo, bhi, 5))
        if lo < blo or hi > bhi:
            raise ConfigError(
                "grid: %s range [%g, %g] leaves the box [%g, %g]" % (name, lo, hi, blo, bhi)
            )
        values.append(np.linspace(lo, hi, count))
    return values


def cmd_legendre(args):
    _positive(args.tol, "--tol")
    bundle = load_config(args.config)
    if bundle.lag_sys is None:
        raise ConfigError("lagrangian: required for legendre")
    if bundle.initial.x is None:
        raise ConfigError("initial.x: required for legendre")
    sys_obj = bundle.lag_sys
    x0 = bundle.initial.x
    axes = _parse_grid(args.grid, bundle.chart)
    names = bundle.chart.fibre_names
    print("base point:", np.array2string(x0))
    print("%s  %12s  %12s  %s" % ("  ".join("%10s" % nm for nm in names), "roundtrip", "detW", "newton"))
    worst = 0.0
    dets = []
    all_ok = True
    mesh = np.meshgrid(*axes, indexing="ij")
    cells = np.stack([g.ravel() for g in mesh], axis=-1)
    const = sys_obj.constant_hessian  # W at every cell, its determinant taken once
    det_w = None if const is None else float(np.linalg.det(np.reshape(const, (len(names),) * 2)))
    for y in cells:
        status = "ok"
        err = float("nan")
        det = float("nan")
        try:
            _, p, w = sys_obj.legendre_data(x0, y)
            det = float(np.linalg.det(w)) if det_w is None else det_w
            # a Newton that starts at its root takes no step, so no fibre
            # solve meets W there; a constant W passed the rule already
            if const is None and not regularity(w)[0]:
                raise SingularLagrangian("fibre Hessian singular")
            v = VStarPoint(x0, p)
            back = leg_inverse(sys_obj, v)
            err = float(np.max(np.abs(back.y - y)))
            worst = max(worst, err)
            dets.append(det)
        except SingularLagrangian:
            status = "singular"
            all_ok = False
        except NewtonDivergence:
            status = "diverged"
            all_ok = False
        print(
            "%s  %12s  %12s  %s"
            % ("  ".join("%10.4g" % v for v in y), "%.4e" % err, "%.4g" % det, status)
        )
    sign_ok = bool(dets) and (all(d > 0 for d in dets) or all(d < 0 for d in dets))
    hyper = all_ok and sign_ok and worst < args.tol
    print("max roundtrip error: %s (tol %g)" % (("%.4e" % worst) if dets else "n/a", args.tol))
    print("hyperregular on grid: %s" % ("yes" if hyper else "no"))
    return 0 if hyper else 1


def _default_energy(chart, kind):
    names = chart.fibre_names if kind == "L" else chart.dual_names
    return " + ".join("0.5*%s^2" % nm for nm in names)


def _sampled(points, at):
    """Row residual: the max of at(bundle, rng) over points draws, where at
    may return several residuals.  np.max propagates NaN, so one non-finite
    residual fails the row."""
    return lambda bundle, rng: float(np.max([at(bundle, rng) for _ in range(points)]))


def _gap(p, q):
    """Max-abs coordinate distance between two points of one kind."""
    return float(
        np.max(np.abs(np.concatenate([getattr(p, s) - getattr(q, s) for s in p.__slots__])))
    )


def _involution_gap(bundle, rng):
    j = bundle.model.chart.sample_jet(rng)
    return _gap(sigma(bundle.model, sigma(bundle.model, j)), j)


def _dual_map_gap(bundle, rng):
    q = bundle.model.chart.sample_phase(rng)
    return _gap(a_map_inverse(bundle.model, a_map(bundle.model, q)), q)


def _generated_residual(bundle, rng):
    p = s_l_generator(bundle.lag_sys, bundle.model.chart.sample_a(rng))
    return s_l_residual(bundle.lag_sys, p).max_abs


def _submanifold_match(bundle, rng):
    # one Hamiltonian for every point: its Newton warm start carries over
    ham = InducedHamiltonian(bundle.lag_sys)

    def at(bundle, rng):
        ph = s_h_point(ham, bundle.model.chart.sample_vstar(rng))
        on_l = s_l_residual(bundle.lag_sys, ph).max_abs
        pl = s_l_generator(bundle.lag_sys, bundle.model.chart.sample_a(rng))
        return on_l, _gap(s_h_point(ham, VStarPoint(pl.x, pl.p)), pl)

    return _sampled(50, at)(bundle, rng)


def _flow_commutation(bundle, rng):
    ham = InducedHamiltonian(bundle.lag_sys)
    a0 = APoint(bundle.initial.x, bundle.initial.y)
    return flow_commutation_check(ham, a0, 1.0, 1e-3)


def _pairing(bundle, rng):
    # the config's H against L at p = dL/dy: H = y p - L and dH/dp = y, at
    # points from an own generator, so the shared check stream never shifts
    def at(bundle, rng):
        a = bundle.model.chart.sample_a(rng)
        lval, p, _ = bundle.lag_sys.legendre_data(a.x, a.y)
        h, dhdp = bundle.ham_sys.value(a.x, p), bundle.ham_sys.grad(a.x, p)[1]
        return abs(h + lval - float(a.y @ p)), float(np.max(np.abs(dhdp - a.y)))

    return _sampled(25, at)(bundle, np.random.default_rng(bundle.seed))


def _route_gap(bundle, rng):
    # both fields built once for every point
    direct = hamilton_vector_field(bundle.ham_sys)
    bracket = poisson_hamiltonian_field(bundle.ham_sys)

    def at(bundle, rng):
        q = bundle.model.chart.sample_vstar(rng)
        state = np.concatenate([q.x, q.p])
        return float(np.max(np.abs(direct(state) - bracket(state))))

    return _sampled(100, at)(bundle, rng)


def _validated(bundle, rng):
    # own generator from the config seed, so the shared check stream never shifts
    return validate_structure(bundle.model, samples=30, seed=bundle.seed).max_residual


def _lp_assembly(bundle, rng):
    # one system for every point: the config's, or the default energy on its model
    lag = bundle.lag_sys or LagrangianSystem(bundle.model, _default_energy(bundle.chart, "L"))

    def at(bundle, rng):
        return lp_equations_check(bundle.spec, lag, bundle.spec.chart.sample_a(rng)).max_abs

    return _sampled(25, at)(bundle, rng)


def _hp_assembly(bundle, rng):
    ham = bundle.ham_sys or HamiltonianSystem(bundle.model, _default_energy(bundle.chart, "H"))

    def at(bundle, rng):
        return hp_equations_check(bundle.spec, ham, bundle.spec.chart.sample_vstar(rng)).max_abs

    return _sampled(25, at)(bundle, rng)


def _no_lagrangian(bundle):
    return "no lagrangian" if bundle.lag_sys is None else None


def _no_hamiltonian(bundle):
    return "no hamiltonian" if bundle.ham_sys is None else None


def _no_flow_start(bundle):
    if bundle.lag_sys is None or bundle.initial.x is None or bundle.initial.y is None:
        return "needs lagrangian and initial x, y"
    return None


def _no_atiyah(bundle):
    return "not an atiyah config" if bundle.spec is None else None


def _is_atiyah(bundle):
    return None if bundle.spec is None else "atiyah config, see atiyah_validate"


_Check = namedtuple("_Check", "name suite tol skip residual")

# Rows run in this order and draw their points from one generator seeded by
# the config, so each row's points depend on the rows before it.  A row of
# suite "all" runs only in the full suite.  skip is None or returns the
# reason to skip the row.
CHECKS = (
    _Check("involution", "involution", 1e-12, None, _sampled(200, _involution_gap)),
    _Check("dual_map_round_trip", "tulczyjew", 1e-12, None, _sampled(100, _dual_map_gap)),
    _Check("lagrangian_submanifold", "tulczyjew", 1e-12, _no_lagrangian,
           _sampled(50, _generated_residual)),
    _Check("submanifold_match", "tulczyjew", 1e-8, _no_lagrangian, _submanifold_match),
    _Check("legendre_pairing", "tulczyjew", 1e-10,
           lambda bundle: _no_lagrangian(bundle) or _no_hamiltonian(bundle), _pairing),
    _Check("flow_commutation", "flows", 1e-5, _no_flow_start, _flow_commutation),
    _Check("hamilton_route_equality", "poisson", 1e-10, _no_hamiltonian, _route_gap),
    _Check("atiyah_validate", "atiyah", 1e-9, _no_atiyah, _validated),
    _Check("lp_assembly", "atiyah", 1e-10, _no_atiyah, _lp_assembly),
    _Check("hp_assembly", "atiyah", 1e-10, _no_atiyah, _hp_assembly),
    _Check("structure_validate", "all", 1e-9, _is_atiyah, _validated),
)


def cmd_check(args):
    bundle = load_config(args.config)
    rng = np.random.default_rng(bundle.seed)
    failed = False
    for row in CHECKS:
        if args.suite not in ("all", row.suite):
            continue
        why = row.skip and row.skip(bundle)
        if why:
            print("%-26s %-36s SKIP" % (row.name, "(%s)" % why))
            continue
        try:
            res = row.residual(bundle, rng)
        except _NUMERIC_ERRORS as e:
            ok, text = False, "%-36s" % ("error: %s" % e)
        else:
            ok, text = res < row.tol, "max %.3e  tol %.1e   " % (res, row.tol)
        failed = failed or not ok
        print("%-26s %s %s" % (row.name, text, "PASS" if ok else "FAIL"))
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def cmd_atiyah_expand(args):
    bundle = load_config(args.config)
    if bundle.spec is None:
        raise ConfigError("atiyah: required for atiyah-expand")
    model = bundle.model
    chart = bundle.chart
    n = chart.fibre_dim
    names = chart.base_names + chart.fibre_names + chart.dual_names
    box = {nm: list(iv) for nm, iv in zip(names, chart.base_box + chart.fibre_box + chart.dual_box)}
    structure = {
        "rho0": [f.source for f in model.rho0],
        "rho": [[f.source for f in row] for row in model.rho],
        "c0": [[f.source for f in row] for row in model.c0],
    }
    if model.c:
        structure["c"] = {
            "%d,%d" % key: [f.source for f in model.c[key]] for key in sorted(model.c)
        }
    out = {
        "chart": {"base": list(chart.base_names), "fibre_dim": n, "box": box},
        "structure": structure,
    }
    for key in ("lagrangian", "hamiltonian", "initial", "integrator", "seed"):
        if key in bundle.raw:
            out[key] = bundle.raw[key]
    _write(args.out, json.dumps(out, indent=2) + "\n")
    print("wrote expanded model config to %s" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affgebroid",
        description="validate, simulate and cross-check models given as JSON configs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="anchor/Jacobi residuals at sampled points")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="integrate the dynamics, write CSV")
    p.add_argument("config")
    p.add_argument("--mode", choices=["lagrangian", "hamiltonian"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("legendre", help="fibre-wise duality round trip over a grid")
    p.add_argument("config")
    p.add_argument("--grid", default="", help='e.g. "y1=-1:1:9,y2=0:1:5"')
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_legendre)

    p = sub.add_parser("check", help="structural theorem residual suites")
    p.add_argument("config")
    p.add_argument(
        "--suite",
        choices=list(dict.fromkeys(["all"] + [row.suite for row in CHECKS])),
        default="all",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("atiyah-expand", help="emit the reduced model as a plain config")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_atiyah_expand)

    return parser


@functools.cache
def _parser():
    # argparse looks sys.stderr up when it reports, so one parser serves all
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except JacobiViolation as e:
        print("validation failure: %s" % e, file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
