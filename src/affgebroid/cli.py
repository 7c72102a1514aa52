"""Command-line front end: JSON configs in, reports and CSV trajectories out.

Exit codes: 0 everything passed, 1 a mathematical check failed, 2 bad usage
or bad config, 3 runtime numeric failure (blow-up, singular fibre Hessian,
stalled Newton or step underflow).

Config schema, a single JSON object; unknown keys are rejected anywhere and
reported with their path:

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
  newton       {"tol": eps, "max_iter": k}
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
    ParseError,
    SingularLagrangian,
    StepUnderflow,
)
from .flow import integrate_rk4, integrate_rk45, time_derivative
from .hamiltonian import (
    HamiltonianSystem,
    hamilton_vector_field,
    poisson_hamiltonian_field,
)
from .lagrangian import LagrangianSystem, el_vector_field
from .legendre import LegendrePair, NewtonParams, flow_commutation_check, leg, leg_inverse
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
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError("%s: expected an object" % path)
    for k in obj:
        if k not in allowed:
            raise ConfigError(
                "%s.%s: unknown key (allowed: %s)" % (path, k, ", ".join(sorted(allowed)))
            )


def _get_num(obj, key, path, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError("%s.%s: required number missing" % (path, key))
        return default
    v = obj[key]
    if not _is_num(v):
        raise ConfigError("%s.%s: expected a number, got %r" % (path, key, v))
    return float(v)


def _expr_row(v, length, path):
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError("%s: expected a list of %d expressions" % (path, length))
    out = []
    for i, entry in enumerate(v):
        if isinstance(entry, str) or _is_num(entry):
            out.append(entry)
        else:
            raise ConfigError("%s[%d]: expected an expression string or number" % (path, i))
    return out


def _num_row(v, length, path):
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError("%s: expected a list of %d numbers" % (path, length))
    for i, entry in enumerate(v):
        if not _is_num(entry):
            raise ConfigError("%s[%d]: expected a number" % (path, i))
    return [float(entry) for entry in v]


def _pair_key(key, n, path):
    parts = key.split(",")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        a = b = -1
    if len(parts) != 2 or not (1 <= a < b <= n):
        raise ConfigError(
            '%s: keys must look like "a,b" with 1 <= a < b <= %d, got %r' % (path, n, key)
        )
    return a, b


def _load_chart(raw):
    _check_keys(raw, {"base", "fibre_dim", "box"}, "chart")
    base = raw.get("base")
    if not isinstance(base, list) or not base or not all(isinstance(s, str) for s in base):
        raise ConfigError("chart.base: expected a nonempty list of coordinate names")
    fdim = raw.get("fibre_dim")
    if not isinstance(fdim, int) or isinstance(fdim, bool) or fdim < 1:
        raise ConfigError("chart.fibre_dim: expected a positive integer")
    box = raw.get("box", {})
    if not isinstance(box, dict):
        raise ConfigError("chart.box: expected an object keyed by coordinate name")
    names = list(base)
    ynames = ["y%d" % (a + 1) for a in range(fdim)]
    pnames = ["p%d" % (a + 1) for a in range(fdim)]
    known = set(names) | set(ynames) | set(pnames)
    intervals = {}
    for k, v in box.items():
        if k not in known:
            raise ConfigError("chart.box.%s: not a coordinate of this chart" % k)
        iv = _num_row(v, 2, "chart.box.%s" % k)
        if not iv[0] < iv[1]:
            raise ConfigError("chart.box.%s: empty interval %r" % (k, iv))
        intervals[k] = tuple(iv)
    pick = lambda nm: intervals.get(nm, (-1.0, 1.0))
    try:
        return Chart(
            base,
            fdim,
            base_box=[pick(nm) for nm in names],
            fibre_box=[pick(nm) for nm in ynames],
            dual_box=[pick(nm) for nm in pnames],
        )
    except ValueError as e:
        raise ConfigError("chart: %s" % e)


def _load_structure(raw, chart):
    m, n = chart.dim_base, chart.fibre_dim
    _check_keys(raw, {"rho0", "rho", "c0", "c"}, "structure")
    if "rho0" not in raw or "rho" not in raw:
        raise ConfigError("structure: rho0 and rho are required")
    rho0 = _expr_row(raw["rho0"], m, "structure.rho0")
    rho_raw = raw["rho"]
    if not isinstance(rho_raw, list) or len(rho_raw) != n:
        raise ConfigError("structure.rho: expected %d rows" % n)
    rho = [_expr_row(r, m, "structure.rho[%d]" % i) for i, r in enumerate(rho_raw)]
    c0 = None
    if "c0" in raw:
        c0_raw = raw["c0"]
        if not isinstance(c0_raw, list) or len(c0_raw) != n:
            raise ConfigError("structure.c0: expected %d rows" % n)
        c0 = [_expr_row(r, n, "structure.c0[%d]" % i) for i, r in enumerate(c0_raw)]
    c = None
    if "c" in raw:
        if not isinstance(raw["c"], dict):
            raise ConfigError("structure.c: expected an object")
        c = {}
        for key, row in raw["c"].items():
            pair = _pair_key(key, n, "structure.c.%s" % key)
            c[pair] = _expr_row(row, n, "structure.c.%s" % key)
    try:
        return AffgebroidModel(chart, rho0, rho, c0=c0, c=c)
    except (ParseError, ValueError) as e:
        raise ConfigError("structure: %s" % e)


def _load_atiyah(raw, chart):
    _check_keys(raw, {"algebra_dim", "c", "k0", "k"}, "atiyah")
    r = raw.get("algebra_dim")
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ConfigError("atiyah.algebra_dim: expected a positive integer")
    m = chart.dim_base - 1
    if chart.fibre_dim != m + r:
        raise ConfigError(
            "chart.fibre_dim: atiyah charts need spatial + algebra = %d, got %d"
            % (m + r, chart.fibre_dim)
        )
    craw = raw.get("c", {})
    if not isinstance(craw, dict):
        raise ConfigError("atiyah.c: expected an object")
    consts = {}
    for key, row in craw.items():
        pair = _pair_key(key, r, "atiyah.c.%s" % key)
        consts[pair] = _num_row(row, r, "atiyah.c.%s" % key)
    if "k0" not in raw or "k" not in raw:
        raise ConfigError("atiyah: k0 and k are required")
    k0 = _expr_row(raw["k0"], r, "atiyah.k0")
    kraw = raw["k"]
    if not isinstance(kraw, list) or len(kraw) != m:
        raise ConfigError("atiyah.k: expected %d rows" % m)
    k = [_expr_row(row, r, "atiyah.k[%d]" % i) for i, row in enumerate(kraw)]
    try:
        return AtiyahSpec(
            chart.base_names,
            r,
            consts,
            k0,
            k,
            base_box=chart.base_box,
            fibre_box=chart.fibre_box,
            dual_box=chart.dual_box,
        )
    except (ParseError, ValueError) as e:
        if isinstance(e, JacobiViolation):
            raise
        raise ConfigError("atiyah: %s" % e)


def _load_initial(raw, chart):
    _check_keys(raw, {"x", "y", "p"}, "initial")
    m, n = chart.dim_base, chart.fibre_dim
    out = SimpleNamespace(x=None, y=None, p=None)
    if "x" in raw:
        out.x = np.array(_num_row(raw["x"], m, "initial.x"))
    if "y" in raw:
        out.y = np.array(_num_row(raw["y"], n, "initial.y"))
    if "p" in raw:
        out.p = np.array(_num_row(raw["p"], n, "initial.p"))
    return out


def _load_integrator(raw):
    if not isinstance(raw, dict):
        raise ConfigError("integrator: expected an object")
    method = raw.get("method", "rk4")
    if method == "rk4":
        _check_keys(raw, {"method", "dt", "t0", "t1"}, "integrator")
        out = SimpleNamespace(
            method="rk4",
            dt=_get_num(raw, "dt", "integrator", default=1e-3),
            t0=_get_num(raw, "t0", "integrator", default=0.0),
            t1=_get_num(raw, "t1", "integrator", default=1.0),
        )
        if out.dt <= 0.0:
            raise ConfigError("integrator.dt: must be positive")
    elif method == "rk45":
        _check_keys(raw, {"method", "rtol", "atol", "t0", "t1"}, "integrator")
        out = SimpleNamespace(
            method="rk45",
            rtol=_get_num(raw, "rtol", "integrator", default=1e-8),
            atol=_get_num(raw, "atol", "integrator", default=1e-10),
            t0=_get_num(raw, "t0", "integrator", default=0.0),
            t1=_get_num(raw, "t1", "integrator", default=1.0),
        )
        if out.rtol <= 0.0 or out.atol <= 0.0:
            raise ConfigError("integrator tolerances must be positive")
    else:
        raise ConfigError("integrator.method: expected rk4 or rk45, got %r" % method)
    if not out.t1 > out.t0:
        raise ConfigError("integrator: t1 must exceed t0")
    return out


def load_config(path):
    """Parse and schema-check a JSON config; everything downstream works off
    the bundle this returns."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("%s: invalid JSON, line %d column %d: %s" % (path, e.lineno, e.colno, e.msg))
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _check_keys(
        raw,
        {"chart", "structure", "atiyah", "lagrangian", "hamiltonian", "initial",
         "integrator", "newton", "seed"},
        "config",
    )
    if "chart" not in raw:
        raise ConfigError("config: chart is required")
    chart = _load_chart(raw["chart"])
    has_structure = "structure" in raw
    has_atiyah = "atiyah" in raw
    if has_structure == has_atiyah:
        raise ConfigError("config: exactly one of structure/atiyah is required")
    spec = None
    if has_atiyah:
        spec = _load_atiyah(raw["atiyah"], chart)
        model = reduce_spec(spec)
    else:
        model = _load_structure(raw["structure"], chart)
    lag = raw.get("lagrangian")
    if lag is not None and not isinstance(lag, str):
        raise ConfigError("lagrangian: expected an expression string")
    ham = raw.get("hamiltonian")
    if ham is not None and not isinstance(ham, str):
        raise ConfigError("hamiltonian: expected an expression string")
    initial = _load_initial(raw.get("initial", {}), chart)
    integ = _load_integrator(raw.get("integrator", {}))
    newton_raw = raw.get("newton", {})
    _check_keys(newton_raw, {"tol", "max_iter"}, "newton")
    ntol = _get_num(newton_raw, "tol", "newton", default=1e-12)
    niter = newton_raw.get("max_iter", 50)
    if not isinstance(niter, int) or isinstance(niter, bool) or niter < 1:
        raise ConfigError("newton.max_iter: expected a positive integer")
    if ntol <= 0.0:
        raise ConfigError("newton.tol: must be positive")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: expected a nonnegative integer")
    bundle = SimpleNamespace(
        raw=raw,
        chart=chart,
        model=model,
        spec=spec,
        lagrangian=lag,
        hamiltonian=ham,
        initial=initial,
        integrator=integ,
        newton=NewtonParams(tol=ntol, max_iter=niter),
        seed=seed,
    )
    _bind_expressions(bundle)
    return bundle


def _bind_expressions(bundle):
    # parse errors in the energy functions are config errors, so surface them
    # at load time with their key
    try:
        if bundle.lagrangian is not None:
            bundle.lag_sys = LagrangianSystem(bundle.model, bundle.lagrangian)
        else:
            bundle.lag_sys = None
    except (ParseError, ValueError) as e:
        raise ConfigError("lagrangian: %s" % e)
    try:
        if bundle.hamiltonian is not None:
            bundle.ham_sys = HamiltonianSystem(bundle.model, bundle.hamiltonian)
        else:
            bundle.ham_sys = None
    except (ParseError, ValueError) as e:
        raise ConfigError("hamiltonian: %s" % e)


def _fmt(v):
    return "%.17g" % v


def _pure_algebra(model):
    # no anchors and no reference bracket: momentum norm is then conserved
    # for orthogonal-structure algebras and worth a column
    fields = list(model.rho0)
    for row in model.rho:
        fields.extend(row)
    for row in model.c0:
        fields.extend(row)
    m = model.chart.dim_base
    origin = np.zeros(m)
    return all(f.is_constant() and f.eval(origin) == 0.0 for f in fields)


def cmd_validate(args):
    if args.samples < 1:
        raise ConfigError("--samples: expected a positive integer, got %d" % args.samples)
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
        sys_obj = bundle.lag_sys
        field = el_vector_field(sys_obj)
        state0 = np.concatenate([bundle.initial.x, bundle.initial.y])
        coord_names = chart.fibre_names
        value_name = "L"
        value_field = sys_obj.lagrangian
    else:
        if bundle.ham_sys is None:
            raise ConfigError("hamiltonian: required for --mode hamiltonian")
        if bundle.initial.p is None:
            raise ConfigError("initial.p: required for --mode hamiltonian")
        sys_obj = bundle.ham_sys
        field = hamilton_vector_field(sys_obj)
        state0 = np.concatenate([bundle.initial.x, bundle.initial.p])
        coord_names = chart.dual_names
        value_name = "H"
        value_field = sys_obj.hamiltonian

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
    if with_casimir:
        header.append("casimir")

    if len(traj) >= 3:
        # the field at every state but the last is the integrator's first
        # stage there, which the field being pure makes exact to reuse
        defect = time_derivative(traj.times, traj.states)
        rates = np.vstack([traj.slopes, field(traj.final)])
    else:
        defect = None
    lines = [",".join(header)]
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        value = value_field.eval(state)
        if defect is None:
            residual = float("nan")
        else:
            residual = float(np.max(np.abs(defect[i] - rates[i])))
        row = [t] + list(state) + [value, residual]
        if with_casimir:
            row.append(0.5 * float(state[m:] @ state[m:]))
        lines.append(",".join(_fmt(v) for v in row))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
            if count < 1 or hi < lo:
                raise ConfigError("grid: need lo <= hi and count >= 1 in %r" % part)
            axes[name] = (lo, hi, count)
    values = []
    for name, (blo, bhi) in zip(chart.fibre_names, chart.fibre_box):
        lo, hi, count = axes.get(name, (blo, bhi, 5))
        if lo < blo or hi > bhi:
            raise ConfigError(
                "grid: %s range [%g, %g] leaves the box [%g, %g]" % (name, lo, hi, blo, bhi)
            )
        values.append(np.linspace(lo, hi, count) if count > 1 else np.array([lo]))
    return values


def cmd_legendre(args):
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
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    cells = np.stack([g.ravel() for g in mesh], axis=-1) if mesh else np.zeros((0, 0))
    for y in cells:
        a = APoint(x0, y)
        status = "ok"
        err = float("nan")
        det = float("nan")
        try:
            det = float(np.linalg.det(sys_obj.fibre_hessian(x0, y)))
            v = leg(sys_obj, a)
            back = leg_inverse(sys_obj, v, params=bundle.newton)
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
    return s_l_residual(bundle.lag_sys, p, params=bundle.newton).max_abs


def _submanifold_match(bundle, rng):
    # one pair for every point: its Newton warm start carries between them
    pair = LegendrePair(bundle.lag_sys, params=bundle.newton)

    def at(bundle, rng):
        ph = s_h_point(pair.ham, bundle.model.chart.sample_vstar(rng))
        on_l = s_l_residual(pair.lag, ph, params=bundle.newton).max_abs
        pl = s_l_generator(pair.lag, bundle.model.chart.sample_a(rng))
        return on_l, _gap(s_h_point(pair.ham, VStarPoint(pl.x, pl.p)), pl)

    return _sampled(50, at)(bundle, rng)


def _flow_commutation(bundle, rng):
    pair = LegendrePair(bundle.lag_sys, params=bundle.newton)
    a0 = APoint(bundle.initial.x, bundle.initial.y)
    return flow_commutation_check(pair, a0, 1.0, 1e-3)


def _route_gaps(bundle, rng):
    q = bundle.model.chart.sample_vstar(rng)
    state = np.concatenate([q.x, q.p])
    lhs = hamilton_vector_field(bundle.ham_sys)(state)
    return [
        float(np.max(np.abs(lhs - poisson_hamiltonian_field(bundle.ham_sys, y0=y0)(state))))
        for y0 in (-1.0, 0.0, 1.0)
    ]


def _validated(bundle, rng):
    # own generator from the config seed, so the shared check stream never shifts
    return validate_structure(bundle.model, samples=30, seed=bundle.seed, tol=1e-9).max_residual


def _lp_residual(bundle, rng):
    src = bundle.lagrangian or _default_energy(bundle.chart, "L")
    return lp_equations_check(bundle.spec, src, bundle.spec.chart.sample_a(rng)).max_abs


def _hp_residual(bundle, rng):
    src = bundle.hamiltonian or _default_energy(bundle.chart, "H")
    return hp_equations_check(bundle.spec, src, bundle.spec.chart.sample_vstar(rng)).max_abs


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
    _Check("flow_commutation", "flows", 1e-5, _no_flow_start, _flow_commutation),
    _Check("hamilton_route_equality", "poisson", 1e-10, _no_hamiltonian,
           _sampled(100, _route_gaps)),
    _Check("atiyah_validate", "atiyah", 1e-9, _no_atiyah, _validated),
    _Check("lp_assembly", "atiyah", 1e-10, _no_atiyah, _sampled(25, _lp_residual)),
    _Check("hp_assembly", "atiyah", 1e-10, _no_atiyah, _sampled(25, _hp_residual)),
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
    box = {}
    for nm, iv in zip(chart.base_names, chart.base_box):
        box[nm] = list(iv)
    for nm, iv in zip(chart.fibre_names, chart.fibre_box):
        box[nm] = list(iv)
    for nm, iv in zip(chart.dual_names, chart.dual_box):
        box[nm] = list(iv)
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
    for key in ("lagrangian", "hamiltonian", "initial", "integrator", "newton", "seed"):
        if key in bundle.raw:
            out[key] = bundle.raw[key]
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
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


def main(argv=None):
    args = build_parser().parse_args(argv)
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
