"""The two workloads: seeded model configs, the CLI operations of one round,
and the checks on every operation's output.

The checks never call the package.  They use closed-form solutions,
invariants computed from the CSV state columns, fibre Hessians written out
from the energy functions' coefficients, and a numpy Jacobi residual, so a
wrong answer from the program cannot also be the reference.
"""

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# RK4 horizons, validate samples and legendre grids are sized so that one
# round of either workload takes about 17 s on one core, and three rounds fit
# in a 60 s run.  check runs at a fixed cost (its flow check alone is 1000
# RK4 steps), so it takes half of each round.  validate and legendre run
# REPEAT times a round, with the samples and grid given per call.
DT = 1e-3
REPEAT = 3

SO3 = {"1,2": [0, 0, 1], "1,3": [0, -1, 0], "2,3": [1, 0, 0]}


@dataclass
class Model:
    """One model of a workload.  W is the constant fibre Hessian of L and
    offset(x) the rest of dL/dy, so the momenta are W y + offset(x)."""

    name: str
    config: dict
    W: np.ndarray
    t1: float
    samples: int
    grid: str
    offset: object = None
    check: bool = True

    def momenta(self, x, y):
        p = y @ self.W.T
        return p if self.offset is None else p + self.offset(x)


@dataclass
class Op:
    """One CLI call.  kind picks the metric it feeds; controls feed none."""

    name: str
    kind: str
    argv: list
    expect: int = 0
    out: str = None
    model: Model = None
    work: int = 0
    rows: int = None


def _uniform(rng, lo, hi, k):
    return [float(v) for v in rng.uniform(lo, hi, k)]


def _config(chart, body, lag, ham, x, y, W, offset, t1, seed):
    p = np.asarray(y) @ W.T
    if offset is not None:
        p = p + offset(np.asarray(x))
    cfg = {"chart": chart}
    cfg.update(body)
    cfg["lagrangian"] = lag
    cfg["hamiltonian"] = ham
    cfg["initial"] = {"x": x, "y": y, "p": [float(v) for v in p]}
    cfg["integrator"] = {"method": "rk4", "dt": DT, "t0": 0.0, "t1": t1}
    cfg["seed"] = seed
    return cfg


def oscillator(rng, seed):
    W = np.eye(1)
    x = [0.0] + _uniform(rng, 0.5, 1.5, 1)
    y = _uniform(rng, -0.5, 0.5, 1)
    chart = {"base": ["t", "q"], "fibre_dim": 1,
             "box": {"t": [0, 10], "q": [-2, 2], "y1": [-2, 2], "p1": [-2, 2]}}
    body = {"structure": {"rho0": ["1", "0"], "rho": [["0", "1"]]}}
    t1 = 1.5
    cfg = _config(chart, body, "0.5*y1^2 - 0.5*q^2", "0.5*p1^2 + 0.5*q^2",
                  x, y, W, None, t1, seed)
    return Model("oscillator", cfg, W, t1, 4000, "y1=-2:2:400")


def rigid_body(rng, seed):
    W = np.diag([1.0, 2.0, 3.0])
    x = [0.0]
    y = _uniform(rng, -1.2, 1.2, 3)
    chart = {"base": ["t"], "fibre_dim": 3,
             "box": {"t": [0, 10], "y1": [-3, 3], "y2": [-3, 3], "y3": [-3, 3],
                     "p1": [-4, 4], "p2": [-4, 4], "p3": [-4, 4]}}
    body = {"structure": {"rho0": ["0"], "rho": [["0"], ["0"], ["0"]], "c": SO3}}
    t1 = 0.8
    cfg = _config(chart, body, "0.5*y1^2 + y2^2 + 1.5*y3^2",
                  "0.5*p1^2 + 0.25*p2^2 + p3^2/6", x, y, W, None, t1, seed)
    return Model("rigid_body", cfg, W, t1, 1300, "y1=-3:3:7,y2=-3:3:7,y3=-3:3:7")


def scaled_rigid_body(t1):
    """The rigid body with L scaled by 1e-5, fixed inputs.  Scaling L leaves
    the Euler-Lagrange field unchanged, so once it runs its states must match
    the unscaled body's."""
    chart = {"base": ["t"], "fibre_dim": 3, "box": {"t": [0, 10]}}
    body = {"structure": {"rho0": ["0"], "rho": [["0"], ["0"], ["0"]], "c": SO3}}
    cfg = {"chart": chart}
    cfg.update(body)
    cfg["initial"] = {"x": [0.0], "y": [1.0, -0.5, 0.25]}
    cfg["integrator"] = {"method": "rk4", "dt": DT, "t0": 0.0, "t1": t1}
    unscaled = dict(cfg, lagrangian="0.5*y1^2 + y2^2 + 1.5*y3^2")
    scaled = dict(cfg, lagrangian="0.5e-5*y1^2 + 1e-5*y2^2 + 1.5e-5*y3^2")
    return scaled, unscaled


def drifted_plane(rng, seed):
    W = np.array([[1.0, 0.25], [0.25, 1.0]])
    x = [0.0]
    y = _uniform(rng, -1.0, 1.0, 2)
    chart = {"base": ["t"], "fibre_dim": 2,
             "box": {"t": [0, 5], "y1": [-2, 2], "y2": [-2, 2],
                     "p1": [-2, 2], "p2": [-2, 2]}}
    body = {"structure": {"rho0": ["0"], "rho": [["0"], ["0"]],
                          "c0": [["0", "1"], ["-1", "0"]]}}
    t1 = 0.8
    # H is the Legendre transform of L: (1/2) p^T W^-1 p with W^-1 = (16/15)[[1, -1/4], [-1/4, 1]]
    cfg = _config(chart, body, "0.5*y1^2 + 0.5*y2^2 + 0.25*y1*y2",
                  "8*p1^2/15 + 8*p2^2/15 - 4*p1*p2/15", x, y, W, None, t1, seed)
    return Model("drifted_plane", cfg, W, t1, 2000, "y1=-2:2:18,y2=-2:2:18")


def twisted_line(rng, seed):
    W = np.eye(2)

    def offset(x):
        return np.stack([np.asarray(x)[..., 0], np.zeros_like(np.asarray(x)[..., 0])], axis=-1)

    x = _uniform(rng, 0.55, 0.85, 1)
    y = _uniform(rng, -0.5, 0.5, 2)
    chart = {"base": ["x"], "fibre_dim": 2,
             "box": {"x": [0.5, 0.9], "y1": [-1, 1], "y2": [-1, 1], "p1": [-1, 1], "p2": [-1, 1]}}
    body = {"structure": {"rho0": ["0"], "rho": [["1"], ["x"]], "c": {"1,2": ["1", "0"]}}}
    t1 = 0.6
    cfg = _config(chart, body, "0.5*y1^2 + 0.5*y2^2 + x*y1",
                  "0.5*p1^2 + 0.5*p2^2 - x*p1 + 0.5*x^2", x, y, W, offset, t1, seed)
    # no check op: the two atiyah models' checks already take 11 s a round
    return Model("twisted_line", cfg, W, t1, 700, "y1=-1:1:13,y2=-1:1:13", offset=offset,
                 check=False)


def magnetic_line(rng, seed):
    W = np.eye(2)
    x = [0.0] + _uniform(rng, -0.5, 0.5, 1)
    y = _uniform(rng, -0.5, 0.5, 2)
    chart = {"base": ["t", "x1"], "fibre_dim": 2, "box": {"t": [0, 2], "x1": [-1, 1]}}
    body = {"atiyah": {"algebra_dim": 1, "c": {}, "k0": ["0"], "k": [["x1*t"]]}}
    t1 = 0.6
    cfg = _config(chart, body, "0.5*y1^2 + 0.5*y2^2 - 0.5*x1^2",
                  "0.5*p1^2 + 0.5*p2^2 + 0.5*x1^2", x, y, W, None, t1, seed)
    return Model("magnetic_line", cfg, W, t1, 700, "y1=-1:1:13,y2=-1:1:13")


def rotating_frame(rng, seed):
    W = np.diag([1.0, 2.0, 1.0, 3.0])
    x = [0.0] + _uniform(rng, -0.5, 0.5, 1)
    y = _uniform(rng, -0.5, 0.5, 4)
    chart = {"base": ["t", "x1"], "fibre_dim": 4, "box": {"t": [0, 2], "x1": [-1, 1]}}
    body = {"atiyah": {"algebra_dim": 3, "c": SO3,
                       "k0": ["0", "0", "x1"], "k": [["t", "0", "0"]]}}
    t1 = 0.4
    cfg = _config(chart, body, "0.5*y1^2 + y2^2 + 0.5*y3^2 + 1.5*y4^2",
                  "0.5*p1^2 + 0.25*p2^2 + 0.5*p3^2 + p4^2/6", x, y, W, None, t1, seed)
    return Model("rotating_frame", cfg, W, t1, 170, "y1=-1:1:4,y2=-1:1:4,y3=-1:1:4,y4=-1:1:4")


WORKLOADS = {
    "constant_structure": (oscillator, rigid_body, drifted_plane),
    "varying_structure": (twisted_line, magnetic_line, rotating_frame),
}

# the RK45 op: magnetic line in Hamiltonian mode at tight tolerance
RK45 = {"model": "magnetic_line", "rtol": 1e-10, "atol": 1e-12}

# the op that fails today (see scaled_rigid_body)
SCALED = "rigid_body_scaled.simulate_L"


def _grid_cells(grid):
    return int(np.prod([int(part.rsplit(":", 1)[1]) for part in grid.split(",")]))


def build(workload, seed, workdir):
    """Write the workload's configs for this seed into workdir and return
    (config paths, ops of one round)."""
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    paths = []
    ops = []

    def write(name, cfg):
        path = workdir / (name + ".json")
        path.write_text(json.dumps(cfg, indent=1))
        paths.append(str(path))
        return str(path)

    models = []
    for make in WORKLOADS[workload]:
        model = make(rng, int(rng.integers(0, 2**31 - 1)))
        models.append(model)
        cfg = write(model.name, model.config)
        for mode in ("lagrangian", "hamiltonian"):
            out = str(workdir / ("%s_%s.csv" % (model.name, mode)))
            ops.append(Op("%s.simulate_%s" % (model.name, mode[0].upper()), "simulate",
                          ["simulate", cfg, "--mode", mode, "--out", out], out=out, model=model,
                          rows=round(model.t1 / DT) + 1))
        for i in range(REPEAT):
            ops.append(Op("%s.validate.%d" % (model.name, i), "validate",
                          ["validate", cfg, "--samples", str(model.samples)],
                          model=model, work=model.samples))
            ops.append(Op("%s.legendre.%d" % (model.name, i), "legendre",
                          ["legendre", cfg, "--grid", model.grid],
                          model=model, work=_grid_cells(model.grid)))
        if model.check:
            ops.append(Op(model.name + ".check", "check", ["check", cfg, "--suite", "all"],
                          model=model))

    if workload == "constant_structure":
        body = next(m for m in models if m.name == "rigid_body")
        scaled, unscaled = scaled_rigid_body(body.t1)
        cfg = write("rigid_body_scaled", scaled)
        write_ref = workdir / "rigid_body_unscaled.json"
        write_ref.write_text(json.dumps(unscaled, indent=1))
        out = str(workdir / "rigid_body_scaled.csv")
        ops.append(Op(SCALED, "simulate", ["simulate", cfg, "--mode", "lagrangian", "--out", out],
                      out=out, rows=round(body.t1 / DT) + 1))
    else:
        mag = next(m for m in models if m.name == RK45["model"])
        cfg45 = dict(mag.config)
        cfg45["integrator"] = {"method": "rk45", "rtol": RK45["rtol"], "atol": RK45["atol"],
                               "t0": 0.0, "t1": mag.t1}
        cfg = write(mag.name + "_rk45", cfg45)
        out = str(workdir / (mag.name + "_rk45.csv"))
        ops.append(Op(mag.name + ".simulate_H_rk45", "simulate",
                      ["simulate", cfg, "--mode", "hamiltonian", "--out", out], out=out, model=mag))

    broken = str(HERE / "broken_jacobi.json")
    broken_atiyah = str(HERE / "broken_atiyah.json")
    ops.append(Op("broken_jacobi.validate", "control", ["validate", broken], expect=1))
    ops.append(Op("broken_atiyah.validate", "control", ["validate", broken_atiyah], expect=1))
    ops.append(Op("broken_atiyah.check", "control", ["check", broken_atiyah], expect=1))
    return paths, _spread(ops)


def _spread(ops):
    """Order the round so each kind of op is spread evenly over it.  The
    host's speed drifts over seconds; a metric whose ops sit at many moments
    of the round averages that drift instead of catching one stretch."""
    total = Counter(op.kind for op in ops)
    seen = Counter()
    keyed = []
    for index, op in enumerate(ops):
        keyed.append(((seen[op.kind] + 0.5) / total[op.kind], index, op))
        seen[op.kind] += 1
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _columns(header, data, names):
    return data[:, [header.index(nm) for nm in names]]


def _state(model, header, data, mode):
    """(times, base block, fibre block) of a simulate CSV."""
    chart = model.config["chart"]
    base = ["t_state" if nm == "t" else nm for nm in chart["base"]]
    n = chart["fibre_dim"]
    fib = [("y%d" if mode == "L" else "p%d") % (a + 1) for a in range(n)]
    return data[:, 0], _columns(header, data, base), _columns(header, data, fib)


def _close(what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(got) else 0.0
    return [] if err <= tol else ["%s: max error %.3e above %.1e" % (what, err, tol)]


def check_simulate_rows(op, res):
    rows = int(res.out.split("wrote ")[1].split(" rows")[0])
    if op.rows is not None and rows != op.rows:
        return ["%s: %d rows, expected %d" % (op.name, rows, op.rows)]
    return []


def check_oscillator(model, csv):
    q0, v0 = model.config["initial"]["x"][1], model.config["initial"]["y"][0]
    probs = []
    for mode in ("L", "H"):
        header, data = csv[mode]
        t, base, fib = _state(model, header, data, mode)
        q = q0 * np.cos(t) + v0 * np.sin(t)
        v = -q0 * np.sin(t) + v0 * np.cos(t)
        probs += _close("oscillator %s q" % mode, base[:, 1], q, 1e-9)
        probs += _close("oscillator %s velocity/momentum" % mode, fib[:, 0], v, 1e-9)
        probs += _close("oscillator %s clock" % mode, base[:, 0], t, 1e-9)
    return probs


def check_rigid_body(model, csv):
    lam = np.diag(model.W)
    probs = []
    for mode in ("L", "H"):
        header, data = csv[mode]
        _, _, fib = _state(model, header, data, mode)
        p = fib * lam if mode == "L" else fib
        energy = 0.5 * np.sum(p * p / lam, axis=1)
        casimir = np.sum(p * p, axis=1)
        probs += _close("rigid body %s energy drift" % mode, energy, energy[0], 1e-9)
        probs += _close("rigid body %s Casimir drift" % mode, casimir, casimir[0], 1e-9)
    return probs


def check_duality(model, csv):
    """Hamiltonian-mode momenta against dL/dy along the Lagrangian-mode run.
    RK4 commutes with the linear map p = W y, so with no offset the two runs
    agree to rounding; an x-dependent offset leaves only the RK4 error."""
    hl, dl = csv["L"]
    hh, dh = csv["H"]
    tl, xl, yl = _state(model, hl, dl, "L")
    th, xh, ph = _state(model, hh, dh, "H")
    if len(tl) != len(th):
        return ["%s: %d lagrangian rows against %d hamiltonian rows" % (model.name, len(tl), len(th))]
    tol = 1e-11 if model.offset is None else 1e-8
    return (_close("%s times" % model.name, tl, th, 0.0)
            + _close("%s base, L vs H" % model.name, xl, xh, tol)
            + _close("%s momenta against W y" % model.name, ph, model.momenta(xl, yl), tol))


def check_legendre(op, res):
    model = op.model
    n = model.config["chart"]["fibre_dim"]
    det = float(np.linalg.det(model.W))
    lines = res.out.strip().splitlines()
    rows = lines[2:-2]
    probs = []
    if len(rows) != op.work:
        probs.append("%s: %d grid rows, expected %d" % (op.name, len(rows), op.work))
    for line in rows:
        parts = line.split()
        roundtrip, detw, status = float(parts[n]), float(parts[n + 1]), parts[n + 2]
        if status != "ok" or not roundtrip < 1e-10:
            probs.append("%s: row %r" % (op.name, line))
            break
        if abs(detw - det) > 1e-3 * abs(det):
            probs.append("%s: detW %g, expected %g" % (op.name, detw, det))
            break
    if lines[-1] != "hyperregular on grid: yes":
        probs.append("%s: %s" % (op.name, lines[-1]))
    return probs


def check_verdict(op, res):
    lines = res.out.strip().splitlines()
    probs = []
    if not lines or lines[-1] != "PASS" or any(ln.endswith("FAIL") for ln in lines):
        probs.append("%s: report does not pass" % op.name)
    if op.kind == "validate" and "over %d points" % op.work not in res.out:
        probs.append("%s: sample count not reported" % op.name)
    return probs


def jacobi_residual(path):
    """Jacobi residual of a constant structure config, from its bracket
    table alone: max over a, b, c, l of the cyclic sum of C_am^l C_bc^m."""
    raw = json.loads(Path(path).read_text())
    n = raw["chart"]["fibre_dim"]
    c = np.zeros((n, n, n))
    for key, row in raw["structure"].get("c", {}).items():
        a, b = (int(v) - 1 for v in key.split(","))
        c[a, b] = [float(v) for v in row]
        c[b, a] = -c[a, b]
    cyc = (np.einsum("aml,bcm->abcl", c, c) + np.einsum("bml,cam->abcl", c, c)
           + np.einsum("cml,abm->abcl", c, c))
    return float(np.abs(cyc).max())


def check_control(op, res):
    if op.name == "broken_jacobi.validate":
        if not res.out.strip().endswith("FAIL"):
            return ["%s: report does not fail" % op.name]
        printed = res.out.split("jacobi residual ")[1].split(",")[0]
        want = "%.3e" % jacobi_residual(op.argv[1])
        if printed != want:
            return ["%s: printed jacobi residual %s, numpy gives %s" % (op.name, printed, want)]
        return []
    if res.out or "Jacobi identity" not in res.err:
        return ["%s: not rejected at load with a Jacobi violation" % op.name]
    return []


def check_scaled(op, reference_csv):
    """Scaled L, once it runs, against the unscaled body's states."""
    hs, ds = read_csv(op.out)
    hu, du = reference_csv
    cols = ["t_state", "y1", "y2", "y3"]
    if ds.shape != du.shape:
        return ["%s: %d rows against %d unscaled" % (op.name, len(ds), len(du))]
    return _close(op.name + " against the unscaled body",
                  _columns(hs, ds, cols), _columns(hu, du, cols), 1e-12)


MODEL_CHECKS = {"oscillator": check_oscillator, "rigid_body": check_rigid_body}


def verify(ops, results, reference):
    """Problems with one round's outputs.  Failed ops are skipped; reference()
    gives the unscaled rigid body's CSV for the scaled one."""
    probs = []
    csv = {}
    rk45 = None
    for op in ops:
        res = results[op.name]
        if res.rc != op.expect:
            continue
        if op.kind == "simulate":
            probs += check_simulate_rows(op, res)
            if op.name == SCALED:
                probs += check_scaled(op, reference())
            elif op.name.endswith("rk45"):
                rk45 = op
            else:
                csv.setdefault(op.model.name, (op.model, {}))[1][op.name[-1]] = read_csv(op.out)
        elif op.kind == "legendre":
            probs += check_legendre(op, res)
        elif op.kind == "control":
            probs += check_control(op, res)
        else:
            probs += check_verdict(op, res)
    for model, runs in csv.values():
        if len(runs) == 2:
            probs += MODEL_CHECKS.get(model.name, lambda m, c: [])(model, runs)
            probs += check_duality(model, runs)
    if rk45 is not None and "H" in csv.get(rk45.model.name, (None, {}))[1]:
        # the tight-tolerance RK45 run and the RK4 run end at the same state
        d45 = read_csv(rk45.out)[1]
        d4 = csv[rk45.model.name][1]["H"][1]
        probs += _close(rk45.name + " final state against RK4", d45[-1, 1:-2], d4[-1, 1:-2], 1e-7)
    return probs
