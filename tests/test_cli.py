"""End-to-end runs of the command line through main(argv), shipped configs
included: exit codes, report wording, CSV layout and byte determinism."""

import io
import json
import math
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from affgebroid import cli
from affgebroid.cli import load_config, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

OSC = str(CONFIGS / "oscillator.json")
RIGID = str(CONFIGS / "rigid_body.json")
MAGNETIC = str(CONFIGS / "atiyah_magnetic.json")
BROKEN = str(FIXTURES / "broken_jacobi.json")


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def oscillator_config():
    return json.loads(Path(OSC).read_text())


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_validate_shipped_configs_pass(capsys):
    for cfg in (OSC, RIGID, MAGNETIC):
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")


def test_validate_broken_jacobi_reports_unit_residual(capsys):
    assert main(["validate", BROKEN]) == 1
    out = capsys.readouterr().out
    token = out.split("jacobi residual ")[1].split(",")[0]
    assert abs(float(token) - 1.0) < 1e-12
    assert "FAIL" in out


def test_validate_deterministic_output(capsys):
    main(["validate", OSC])
    first = capsys.readouterr().out
    main(["validate", OSC])
    assert capsys.readouterr().out == first


def test_argparse_errors_exit_2_on_a_redirected_stderr():
    # the parser is built once and reused; each usage error still goes to
    # the stderr in force at the call
    for _ in range(2):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["simulate", OSC, "--out", "unused.csv"])
        assert exc.value.code == 2
        assert "the following arguments are required: --mode" in err.getvalue()
    assert cli._parser() is cli._parser()


def test_validate_rejects_non_positive_samples(capsys):
    for samples in ("0", "-2"):
        assert main(["validate", OSC, "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --samples") and "Traceback" not in err


def test_unknown_top_key_exits_2(tmp_path, capsys):
    cfg = oscillator_config()
    cfg["integrater"] = {}
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "integrater" in capsys.readouterr().err


def test_unknown_nested_key_reports_path(tmp_path, capsys):
    cfg = oscillator_config()
    cfg["chart"]["basis"] = ["t"]
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "chart.basis" in capsys.readouterr().err


def test_base_named_like_a_fibre_coordinate_exits_2(tmp_path, capsys):
    # its box entry would set the base and the fibre interval both
    cfg = oscillator_config()
    cfg["chart"] = {"base": ["y1"], "fibre_dim": 1, "box": {"y1": [0.5, 0.9]}}
    cfg["structure"] = {"rho0": ["1"], "rho": [["0"]]}
    cfg["lagrangian"], cfg["hamiltonian"] = "0.5*y1^2", "0.5*p1^2"
    del cfg["initial"]
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: chart: base coordinate 'y1' is named like a fibre or momentum coordinate\n"
    )


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"chart": [,}')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: %s: invalid JSON, line 1 column 12: Expecting value\n" % path
    )


def test_missing_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot read %s: [Errno 2] No such file or directory: %r\n" % (path, path)
    )


def test_structure_and_atiyah_together_exit_2(tmp_path, capsys):
    cfg = oscillator_config()
    cfg["atiyah"] = {"algebra_dim": 1, "c": {}, "k0": ["0"], "k": [["0"]]}
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_bad_bracket_key_exits_2(tmp_path, capsys):
    cfg = oscillator_config()
    cfg["chart"]["fibre_dim"] = 2
    cfg["structure"] = {
        "rho0": ["1", "0"],
        "rho": [["0", "1"], ["0", "0"]],
        "c": {"2,1": ["0", "0"]},
    }
    del cfg["lagrangian"], cfg["hamiltonian"], cfg["initial"]
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "2,1" in capsys.readouterr().err


def test_integrator_key_mismatch_exits_2(tmp_path, capsys):
    cfg = oscillator_config()
    cfg["integrator"] = {"method": "rk4", "rtol": 1e-8}
    assert main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "rtol" in capsys.readouterr().err


def test_jacobi_violating_algebra_exits_1(tmp_path, capsys):
    cfg = {
        "chart": {"base": ["t"], "fibre_dim": 3},
        "atiyah": {
            "algebra_dim": 3,
            "c": {"1,2": [1, 0, 0], "1,3": [0, 0, 1]},
            "k0": ["0", "0", "0"],
            "k": [],
        },
    }
    assert main(["validate", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == (
        "validation failure: structure constants break the Jacobi identity, residual 1.000e+00\n"
    )


def test_simulate_oscillator_tracks_cosine(tmp_path):
    out = str(tmp_path / "osc.csv")
    assert main(["simulate", OSC, "--mode", "lagrangian", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "t_state", "q", "y1", "L", "residual"]
    last = rows[-1]
    assert last[header.index("t")] == pytest.approx(1.0, abs=1e-12)
    assert last[header.index("q")] == pytest.approx(math.cos(1.0), abs=1e-6)
    assert last[header.index("y1")] == pytest.approx(-math.sin(1.0), abs=1e-6)
    assert all(np.isfinite(r[header.index("residual")]) for r in rows)


def test_simulate_hamiltonian_casimir_column(tmp_path):
    out = str(tmp_path / "rb.csv")
    assert main(["simulate", RIGID, "--mode", "hamiltonian", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "casimir"
    assert "t_state" in header
    casimirs = [r[-1] for r in rows]
    energies = [r[header.index("H")] for r in rows]
    assert max(casimirs) - min(casimirs) < 1e-6
    assert max(energies) - min(energies) < 1e-6
    assert casimirs[0] == pytest.approx(7.0)


def test_simulate_anchored_model_has_no_casimir_column(tmp_path):
    out = str(tmp_path / "osc_h.csv")
    assert main(["simulate", OSC, "--mode", "hamiltonian", "--out", out]) == 0
    header, _ = read_csv(out)
    assert "casimir" not in header


def test_simulate_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", RIGID, "--mode", "hamiltonian", "--out", str(a)])
    main(["simulate", RIGID, "--mode", "hamiltonian", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("integrator", ["rk4", "rk45"])
@pytest.mark.parametrize("mode", ["lagrangian", "hamiltonian"])
def test_simulate_residual_column_recomputed_from_the_csv(tmp_path, mode, integrator):
    # the column is the finite-difference rate of the written states minus a
    # fresh field call at each row, max-abs per row; the CSV's 17 digits give
    # back every float, and the field is pure, so the match is exact
    from affgebroid.flow import time_derivative
    from affgebroid.hamiltonian import hamilton_vector_field
    from affgebroid.lagrangian import el_vector_field

    changes = {"integrator": RK45} if integrator == "rk45" else {}
    path = write_config(tmp_path, edited(RIGID, changes))
    out = str(tmp_path / "x.csv")
    assert main(["simulate", path, "--mode", mode, "--out", out]) == 0
    header, rows = read_csv(out)
    data = np.array(rows)
    bundle = load_config(path)
    if mode == "lagrangian":
        field = el_vector_field(bundle.lag_sys)
    else:
        field = hamilton_vector_field(bundle.ham_sys)
    states = data[:, 1 : 1 + bundle.chart.dim_base + bundle.chart.fibre_dim]
    rates = np.array([field(s) for s in states])
    expect = np.max(np.abs(time_derivative(data[:, 0], states) - rates), axis=1)
    assert len(data) >= 3
    assert np.array_equal(data[:, header.index("residual")], expect)


def test_simulate_residual_is_nan_below_three_rows(tmp_path):
    path = write_config(tmp_path, edited(OSC, {"integrator.dt": 1.0}))
    out = str(tmp_path / "x.csv")
    assert main(["simulate", path, "--mode", "lagrangian", "--out", out]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    assert all(math.isnan(r[header.index("residual")]) for r in rows)


@pytest.mark.parametrize(
    "command",
    [("simulate", OSC, "--mode", "hamiltonian"), ("atiyah-expand", MAGNETIC)],
    ids=["simulate", "atiyah-expand"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "x.out")
    assert main([*command, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write %s: " % out)
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["lagrangian", "hamiltonian"])
def test_rigid_body_long_horizon_drift(tmp_path, mode):
    # the shipped run is 10^4 RK4 steps; the energy (the L or H column) and
    # the Casimir 1/2 |p|^2, with p = W y, W = diag(1, 2, 3) in Lagrangian
    # mode, drift at rounding level (measured: 3.3e-14 to 1.1e-13)
    out = tmp_path / "rigid.csv"
    assert main(["simulate", RIGID, "--mode", mode, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    data = np.array(rows)
    assert len(data) == 10001
    fibre = data[:, 2:5] * ([1.0, 2.0, 3.0] if mode == "lagrangian" else 1.0)
    energy = data[:, header.index("L" if mode == "lagrangian" else "H")]
    casimir = 0.5 * np.sum(fibre**2, axis=1)
    assert np.max(np.abs(energy - energy[0])) < 1e-12
    assert np.max(np.abs(casimir - casimir[0])) < 1e-12


def test_simulate_matches_tree_interpreter(tmp_path, monkeypatch):
    # every shipped config in both modes, once on the compiled kernels and
    # once with every kernel, the fused field kernels included, built by the
    # tree interpreter's stand-in for compile_trees
    import sys

    import tree_interpreter as ref

    modes = ("lagrangian", "hamiltonian")
    runs = [(cfg, mode) for cfg in sorted(CONFIGS.glob("*.json")) for mode in modes]
    compiled = [tmp_path / ("compiled-%d.csv" % i) for i in range(len(runs))]
    for (cfg, mode), out in zip(runs, compiled):
        assert main(["simulate", str(cfg), "--mode", mode, "--out", str(out)]) == 0
    built = []

    def interpreted_kernel(outputs, variables, steps=()):
        built.append(len(outputs))
        return ref.compile_trees(outputs, variables, steps)

    modules = [mod for name, mod in sys.modules.items() if name.startswith("affgebroid")]
    patched = [mod for mod in modules if hasattr(mod, "compile_trees")]
    assert {mod.__name__ for mod in patched} >= {
        "affgebroid.expressions", "affgebroid.model", "affgebroid.lagrangian",
        "affgebroid.hamiltonian",
    }
    for mod in patched:
        monkeypatch.setattr(mod, "compile_trees", interpreted_kernel)
    for (cfg, mode), out in zip(runs, compiled):
        interpreted = tmp_path / "interpreted.csv"
        del built[:]
        assert main(["simulate", str(cfg), "--mode", mode, "--out", str(interpreted)]) == 0
        # the fused field kernel went through the stand-in: (vel, r, W, rhs,
        # xi, L), every shipped L having a constant W, or (xdot, pdot, dH/dp,
        # H)
        chart = load_config(cfg).chart
        m, n = chart.dim_base, chart.fibre_dim
        outputs = m + 3 * n + n * n + 1 if mode == "lagrangian" else m + 2 * n + 1
        assert outputs in built, (cfg.name, mode)
        assert interpreted.read_bytes() == out.read_bytes(), (cfg.name, mode)


@pytest.mark.parametrize("mode", ["lagrangian", "hamiltonian"])
def test_simulate_reads_the_energy_column_from_the_field(tmp_path, monkeypatch, mode):
    # the L or H column is the energy the field kernel returns with each
    # slope and at the final state: no ScalarField.eval call, and no value
    # kernel compiled
    from affgebroid.expressions import ScalarField

    calls = []
    real = ScalarField.eval
    monkeypatch.setattr(ScalarField, "eval", lambda self, v: calls.append(v) or real(self, v))
    for cfg in (OSC, RIGID, MAGNETIC):
        bundle = load_config(cfg)
        monkeypatch.setattr(cli, "load_config", lambda path, bundle=bundle: bundle)
        assert main(["simulate", cfg, "--mode", mode, "--out", str(tmp_path / "o.csv")]) == 0
        energy = bundle.lag_sys.lagrangian if mode == "lagrangian" else bundle.ham_sys.hamiltonian
        assert 0 not in energy._kernels
    assert calls == []


def test_a_second_simulate_of_one_dimension_generates_no_step(tmp_path):
    from affgebroid import flow

    out = str(tmp_path / "o.csv")
    for mode in ("lagrangian", "hamiltonian"):
        assert main(["simulate", RIGID, "--mode", mode, "--out", out]) == 0
        generated = flow._stepper.cache_info().misses
        assert main(["simulate", RIGID, "--mode", mode, "--out", out]) == 0
        assert flow._stepper.cache_info().misses == generated


def test_load_config_compiles_nothing():
    # kernels are built on first evaluation, so loading stays as cheap as parsing
    for cfg in (OSC, RIGID, MAGNETIC):
        bundle = load_config(cfg)
        model = bundle.model
        assert model._values_kernel is None and model._grad_kernel is None
        fields = list(model._fields())
        fields += [bundle.lag_sys.lagrangian, bundle.ham_sys.hamiltonian]
        assert all(f._kernels == {} for f in fields)
        # nor the fused field kernels of the two systems
        assert bundle.lag_sys._kernels == {}
        assert bundle.ham_sys._kernels == {}


def atiyah_config(spec):
    """A config of the reduction spec (random_spec's, say), with the default
    boxes and energies."""
    r, names = spec.algebra_dim, spec.base_names
    return {
        "chart": {"base": list(names), "fibre_dim": spec.chart.fibre_dim},
        "atiyah": {
            "algebra_dim": r,
            "c": {"%d,%d" % (a + 1, b + 1): spec.c[a, b].tolist()
                  for a in range(r) for b in range(a + 1, r)},
            "k0": [f.source for f in spec.k0],
            "k": [[f.source for f in row] for row in spec.k],
        },
    }


def test_load_config_generates_no_kernel_step_or_lu(tmp_path, monkeypatch):
    # loading a config only parses: no kernel, no RK4 step and no LU is
    # generated, wherever a module binds those builders
    import importlib
    import pkgutil

    import affgebroid
    from specs import random_spec

    calls = []
    for info in pkgutil.iter_modules(affgebroid.__path__):
        module = importlib.import_module("affgebroid." + info.name)
        for name in ("compile_trees", "_stepper", "fibre_lu"):
            fn = getattr(module, name, None)
            if fn is not None:
                wrapped = lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
                monkeypatch.setattr(module, name, wrapped)
    spec = random_spec(np.random.default_rng(3), m=2, algebra="so3")
    paths = sorted(str(p) for pattern in ("configs/*.json", "tests/fixtures/*.json",
                                          "bench/broken_*.json") for p in ROOT.glob(pattern))
    paths.append(write_config(tmp_path, atiyah_config(spec)))
    for path in paths:
        try:
            load_config(path)
        except (cli.ConfigError, cli.JacobiViolation):
            pass
    assert calls == []
    # the counters see a kernel built after loading
    assert main(["validate", paths[-1], "--samples", "3"]) == 0
    assert "compile_trees" in calls


def test_simulate_missing_expression_exits_2(tmp_path, capsys):
    cfg = oscillator_config()
    del cfg["hamiltonian"]
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "x.csv")
    assert main(["simulate", path, "--mode", "hamiltonian", "--out", out]) == 2
    assert "hamiltonian" in capsys.readouterr().err


def test_simulate_missing_initial_exits_2(tmp_path, capsys):
    cfg = oscillator_config()
    del cfg["initial"]
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "x.csv")
    assert main(["simulate", path, "--mode", "lagrangian", "--out", out]) == 2
    assert "initial.x" in capsys.readouterr().err


def test_simulate_blowup_exits_3(tmp_path, capsys):
    cfg = {
        "chart": {"base": ["t", "q"], "fibre_dim": 1, "box": {"q": [-2, 2]}},
        "structure": {"rho0": ["1", "0"], "rho": [["0", "1"]]},
        "hamiltonian": "p1*(1 + q^2)",
        "initial": {"x": [0.0, 0.0], "p": [0.5]},
        "integrator": {"method": "rk4", "dt": 0.001, "t0": 0.0, "t1": 2.0},
    }
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "x.csv")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", path, "--mode", "hamiltonian", "--out", out]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not Path(out).exists()


def test_legendre_oscillator_hyperregular(capsys):
    assert main(["legendre", OSC, "--grid", "y1=-1:1:9"]) == 0
    out = capsys.readouterr().out
    assert "hyperregular on grid: yes" in out
    assert "diverged" not in out


def test_legendre_takes_one_determinant_for_a_constant_w(monkeypatch, capsys):
    # every cell of the rigid body has the constant W; its det is one number
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda w: calls.append(w) or det(w))
    assert main(["legendre", RIGID]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count(" ok\n") > 1


def test_legendre_singular_lagrangian_flagged(tmp_path, capsys):
    # fibre Hessian y1 vanishes at the origin and changes sign across it
    cfg = oscillator_config()
    cfg["lagrangian"] = "y1^3/6"
    assert main(["legendre", write_config(tmp_path, cfg)]) == 1
    out = capsys.readouterr().out
    assert "singular" in out
    assert "hyperregular on grid: no" in out


def test_legendre_grid_outside_box_exits_2(capsys):
    assert main(["legendre", OSC, "--grid", "y1=-5:5:3"]) == 2
    assert "box" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["y1=nan:1:3", "y1=0:nan:3"])
def test_legendre_nan_grid_bound_exits_2(grid, capsys):
    # every comparison with NaN is false, so the range test must be one that
    # NaN fails
    assert main(["legendre", OSC, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: grid: need lo <= hi and count >= 1 in %r\n" % grid
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "legendre"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(command, tol, capsys):
    assert main([command, RIGID, "--tol=" + tol]) == 2
    captured = capsys.readouterr()
    why = "must be positive" if tol in ("0", "-1") else "expected a number, got " + tol
    assert captured.err == "config error: --tol: %s\n" % why
    assert captured.out == ""


def test_legendre_unknown_grid_axis_exits_2(capsys):
    assert main(["legendre", OSC, "--grid", "z9=0:1:2"]) == 2
    assert "z9" in capsys.readouterr().err


def test_check_all_suites_pass_on_shipped_configs(capsys):
    plain = ["atiyah_validate", "lp_assembly", "hp_assembly"]
    for cfg, skipped in ((OSC, plain), (RIGID, plain), (MAGNETIC, ["structure_validate"])):
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("PASS")
        # one SKIP line per skipped row
        assert [ln.split()[0] for ln in out.splitlines() if ln.endswith("SKIP")] == skipped


def test_check_atiyah_suite_lines(capsys):
    assert main(["check", MAGNETIC, "--suite", "atiyah"]) == 0
    out = capsys.readouterr().out
    for name in ("atiyah_validate", "lp_assembly", "hp_assembly"):
        assert name in out


def test_check_atiyah_defaults_to_kinetic_energy(tmp_path, capsys):
    # with no energy function the assembly rows run on 1/2 |y|^2 and 1/2 |p|^2
    path = str(FIXTURES / "atiyah_default_energy.json")
    assert main(["check", path, "--suite", "atiyah"]) == 0
    out = capsys.readouterr().out
    rows = {ln.split()[0]: ln for ln in out.splitlines()}
    for name in ("lp_assembly", "hp_assembly"):
        assert rows[name].startswith(name + " ") and rows[name].endswith("PASS")
    assert out.strip().endswith("PASS")
    cfg = json.loads(Path(path).read_text())
    cfg["lagrangian"] = " + ".join("0.5*y%d^2" % a for a in range(1, 5))
    cfg["hamiltonian"] = " + ".join("0.5*p%d^2" % a for a in range(1, 5))
    assert main(["check", write_config(tmp_path, cfg), "--suite", "atiyah"]) == 0
    assert capsys.readouterr().out == out


def test_check_reduces_an_atiyah_config_once(monkeypatch, capsys):
    # the assembly rows run on the systems load_config built, not on fresh
    # reductions per sampled point; both names of reduce are counted
    import affgebroid.atiyah as atiyah
    import affgebroid.cli as cli

    calls = []

    def counted(spec, _reduce=atiyah.reduce):
        calls.append(spec)
        return _reduce(spec)

    monkeypatch.setattr(cli, "reduce_spec", counted)
    monkeypatch.setattr(atiyah, "reduce", counted)
    assert main(["check", MAGNETIC, "--suite", "all"]) == 0
    assert "lp_assembly" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("config", [RIGID, OSC])
def test_route_row_builds_each_field_once(config, monkeypatch, capsys):
    # hamilton_route_equality builds the direct and the bracket field once
    # for the row and reads the bivector once per each of its 100 points
    from collections import Counter

    import affgebroid.hamiltonian as hamiltonian

    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for module, name in ((cli, "hamilton_vector_field"), (cli, "poisson_hamiltonian_field"),
                         (hamiltonian, "poisson_data")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["check", config, "--suite", "poisson"]) == 0
    assert "hamilton_route_equality" in capsys.readouterr().out
    assert calls == Counter(hamilton_vector_field=1, poisson_hamiltonian_field=1, poisson_data=100)


def test_check_skips_without_lagrangian(tmp_path, capsys):
    cfg = oscillator_config()
    del cfg["lagrangian"]
    path = write_config(tmp_path, cfg)
    assert main(["check", path, "--suite", "tulczyjew"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out
    assert "dual_map_round_trip" in out


def test_check_atiyah_skipped_for_plain_structure(capsys):
    assert main(["check", OSC, "--suite", "atiyah"]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_check_all_validates_plain_structure(capsys):
    assert main(["check", BROKEN, "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    row = [ln for ln in lines if ln.startswith("structure_validate")]
    assert len(row) == 1 and row[0].endswith("FAIL")
    assert lines[-1] == "FAIL"


def test_check_fails_on_non_finite_residual(tmp_path, capsys):
    cfg = {
        "chart": {"base": ["x"], "fibre_dim": 1, "box": {"x": [400, 410]}},
        "structure": {"rho0": ["exp(x)"], "rho": [["exp(x)"]]},
    }
    path = write_config(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["validate", path]) == 1
        assert "anchor residual nan" in capsys.readouterr().out
        assert main(["check", path]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    row = [ln for ln in lines if ln.startswith("structure_validate")]
    assert len(row) == 1 and "max nan" in row[0] and row[0].endswith("FAIL")
    assert lines[-1] == "FAIL"


def test_atiyah_config_keeps_momentum_box(tmp_path):
    cfg = json.loads(Path(MAGNETIC).read_text())
    cfg["chart"]["box"]["p1"] = [3, 4]
    bundle = load_config(write_config(tmp_path, cfg))
    assert bundle.chart.dual_box[0] == (3.0, 4.0)
    assert bundle.spec.chart.dual_box == bundle.chart.dual_box
    assert bundle.model.chart.dual_box == bundle.chart.dual_box


def test_atiyah_expand_round_trip(tmp_path, capsys):
    out = str(tmp_path / "expanded.json")
    assert main(["atiyah-expand", MAGNETIC, "--out", out]) == 0
    capsys.readouterr()

    expanded = json.loads(Path(out).read_text())
    assert "structure" in expanded and "atiyah" not in expanded
    assert expanded["structure"]["c0"][0][1] == "-x1"
    assert expanded["lagrangian"] == json.loads(Path(MAGNETIC).read_text())["lagrangian"]

    assert main(["validate", out]) == 0
    capsys.readouterr()

    direct = load_config(MAGNETIC).model
    reparsed = load_config(out).model
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = direct.chart.sample_base(rng)
        a, b = direct.structure_at(x), reparsed.structure_at(x)
        assert np.allclose(a.rho0, b.rho0, atol=1e-15)
        assert np.allclose(a.rho, b.rho, atol=1e-15)
        assert np.allclose(a.c0, b.c0, atol=1e-15)


def test_atiyah_expand_requires_atiyah_config(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["atiyah-expand", OSC, "--out", out]) == 2
    assert "atiyah" in capsys.readouterr().err


# --- one fault per config: exit code and the exact stderr line -------------

DROP = object()
RK45 = {"method": "rk45", "rtol": 1e-8, "atol": 1e-10, "t0": 0.0, "t1": 1.0}
SO3 = {
    "chart": {"base": ["t"], "fibre_dim": 3},
    "atiyah": {
        "algebra_dim": 3,
        "c": {"1,2": [0, 0, 1], "1,3": [0, -1, 0], "2,3": [1, 0, 0]},
        "k0": ["0", "0", "0"],
        "k": [],
    },
}


def edited(base, changes):
    """A copy of a config (a path or a dict) with each dotted path in
    changes set to its value, or deleted for DROP."""
    cfg = json.loads(Path(base).read_text() if isinstance(base, str) else json.dumps(base))
    for dotted, value in changes.items():
        *parents, last = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return cfg


VALIDATE = ("validate",)
SIMULATE_L = ("simulate", "--mode", "lagrangian", "--out", "x.csv")
NAN, INF = float("nan"), float("inf")

# (id, config, command, the stderr line after "config error: "); each exits 2
FAULTS = [
    ("top_not_object", [1], VALIDATE, "config: expected a JSON object"),
    ("top_unknown_key", edited(OSC, {"integrater": {}}), VALIDATE,
     "config.integrater: unknown key (allowed: atiyah, chart, hamiltonian, initial, "
     "integrator, lagrangian, newton, seed, structure)"),
    ("chart_missing", edited(OSC, {"chart": DROP}), VALIDATE, "config: chart is required"),
    ("chart_not_object", edited(OSC, {"chart": []}), VALIDATE, "chart: expected an object"),
    ("chart_unknown_key", edited(OSC, {"chart.basis": ["t"]}), VALIDATE,
     "chart.basis: unknown key (allowed: base, box, fibre_dim)"),
    ("chart_base_empty", edited(OSC, {"chart.base": []}), VALIDATE,
     "chart.base: expected a nonempty list of coordinate names"),
    ("chart_base_not_names", edited(OSC, {"chart.base": ["t", 1]}), VALIDATE,
     "chart.base: expected a nonempty list of coordinate names"),
    ("fibre_dim_zero", edited(OSC, {"chart.fibre_dim": 0}), VALIDATE,
     "chart.fibre_dim: expected a positive integer"),
    ("fibre_dim_float", edited(OSC, {"chart.fibre_dim": 1.0}), VALIDATE,
     "chart.fibre_dim: expected a positive integer"),
    ("fibre_dim_bool", edited(OSC, {"chart.fibre_dim": True}), VALIDATE,
     "chart.fibre_dim: expected a positive integer"),
    ("fibre_dim_missing", edited(OSC, {"chart.fibre_dim": DROP}), VALIDATE,
     "chart.fibre_dim: expected a positive integer"),
    ("box_not_object", edited(OSC, {"chart.box": []}), VALIDATE,
     "chart.box: expected an object keyed by coordinate name"),
    ("box_unknown_coordinate", edited(OSC, {"chart.box.z": [0, 1]}), VALIDATE,
     "chart.box.z: not a coordinate of this chart"),
    ("box_short", edited(OSC, {"chart.box.q": [1]}), VALIDATE,
     "chart.box.q: expected a list of 2 numbers"),
    ("box_string_bound", edited(OSC, {"chart.box.q": [0, "1"]}), VALIDATE,
     "chart.box.q[1]: expected a number"),
    ("box_empty_interval", edited(OSC, {"chart.box.q": [2, 1]}), VALIDATE,
     "chart.box.q: empty interval [2.0, 1.0]"),
    ("chart_duplicate_names", edited(OSC, {"chart.base": ["q", "q"], "chart.box": DROP}),
     VALIDATE, "chart: duplicate base coordinate names"),
    ("chart_bad_name", edited(OSC, {"chart.base": ["t", "a b"], "chart.box": DROP}),
     VALIDATE, "chart: bad coordinate name 'a b'"),
    ("structure_and_atiyah", edited(OSC, {"atiyah": {"algebra_dim": 1, "k0": ["0"], "k": []}}),
     VALIDATE, "config: exactly one of structure/atiyah is required"),
    ("no_structure", edited(OSC, {"structure": DROP}), VALIDATE,
     "config: exactly one of structure/atiyah is required"),
    ("structure_not_object", edited(OSC, {"structure": []}), VALIDATE,
     "structure: expected an object"),
    ("structure_unknown_key", edited(OSC, {"structure.rh0": []}), VALIDATE,
     "structure.rh0: unknown key (allowed: c, c0, rho, rho0)"),
    ("structure_missing_rho", edited(OSC, {"structure.rho": DROP}), VALIDATE,
     "structure: rho0 and rho are required"),
    ("rho0_short", edited(OSC, {"structure.rho0": ["1"]}), VALIDATE,
     "structure.rho0: expected a list of 2 expressions"),
    ("rho0_null_entry", edited(OSC, {"structure.rho0": ["1", None]}), VALIDATE,
     "structure.rho0[1]: expected an expression string or number"),
    ("rho0_bool_entry", edited(OSC, {"structure.rho0": [True, "0"]}), VALIDATE,
     "structure.rho0[0]: expected an expression string or number"),
    ("rho_rows", edited(OSC, {"structure.rho": []}), VALIDATE,
     "structure.rho: expected 1 rows"),
    ("rho_row_short", edited(OSC, {"structure.rho": [["0"]]}), VALIDATE,
     "structure.rho[0]: expected a list of 2 expressions"),
    ("c0_rows", edited(OSC, {"structure.c0": []}), VALIDATE, "structure.c0: expected 1 rows"),
    ("c0_entry", edited(OSC, {"structure.c0": [[{}]]}), VALIDATE,
     "structure.c0[0][0]: expected an expression string or number"),
    ("c_not_object", edited(OSC, {"structure.c": []}), VALIDATE,
     "structure.c: expected an object"),
    ("c_key_diagonal", edited(RIGID, {"structure.c.1,1": ["0", "0", "0"]}), VALIDATE,
     'structure.c.1,1: keys must look like "a,b" with 1 <= a < b <= 3, got \'1,1\''),
    ("c_key_three", edited(RIGID, {"structure.c.1,2,3": ["0", "0", "0"]}), VALIDATE,
     'structure.c.1,2,3: keys must look like "a,b" with 1 <= a < b <= 3, got \'1,2,3\''),
    ("c_key_word", edited(RIGID, {"structure.c.x": ["0", "0", "0"]}), VALIDATE,
     'structure.c.x: keys must look like "a,b" with 1 <= a < b <= 3, got \'x\''),
    ("c_row_short", edited(RIGID, {"structure.c.1,2": ["0"]}), VALIDATE,
     "structure.c.1,2: expected a list of 3 expressions"),
    ("structure_unknown_variable", edited(OSC, {"structure.rho0": ["1", "zz"]}), VALIDATE,
     "structure: unknown variable zz (declared: t, q)"),
    ("structure_syntax", edited(OSC, {"structure.rho0": ["1", "1 +"]}), VALIDATE,
     "structure: unexpected 'end of input' at position 3"),
    ("structure_reserved_name", edited(OSC, {"chart.base": ["t", "e"], "chart.box": {}}),
     VALIDATE, "structure: 'e' is reserved and cannot be a variable"),
    ("atiyah_not_object", edited(MAGNETIC, {"atiyah": []}), VALIDATE,
     "atiyah: expected an object"),
    ("atiyah_unknown_key", edited(MAGNETIC, {"atiyah.kk": []}), VALIDATE,
     "atiyah.kk: unknown key (allowed: algebra_dim, c, k, k0)"),
    ("algebra_dim_zero", edited(MAGNETIC, {"atiyah.algebra_dim": 0}), VALIDATE,
     "atiyah.algebra_dim: expected a positive integer"),
    ("algebra_dim_mismatch", edited(MAGNETIC, {"atiyah.algebra_dim": 2}), VALIDATE,
     "chart.fibre_dim: atiyah charts need spatial + algebra = 3, got 2"),
    ("atiyah_c_not_object", edited(MAGNETIC, {"atiyah.c": []}), VALIDATE,
     "atiyah.c: expected an object"),
    ("atiyah_c_key", edited(MAGNETIC, {"atiyah.c": {"1,2": [0]}}), VALIDATE,
     'atiyah.c.1,2: keys must look like "a,b" with 1 <= a < b <= 1, got \'1,2\''),
    ("atiyah_c_row_short", edited(SO3, {"atiyah.c.1,2": [0, 0]}), VALIDATE,
     "atiyah.c.1,2: expected a list of 3 numbers"),
    ("atiyah_c_string", edited(SO3, {"atiyah.c.1,2": [0, 0, "1"]}), VALIDATE,
     "atiyah.c.1,2[2]: expected a number"),
    ("atiyah_missing_k", edited(MAGNETIC, {"atiyah.k": DROP}), VALIDATE,
     "atiyah: k0 and k are required"),
    ("atiyah_k0_short", edited(MAGNETIC, {"atiyah.k0": []}), VALIDATE,
     "atiyah.k0: expected a list of 1 expressions"),
    ("atiyah_k_rows", edited(MAGNETIC, {"atiyah.k": []}), VALIDATE,
     "atiyah.k: expected 1 rows"),
    ("atiyah_k_row", edited(MAGNETIC, {"atiyah.k": [["0", "0"]]}), VALIDATE,
     "atiyah.k[0]: expected a list of 1 expressions"),
    ("atiyah_unknown_variable", edited(MAGNETIC, {"atiyah.k0": ["zz"]}), VALIDATE,
     "atiyah: unknown variable zz (declared: t, x1)"),
    ("lagrangian_not_string", edited(OSC, {"lagrangian": 3}), VALIDATE,
     "lagrangian: expected an expression string"),
    ("hamiltonian_not_string", edited(OSC, {"hamiltonian": []}), VALIDATE,
     "hamiltonian: expected an expression string"),
    ("lagrangian_syntax", edited(OSC, {"lagrangian": "y1^"}), VALIDATE,
     "lagrangian: unexpected 'end of input' at position 3"),
    ("lagrangian_unknown_variable", edited(OSC, {"lagrangian": "p1"}), VALIDATE,
     "lagrangian: unknown variable p1 (declared: t, q, y1)"),
    ("hamiltonian_unknown_function", edited(OSC, {"hamiltonian": "sinh(p1)"}), VALIDATE,
     "hamiltonian: unknown function 'sinh' at position 0"),
    ("initial_not_object", edited(OSC, {"initial": []}), VALIDATE,
     "initial: expected an object"),
    ("initial_unknown_key", edited(OSC, {"initial.z": [0]}), VALIDATE,
     "initial.z: unknown key (allowed: p, x, y)"),
    ("initial_x_short", edited(OSC, {"initial.x": [0]}), VALIDATE,
     "initial.x: expected a list of 2 numbers"),
    ("initial_y_string", edited(OSC, {"initial.y": ["0"]}), VALIDATE,
     "initial.y[0]: expected a number"),
    ("initial_p_null", edited(OSC, {"initial.p": None}), VALIDATE,
     "initial.p: expected a list of 1 numbers"),
    ("integrator_not_object", edited(OSC, {"integrator": []}), VALIDATE,
     "integrator: expected an object"),
    ("integrator_null", edited(OSC, {"integrator": None}), VALIDATE,
     "integrator: expected an object"),
    ("method_unknown", edited(OSC, {"integrator.method": "euler"}), VALIDATE,
     "integrator.method: expected rk4 or rk45, got 'euler'"),
    ("method_list", edited(OSC, {"integrator.method": [1]}), VALIDATE,
     "integrator.method: expected rk4 or rk45, got [1]"),
    ("rk4_with_rtol", edited(OSC, {"integrator.rtol": 1e-8}), VALIDATE,
     "integrator.rtol: unknown key (allowed: dt, method, t0, t1)"),
    ("rk45_with_dt", edited(OSC, {"integrator": dict(RK45, dt=0.1)}), VALIDATE,
     "integrator.dt: unknown key (allowed: atol, method, rtol, t0, t1)"),
    ("dt_string", edited(OSC, {"integrator.dt": "x"}), VALIDATE,
     "integrator.dt: expected a number, got 'x'"),
    ("dt_zero", edited(OSC, {"integrator.dt": 0}), VALIDATE, "integrator.dt: must be positive"),
    ("t0_bool", edited(OSC, {"integrator.t0": True}), VALIDATE,
     "integrator.t0: expected a number, got True"),
    ("t1_not_after_t0", edited(OSC, {"integrator.t1": 0.0}), VALIDATE,
     "integrator: t1 must exceed t0"),
    ("rk45_rtol_zero", edited(OSC, {"integrator": dict(RK45, rtol=0)}), VALIDATE,
     "integrator tolerances must be positive"),
    ("rk45_atol_negative", edited(OSC, {"integrator": dict(RK45, atol=-1)}), VALIDATE,
     "integrator tolerances must be positive"),
    ("rk45_atol_string", edited(OSC, {"integrator": dict(RK45, atol="1")}), VALIDATE,
     "integrator.atol: expected a number, got '1'"),
    ("rk45_t1_not_after_t0", edited(OSC, {"integrator": dict(RK45, t0=2.0)}), VALIDATE,
     "integrator: t1 must exceed t0"),
    ("newton_not_object", edited(OSC, {"newton": []}), VALIDATE,
     "newton: expected an object"),
    ("newton_unknown_key", edited(OSC, {"newton.iters": 3}), VALIDATE,
     "newton.iters: unknown key (allowed: max_iter, tol)"),
    ("newton_tol_string", edited(OSC, {"newton.tol": "a"}), VALIDATE,
     "newton.tol: expected a number, got 'a'"),
    ("newton_tol_zero", edited(OSC, {"newton.tol": 0}), VALIDATE,
     "newton.tol: must be positive"),
    ("max_iter_zero", edited(OSC, {"newton.max_iter": 0}), VALIDATE,
     "newton.max_iter: expected a positive integer"),
    ("max_iter_float", edited(OSC, {"newton.max_iter": 1.5}), VALIDATE,
     "newton.max_iter: expected a positive integer"),
    ("seed_negative", edited(OSC, {"seed": -1}), VALIDATE,
     "seed: expected a nonnegative integer"),
    ("seed_string", edited(OSC, {"seed": "0"}), VALIDATE,
     "seed: expected a nonnegative integer"),
    ("seed_bool", edited(OSC, {"seed": False}), VALIDATE,
     "seed: expected a nonnegative integer"),
    # numbers must be finite: NaN, Infinity and integers beyond the float
    # range are config errors too
    ("box_infinite_bound", edited(OSC, {"chart.box.q": [-2, INF]}), VALIDATE,
     "chart.box.q[1]: expected a number"),
    ("box_infinite_bound_check", edited(OSC, {"chart.box.q": [-2, INF]}), ("check",),
     "chart.box.q[1]: expected a number"),
    ("rho0_nan", edited(OSC, {"structure.rho0": [1, NAN]}), VALIDATE,
     "structure.rho0[1]: expected an expression string or number"),
    ("rho0_huge_integer", edited(OSC, {"structure.rho0": [1, 10**400]}), VALIDATE,
     "structure.rho0[1]: expected an expression string or number"),
    ("atiyah_c_infinite", edited(SO3, {"atiyah.c.1,2": [0, 0, -INF]}), VALIDATE,
     "atiyah.c.1,2[2]: expected a number"),
    ("initial_x_nan", edited(OSC, {"initial.x": [0, NAN]}), SIMULATE_L,
     "initial.x[1]: expected a number"),
    ("dt_nan", edited(OSC, {"integrator.dt": NAN}), SIMULATE_L,
     "integrator.dt: expected a number, got nan"),
    ("t1_infinite", edited(OSC, {"integrator.t1": INF}), VALIDATE,
     "integrator.t1: expected a number, got inf"),
    ("newton_tol_nan", edited(OSC, {"newton.tol": NAN}), ("legendre",),
     "newton.tol: expected a number, got nan"),
    ("lagrangian_literal_overflow", edited(OSC, {"lagrangian": "1e400*y1^2"}), SIMULATE_L,
     "lagrangian: number '1e400' out of range at position 0"),
]


@pytest.mark.parametrize(
    "cfg,command,line", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_config_fault_exit_and_message(tmp_path, monkeypatch, capsys, cfg, command, line):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cfg)
    assert main([command[0], path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: %s\n" % line
    assert captured.out == ""


def test_config_undecodable_text_exits_2(tmp_path, capsys):
    # neither is a JSONDecodeError, so they carry no line and column
    for name, text in (
        ("long.json", b'{"seed": ' + b"1" * 5000 + b"}"),
        ("latin.json", b'{"seed": "\xff"}'),
    ):
        path = tmp_path / name
        path.write_bytes(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: invalid JSON: " % path)


def test_check_and_legendre_read_the_system_kernels(monkeypatch, capsys):
    # every Lagrangian quantity of check and legendre comes from the "el" and
    # "legendre" kernels, none from a full Hessian of L
    from affgebroid.expressions import ScalarField
    from affgebroid.lagrangian import LagrangianSystem

    calls = {"derivs": 0, "eval_dual2": 0}
    for cls, name in ((LagrangianSystem, "derivs"), (ScalarField, "eval_dual2")):
        def counted(self, *args, _name=name, _method=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert main(["check", RIGID, "--suite", "all"]) == 0
    assert calls == {"derivs": 0, "eval_dual2": 0}
    assert main(["legendre", RIGID]) == 0
    assert calls["eval_dual2"] == 0


def test_cli_digest_fingerprints_each_command(capsys):
    import cli_digest

    before = sorted(CONFIGS.iterdir())
    assert cli_digest.main([OSC]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    shown = "configs/oscillator.json"
    argv = [["check", shown], ["validate", shown], ["validate", shown, "--samples", "2000"],
            ["legendre", shown]]
    argv += [["simulate", shown, "--mode", m, "--out", "OUT"] for m in ("lagrangian", "hamiltonian")]
    assert [r["argv"] for r in records] == argv
    assert [r["exit"] for r in records] == [0] * 6
    assert [r["file"] is None for r in records] == [True] * 4 + [False] * 2
    assert all(len(r[k]) == 64 for r in records for k in ("stdout", "stderr"))
    # a second run reproduces every fingerprint and the configs are only read
    assert cli_digest.digest([OSC]) == records
    assert sorted(CONFIGS.iterdir()) == before


def test_cli_digest_expands_atiyah_configs():
    import cli_digest

    records = cli_digest.digest([MAGNETIC])
    assert [r["argv"][0] for r in records] == [
        "check", "validate", "validate", "legendre", "simulate", "simulate", "atiyah-expand"
    ]
    assert records[-1]["argv"] == ["atiyah-expand", "configs/atiyah_magnetic.json", "--out", "OUT"]
    assert records[-1]["exit"] == 0 and len(records[-1]["file"]) == 64


def drifted_plane_config(hamiltonian):
    return {
        "chart": {"base": ["t"], "fibre_dim": 2,
                  "box": {"t": [0, 5], "y1": [-2, 2], "y2": [-2, 2]}},
        "structure": {"rho0": ["0"], "rho": [["0"], ["0"]], "c0": [["0", "1"], ["-1", "0"]]},
        "lagrangian": "0.5*y1^2 + 0.5*y2^2 + 0.25*y1*y2",
        "hamiltonian": hamiltonian,
        "initial": {"x": [0.0], "y": [0.3, -0.2], "p": [0.25, -0.125]},
    }


def check_rows(out):
    return {ln.split()[0]: ln for ln in out.splitlines()[:-1]}


def test_check_legendre_pairing_refuses_a_hamiltonian_that_is_not_the_transform(
    tmp_path, capsys
):
    dual = write_config(tmp_path, drifted_plane_config("8*p1^2/15 + 8*p2^2/15 - 4*p1*p2/15"))
    assert main(["check", dual, "--suite", "tulczyjew"]) == 0
    assert check_rows(capsys.readouterr().out)["legendre_pairing"].endswith("PASS")
    cfg = drifted_plane_config("0.5*p1^2 + 0.5*p2^2 + 0.25*p1*p2")
    assert main(["check", write_config(tmp_path, cfg), "--suite", "all"]) == 1
    out = capsys.readouterr().out
    failed = [name for name, ln in check_rows(out).items() if ln.endswith("FAIL")]
    assert failed == ["legendre_pairing"] and out.endswith("FAIL\n")
    del cfg["hamiltonian"]
    assert main(["check", write_config(tmp_path, cfg), "--suite", "tulczyjew"]) == 0
    row = check_rows(capsys.readouterr().out)["legendre_pairing"]
    assert row.split()[1:] == ["(no", "hamiltonian)", "SKIP"]


def test_check_legendre_pairing_leaves_the_other_rows_unchanged(monkeypatch, capsys):
    # the row draws its points from its own generator, so every other row
    # prints what it prints without it
    for cfg in (OSC, RIGID, MAGNETIC):
        assert main(["check", cfg]) == 0
        rows = check_rows(capsys.readouterr().out)
        monkeypatch.setattr(cli, "CHECKS", tuple(r for r in cli.CHECKS
                                                 if r.name != "legendre_pairing"))
        assert main(["check", cfg]) == 0
        assert check_rows(capsys.readouterr().out) == {
            k: v for k, v in rows.items() if k != "legendre_pairing"
        }
        monkeypatch.undo()


@pytest.mark.parametrize("lagrangian, cond", [
    ("0.5*y1^2", "inf"), ("0.5*y1^2 + 0.5e-13*y2^2", "1.000e+13"),
])
def test_singular_constant_fibre_hessian_fails_on_every_command(
    tmp_path, capsys, lagrangian, cond
):
    # a constant W that fails the regularity rule gets no closed form: the
    # commands fail as every fibre solve refuses it, and every legendre cell
    # is singular, those at p = 0 too, where the Newton takes no step
    cfg = drifted_plane_config(None)
    del cfg["hamiltonian"]
    cfg["lagrangian"] = lagrangian
    path = write_config(tmp_path, cfg)
    error = "fibre Hessian singular: condition number %s" % cond
    assert main(["simulate", path, "--mode", "lagrangian", "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numeric failure: %s\n" % error
    assert main(["legendre", path, "--grid", "y1=0:1:2,y2=0:1:2"]) == 1
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert [ln.split()[-1] for ln in rows] == ["singular"] * 4
    assert main(["check", path]) == 1
    rows = check_rows(capsys.readouterr().out)
    for name in ("submanifold_match", "flow_commutation"):
        assert rows[name] == "%-26s error: %s FAIL" % (name, error)


@pytest.mark.parametrize("lagrangian", ["0.5*y1^2", "0.5*y1^2 + 0.25*y2^4"])
def test_legendre_cell_with_a_singular_w_is_singular_where_newton_takes_no_step(
    tmp_path, capsys, lagrangian
):
    # at p = 0 the Newton starts at its root and returns with no step, so
    # no fibre solve meets W: the cell itself applies the regularity rule.
    # The first W is constant and singular, the second singular at y2 = 0
    cfg = drifted_plane_config(None)
    del cfg["hamiltonian"]
    cfg["lagrangian"] = lagrangian
    assert main(["legendre", write_config(tmp_path, cfg), "--grid", "y1=0:0:1,y2=0:1:2"]) == 1
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[2:4]]
    det = "0" if lagrangian == "0.5*y1^2" else "3"
    assert rows == [["0", "0", "nan", "0", "singular"], ["0", "1", "nan", det, "singular"]]


def test_legendre_on_a_constant_w_applies_the_rule_once(monkeypatch, capsys):
    # a constant W passed the regularity rule when the system took it, with
    # its one LU: the cells of the grid make none
    calls = _count_newton_and_lu(monkeypatch)
    assert main(["legendre", RIGID, "--grid", "y1=-1:1:3,y2=-1:1:3,y3=-1:1:3"]) == 0
    assert calls == {"newton": 0, "lu": 1}


def _count_newton_and_lu(monkeypatch):
    # calls of legendre._newton and of the functions fibre_lu generates
    from affgebroid import lagrangian, legendre

    calls = {"newton": 0, "lu": 0}
    newton = legendre._newton

    def counted_newton(*args):
        calls["newton"] += 1
        return newton(*args)

    def counted_lu(n, _lu=lagrangian.fibre_lu):
        def lu(w, b):
            calls["lu"] += 1
            return _lu(n)(w, b)

        return lu

    monkeypatch.setattr(legendre, "_newton", counted_newton)
    monkeypatch.setattr(lagrangian, "fibre_lu", counted_lu)
    return calls


@pytest.mark.parametrize("quartic", [False, True])
def test_check_on_a_constant_fibre_hessian_runs_no_newton_and_no_lu(
    tmp_path, monkeypatch, capsys, quartic
):
    # once the kernels of the config's systems are compiled, check runs the
    # closed forms: no Newton solve and no LU; a quartic L still runs both
    cfg = json.loads(Path(RIGID).read_text())
    if quartic:
        cfg["lagrangian"] += " + 0.25*y1^4"
    bundle = load_config(write_config(tmp_path, cfg))
    monkeypatch.setattr(cli, "load_config", lambda path: bundle)
    main(["check", RIGID, "--suite", "all"])
    calls = _count_newton_and_lu(monkeypatch)
    main(["check", RIGID, "--suite", "all"])
    assert "flow_commutation" in capsys.readouterr().out
    if quartic:
        assert calls["newton"] > 0 and calls["lu"] > 0
    else:
        assert calls == {"newton": 0, "lu": 0}
