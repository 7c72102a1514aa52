"""End-to-end runs of the command line through main(argv), shipped configs
included: exit codes, report wording, CSV layout and byte determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

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


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"chart": [,}')
    assert main(["validate", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


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
    assert "Jacobi" in capsys.readouterr().err


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
        # the fused field kernel went through the stand-in: (vel, r, W) or
        # (xdot, pdot, dH/dp)
        chart = load_config(cfg).chart
        m, n = chart.dim_base, chart.fibre_dim
        assert (m + n + n * n if mode == "lagrangian" else m + 2 * n) in built, (cfg.name, mode)
        assert interpreted.read_bytes() == out.read_bytes(), (cfg.name, mode)


def test_load_config_compiles_nothing():
    # kernels are built on first evaluation, so loading stays as cheap as parsing
    for cfg in (OSC, RIGID, MAGNETIC):
        bundle = load_config(cfg)
        model = bundle.model
        assert model._values_kernel is None and model._grad_kernel is None
        fields = [f for f, _ in model._slots()]
        fields += [bundle.lag_sys.lagrangian, bundle.ham_sys.hamiltonian]
        assert all(f._kernels == {} for f in fields)
        # nor the fused field kernels of the two systems
        assert bundle.lag_sys._kernels == {}
        assert bundle.ham_sys._kernel is None


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


def test_legendre_oscillator_hyperregular(capsys):
    assert main(["legendre", OSC, "--grid", "y1=-1:1:9"]) == 0
    out = capsys.readouterr().out
    assert "hyperregular on grid: yes" in out
    assert "diverged" not in out


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
