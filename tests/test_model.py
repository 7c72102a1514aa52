import numpy as np
import pytest

from affgebroid.model import (
    AffgebroidModel,
    APoint,
    Chart,
    JetPoint,
    PhasePoint,
    VStarPoint,
    from_lie_algebroid,
    validate_structure,
)

import tree_interpreter as ref
from model_reference import c_value, embed, full_arrays


def so3_adapter():
    chart = Chart(["t"], 3, base_box=[(0.0, 10.0)], fibre_box=[(-2.0, 2.0)] * 3)
    c = {(1, 2): ["0", "0", "1"], (2, 3): ["1", "0", "0"], (1, 3): ["0", "-1", "0"]}
    return from_lie_algebroid(chart, [["0"], ["0"], ["0"]], c)


def test_chart_basics():
    ch = Chart(["t", "q"], 2)
    assert ch.dim_base == 2
    assert ch.fibre_names == ("y1", "y2")
    assert ch.dual_names == ("p1", "p2")
    assert ch.base_box == ((-1.0, 1.0), (-1.0, 1.0))
    assert ch.dual_box == ch.fibre_box
    with pytest.raises(ValueError):
        Chart([], 1)
    with pytest.raises(ValueError):
        Chart(["t", "t"], 1)
    with pytest.raises(ValueError):
        Chart(["t"], 1, base_box=[(1.0, 1.0)])


@pytest.mark.parametrize("name", ["y2", "p1"])
def test_chart_rejects_a_base_named_like_a_fibre_or_momentum(name):
    with pytest.raises(ValueError, match="base coordinate '%s' is named like a fibre" % name):
        Chart(["t", name], 2)
    assert Chart(["t", "y3", "p3"], 2).base_names == ("t", "y3", "p3")


def test_sampling_respects_box():
    ch = Chart(["t", "q"], 2, base_box=[(0.0, 1.0), (2.0, 3.0)], fibre_box=[(-5.0, -4.0), (7.0, 8.0)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = ch.sample_a(rng)
        assert 0.0 <= a.x[0] <= 1.0 and 2.0 <= a.x[1] <= 3.0
        assert -5.0 <= a.y[0] <= -4.0 and 7.0 <= a.y[1] <= 8.0
        ph = ch.sample_phase(rng)
        assert -5.0 <= ph.p[0] <= -4.0  # dual box defaults to fibre box


def test_points_coerce():
    p = APoint([1, 2], [3])
    assert p.x.dtype == float and p.y.tolist() == [3.0]
    j = JetPoint([0], [1], [2], [3])
    assert j.v.tolist() == [3.0]
    ph = PhasePoint([0], [1], [2], [3])
    assert ph.w.tolist() == [3.0]
    v = VStarPoint([0.5], [0.25])
    assert v.p.tolist() == [0.25]
    assert repr(p) == "APoint([1.0, 2.0], [3.0])"
    assert repr(ph) == "PhasePoint([0.0], [1.0], [2.0], [3.0])"
    with pytest.raises(TypeError):
        JetPoint([0], [1], [2])


def test_c_antisymmetry_bit_exact():
    m = so3_adapter()
    x = [0.3]
    for (a, b, g) in [(1, 2, 3), (2, 3, 1), (1, 3, 2)]:
        v = c_value(m, a, b, g, x)
        assert c_value(m, b, a, g, x) == -v
        assert np.float64(c_value(m, b, a, g, x)) == np.float64(-v)
    assert c_value(m, 2, 2, 1, x) == 0.0


def test_structure_tensor_layout():
    m = so3_adapter()
    s = m.structure_at([0.0])
    eps = np.zeros((3, 3, 3))
    for (a, b, g, v) in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]:
        eps[a, b, g] = v
        eps[b, a, g] = -v
    assert np.array_equal(s.c, eps)
    assert np.all(s.rho0 == 0.0) and np.all(s.rho == 0.0) and np.all(s.c0 == 0.0)
    _, full = full_arrays(m, [0.0])
    assert full.shape == (4, 4, 4)
    assert np.all(full[:, :, 0] == 0.0)
    assert np.array_equal(full[1:, 1:, 1:], eps)


def test_constant_structure_is_cached():
    m = so3_adapter()
    s1 = m.structure_at([0.1])
    s2 = m.structure_at([0.9])
    assert s1 is s2
    assert m.is_constant_structure
    m2 = AffgebroidModel(Chart(["x"], 1), ["x"], [["1"]])
    assert not m2.is_constant_structure


def test_constant_structure_cache_is_read_only():
    m = so3_adapter()
    s = m.structure_at([0.1])
    for arr in (s.rho0, s.rho, s.c0, s.c):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 99.0
    with pytest.raises(ValueError):
        s.c[0, 1, 2] = 99.0
    assert m.structure_at([0.9]).c[0, 1, 2] == 1.0


def test_validate_so3_exact_zero():
    rep = validate_structure(so3_adapter(), samples=10, tol=1e-10)
    assert rep.max_anchor == 0.0
    assert rep.max_jacobi == 0.0
    assert rep.passed


def test_validate_broken_jacobi_residual_is_one():
    chart = Chart(["t"], 3)
    c = {(1, 2): ["1", "0", "0"], (1, 3): ["0", "0", "1"]}
    m = from_lie_algebroid(chart, [["0"]] * 3, c)
    rep = validate_structure(m, samples=5, tol=1e-10)
    assert rep.max_anchor == 0.0
    assert abs(rep.max_jacobi - 1.0) <= 1e-12
    assert not rep.passed


def test_validate_anchor_example():
    # bracket of d/dx and x d/dx is d/dx, matching C_12^1 = 1
    chart = Chart(["x"], 2, base_box=[(0.5, 0.9)])
    m = from_lie_algebroid(chart, [["1"], ["x"]], {(1, 2): ["1", "0"]})
    rep = validate_structure(m, sample_points=[[0.7]], tol=1e-12)
    assert rep.max_anchor <= 1e-12
    assert rep.max_jacobi <= 1e-12


def test_validate_catches_broken_anchor():
    chart = Chart(["x"], 2, base_box=[(0.5, 0.9)])
    m = from_lie_algebroid(chart, [["1"], ["x"]], {(1, 2): ["0", "0"]})
    rep = validate_structure(m, sample_points=[[0.7]], tol=1e-10)
    assert rep.max_anchor == pytest.approx(1.0, abs=1e-12)


def test_time_dependent_structure_enters_e0_rows():
    # rho_0 carries the clock; check the full-anchor layout
    chart = Chart(["t", "q"], 1)
    m = AffgebroidModel(chart, ["1", "0"], [["0", "1"]])
    full, _ = full_arrays(m, [0.2, 0.4])
    assert np.array_equal(full, np.array([[1.0, 0.0], [0.0, 1.0]]))
    rep = validate_structure(m, samples=5, tol=1e-12)
    assert rep.max_residual == 0.0


def test_adapter_makes_e0_central():
    m = so3_adapter()
    s = m.structure_at([0.0])
    assert np.all(s.rho0 == 0.0)
    assert np.all(s.c0 == 0.0)


def test_model_rejects_bad_shapes():
    chart = Chart(["t"], 2)
    with pytest.raises(ValueError):
        AffgebroidModel(chart, ["0"], [["0"]])  # one rho row missing
    with pytest.raises(ValueError):
        AffgebroidModel(chart, ["0", "0"], [["0"], ["0"]])  # rho0 wrong length
    with pytest.raises(ValueError):
        AffgebroidModel(chart, ["0"], [["0"], ["0"]], c={(2, 1): ["0", "0"]})
    with pytest.raises(ValueError):
        AffgebroidModel(chart, ["0"], [["0"], ["0"]], c={(1, 2): ["0"]})


def loop_residuals(model, x):
    """Per-point anchor and Jacobi residuals by explicit loops over I < J
    (< K), the reference for the batched validate_structure."""
    n = model.chart.fibre_dim
    rho, cf = full_arrays(model, x)
    rg, cg = embed(model.structure_grad_at(x))
    pa = pj = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            res = rho[i] @ rg[j].T - rho[j] @ rg[i].T - cf[i, j] @ rho
            pa = max(pa, float(np.max(np.abs(res))))
            for k in range(j + 1, n + 1):
                for el in range(1, n + 1):
                    acc = 0.0
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        acc += float(rho[a] @ cg[b, c, el]) + float(cf[a, :, el] @ cf[b, c, :])
                    pj = max(pj, abs(acc))
    return pa, pj


def test_batched_validate_matches_loop_reference():
    from affgebroid.atiyah import random_spec, reduce
    from affgebroid.catalog import all_entries

    rng = np.random.default_rng(5)
    models = [e.model for e in all_entries()]
    models += [reduce(random_spec(rng, algebra=alg)) for alg in ("so3", "sl2", "heisenberg")]
    for model in models:
        # 70 points span three blocks, the last one partial
        rep = validate_structure(model, samples=70, seed=2)
        pts = np.random.default_rng(2)
        ref = [loop_residuals(model, model.chart.sample_base(pts)) for _ in range(70)]
        # the dot products sum in another order than the loops: allow a few
        # ulps of Jacobi terms of order 100
        assert np.allclose(rep.per_point, ref, rtol=0.0, atol=1e-13)
        assert rep.passed


def test_validate_reads_the_structure_once_per_point(monkeypatch):
    chart = Chart(["x"], 2, base_box=[(0.5, 0.9)])
    m = from_lie_algebroid(chart, [["1"], ["x"]], {(1, 2): ["1", "0"]})
    calls = []
    for name in ("structure_values", "structure_grad_values", "structure_at", "structure_grad_at"):
        read = getattr(m, name)
        monkeypatch.setattr(m, name, lambda x, name=name, read=read: calls.append(name) or read(x))
    validate_structure(m, samples=100)
    assert sorted(calls) == ["structure_grad_values"] * 100 + ["structure_values"] * 100


def test_structure_grad_matches_finite_differences():
    # entry by entry in the one layout: d/dx^i of each structure_at entry
    # against central differences of the same entry
    from affgebroid.atiyah import random_spec, reduce
    from affgebroid.catalog import all_entries

    rng = np.random.default_rng(7)
    models = [e.model for e in all_entries()]
    models += [reduce(random_spec(rng, algebra=alg)) for alg in ("so3", "sl2", "heisenberg")]
    for model in models:
        m, step = model.chart.dim_base, 1e-6
        for _ in range(5):
            x = model.chart.sample_base(rng)
            grad = model.structure_grad_at(x)
            for i in range(m):
                up, dn = x.copy(), x.copy()
                up[i] += step
                dn[i] -= step
                hi, lo = model.structure_at(up), model.structure_at(dn)
                for part in ("rho0", "rho", "c0", "c"):
                    fd = (getattr(hi, part) - getattr(lo, part)) / (2.0 * step)
                    assert getattr(grad, part).shape == fd.shape + (m,)
                    assert np.allclose(getattr(grad, part)[..., i], fd, rtol=1e-6, atol=1e-6), part


def test_non_finite_residual_fails():
    # exp(x)^2 overflows, so every anchor residual is inf - inf = nan
    chart = Chart(["x"], 1, base_box=[(400.0, 410.0)])
    m = AffgebroidModel(chart, ["exp(x)"], [["exp(x)"]])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = validate_structure(m, samples=5)
    assert np.isnan(rep.max_anchor) and np.isnan(rep.max_residual)
    assert not rep.passed
    assert rep.summary().endswith("FAIL")


def test_compiled_structure_matches_interpreter_on_catalog():
    from affgebroid.catalog import all_entries

    rng = np.random.default_rng(11)
    for entry in all_entries():
        model = entry.model
        for _ in range(10):
            x = model.chart.sample_base(rng)
            model._cache = None  # both sides evaluate, neither reads the other's cache
            got = ref.outcome(model.structure_at, x)
            model._cache = None
            assert got == ref.outcome(ref.structure_at, model, x), entry.name
            assert ref.outcome(model.structure_grad_at, x) == ref.outcome(
                ref.structure_grad_at, model, x
            ), entry.name
            a, v = model.chart.sample_a(rng), model.chart.sample_vstar(rng)
            for field, point in [
                (entry.lag.lagrangian, np.concatenate([a.x, a.y])),
                (entry.ham.hamiltonian, np.concatenate([v.x, v.p])),
            ]:
                assert ref.outcome(field.eval_dual2, point) == ref.outcome(
                    ref.field_eval_dual2, field, point
                ), entry.name


def test_compiled_structure_errors_match_interpreter():
    chart = Chart(["x"], 2)
    m = AffgebroidModel(chart, ["1/x"], [["x"], ["log(x)"]], c={(1, 2): ["exp(x)", "x^0.5"]})
    for x in ([0.0], [-1.0], [800.0], [0.5]):
        assert ref.outcome(m.structure_at, x) == ref.outcome(ref.structure_at, m, x)
        assert ref.outcome(m.structure_grad_at, x) == ref.outcome(ref.structure_grad_at, m, x)
    with pytest.raises(ValueError, match="expected 1 values"):
        m.structure_at([0.5, 0.5])


def test_validate_structure_needs_samples():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample point"):
            validate_structure(so3_adapter(), samples=samples)
    with pytest.raises(ValueError, match="at least one sample point"):
        validate_structure(so3_adapter(), sample_points=[])
