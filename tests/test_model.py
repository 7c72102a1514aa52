import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from affgebroid.atiyah import reduce
from affgebroid.catalog import all_entries
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
from model_reference import c_value, einsum_residuals, embed, full_arrays, validate_reference
from specs import random_spec


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


def test_validate_compiles_one_residual_kernel_per_model(monkeypatch):
    # the residuals come from one kernel, compiled on the first validate
    # and kept on the model; nothing reads the structure point by point
    import affgebroid.model as model_module

    chart = Chart(["x"], 2, base_box=[(0.5, 0.9)])
    m = from_lie_algebroid(chart, [["1"], ["x"]], {(1, 2): ["1", "0"]})
    compiled, reads = [], []
    compile_trees = model_module.compile_trees
    monkeypatch.setattr(
        model_module, "compile_trees", lambda *a: compiled.append(a) or compile_trees(*a)
    )
    for name in ("structure_values", "structure_grad_values", "structure_at", "structure_grad_at"):
        monkeypatch.setattr(m, name, lambda x, name=name: reads.append(name))
    for samples in (100, 70, 1):
        assert validate_structure(m, samples=samples).passed
    assert len(compiled) == 1 and reads == []


def test_draws_match_scalar_draws():
    # one call per block gives the floats of one rng.uniform call per
    # coordinate, row by row, and leaves the generator where they leave it
    box = ((-1.0, 2.0), (0.5, 3.0), (-4.0, -1.0))
    chart = Chart(["a", "b", "c"], 2, base_box=box, fibre_box=[(0.0, 1e-3), (-7.0, 9.0)])
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)

    def scalar(box):
        return [ref.uniform(lo, hi) for lo, hi in box]

    assert np.array_equal(chart._draw(rng, box, 1000), [scalar(box) for _ in range(1000)])
    assert np.array_equal(chart.sample_base(rng), scalar(box))
    a = chart.sample_a(rng)
    assert np.array_equal(a.x, scalar(box)) and np.array_equal(a.y, scalar(chart.fibre_box))
    jet = chart.sample_jet(rng)
    want = [scalar(b) for b in (box,) + (chart.fibre_box,) * 3]
    assert all(np.array_equal(getattr(jet, s), w) for s, w in zip(jet.__slots__, want))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_structure_grad_matches_finite_differences():
    # entry by entry in the one layout: d/dx^i of each structure_at entry
    # against central differences of the same entry
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


# --- the residual kernel against the einsum reference -----------------------

_EPS = np.finfo(float).eps
_ENTRIES = all_entries()
# fields that break Jacobi almost always, exp(709*x) with a partial that
# overflows at x = 1 where its value does not; then fields that raise at
# x <= 0, or at x = 0 only (the partial of sqrt)
_FIELDS = ["0", "0", "1", "-2", "x", "t", "x*t", "0.5*x^2 - t", "sin(t)", "exp(x)", "exp(709*x)"]
_RAISING = ["sqrt(x)", "log(x)", "1/x"]
_GRID = [-1.0, -0.5, 0.0, 0.5, 0.75, 1.0]


@st.composite
def _broken_models(draw, fields):
    # random fields over (t, x), the points on a grid that meets 0, 0.75 and 1
    n = draw(st.integers(1, 3))

    def row(k):
        return draw(st.lists(st.sampled_from(fields), min_size=k, max_size=k))

    c = {(a, b): row(n) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
    model = AffgebroidModel(Chart(["t", "x"], n), row(2), [row(2) for _ in range(n)],
                            [row(n) for _ in range(n)], c)
    points = draw(st.lists(st.tuples(st.sampled_from(_GRID), st.sampled_from(_GRID)),
                           min_size=1, max_size=70))
    return model, {"sample_points": points}


_MODELS = st.one_of(
    st.tuples(st.sampled_from(_ENTRIES).map(lambda e: e.model),
              st.fixed_dictionaries({"samples": st.integers(1, 70), "seed": st.integers(0, 9)})),
    st.tuples(st.builds(lambda seed, m, alg: reduce(random_spec(np.random.default_rng(seed), m, alg)),
                        st.integers(0, 2**16), st.integers(1, 2),
                        st.sampled_from(["so3", "sl2", "heisenberg", "abelian"])),
              st.fixed_dictionaries({"samples": st.integers(1, 40), "seed": st.integers(0, 9)})),
    _broken_models(_FIELDS),
    _broken_models(_FIELDS * 6 + _RAISING),
)


def _report(fn, model, kw):
    try:
        return fn(model, **kw)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)


def _overflowing(rho, c0, x):
    # exp(709*x) overflows where it is multiplied: at x = 0.75 squared, in
    # a term with a repeated index (rho_1 d(rho_1)/dx or C_01^1 C_01^1),
    # and at x = 1 in its own partial, whose every factor is a literal 0
    model = AffgebroidModel(Chart(["t", "x"], 1), ["0", "0"], [rho], [c0])
    return model, {"sample_points": [(0.0, 0.0), (0.0, x)]}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_MODELS)
@example(_overflowing(["0", "exp(709*x)"], ["0"], 0.75))
@example(_overflowing(["0", "0"], ["exp(709*x)"], 0.75))
@example(_overflowing(["exp(709*x)", "0"], ["0"], 1.0))
def test_residual_kernel_matches_einsum_reference(case):
    # per point, the residuals agree within a few eps of the sum of the
    # absolute values of their terms; verdicts, errors and non-finite
    # points are identical, and so is each worst point where it does not
    # tie with another point at rounding level
    model, kw = case
    got = _report(validate_structure, model, kw)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _report(validate_reference, model, kw)
        if isinstance(want, tuple):
            assert got == want
            return
        if "sample_points" in kw:
            points = [np.asarray(x, dtype=float) for x in kw["sample_points"]]
        else:
            rng = np.random.default_rng(kw["seed"])
            points = [model.chart.sample_base(rng) for _ in range(kw["samples"])]
        bound = 8 * _EPS * np.stack(einsum_residuals(model, points, terms=True), axis=1)
        g, w = np.array(got.per_point), np.array(want.per_point)
        assert got.passed == want.passed and got.n_points == want.n_points
        assert np.array_equal(np.isnan(g), np.isnan(w))
        assert np.all((g == w) | (np.abs(g - w) <= bound) | np.isnan(w))
        for col, got_worst, want_worst in ((0, got.worst_anchor_point, want.worst_anchor_point),
                                           (1, got.worst_jacobi_point, want.worst_jacobi_point)):
            res = w[:, col]
            top = int(np.argmax(res))
            rest = np.delete(res, top)
            if np.isnan(res[top]) or not np.any(rest >= res[top] - 2 * bound[:, col].max()):
                assert np.array_equal(got_worst, want_worst)


@pytest.mark.parametrize("bad", [10, 40])
def test_validate_raises_the_first_error_of_reading_by_blocks(bad):
    # the values of each block of 32 points are read before their partials:
    # a value that fails later in the block of a failing partial wins
    model = AffgebroidModel(Chart(["x"], 1), ["sqrt(x)"], [["1"]])
    points = [[0.5]] * 50
    points[3], points[bad] = [0.0], [-1.0]
    got = _report(validate_structure, model, {"sample_points": points})
    assert got == _report(validate_reference, model, {"sample_points": points})
    assert got[1] == ("sqrt of negative -1.0" if bad < 32 else "division by zero")
