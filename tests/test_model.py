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


def test_c_antisymmetry_bit_exact():
    m = so3_adapter()
    x = [0.3]
    for (a, b, g) in [(1, 2, 3), (2, 3, 1), (1, 3, 2)]:
        v = m.c_value(a, b, g, x)
        assert m.c_value(b, a, g, x) == -v
        assert np.float64(m.c_value(b, a, g, x)) == np.float64(-v)
    assert m.c_value(2, 2, 1, x) == 0.0


def test_structure_tensor_layout():
    m = so3_adapter()
    s = m.structure_at([0.0])
    eps = np.zeros((3, 3, 3))
    for (a, b, g, v) in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]:
        eps[a, b, g] = v
        eps[b, a, g] = -v
    assert np.array_equal(s.c, eps)
    assert np.all(s.rho0 == 0.0) and np.all(s.rho == 0.0) and np.all(s.c0 == 0.0)
    full = m.full_c_at([0.0])
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
    full = m.full_anchor_at([0.2, 0.4])
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
