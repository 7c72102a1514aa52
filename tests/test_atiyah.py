"""Reduction pipeline: curvature pinned by hand, reduced models that must
validate, and the dual assembly of the reduced equations of motion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgebroid.atiyah import (
    AtiyahSpec,
    SO3_CONSTANTS,
    _constants_tensor,
    conjugate_constants,
    curvature,
    flat_spec,
    hp_equations_check,
    jacobi_residual,
    lp_equations_check,
    magnetic_spec,
    random_spec,
    reduce,
    so3_spec,
)
from affgebroid.errors import JacobiViolation
from affgebroid.expressions import parse, rebuild
from affgebroid.hamiltonian import HamiltonianSystem
from affgebroid.lagrangian import LagrangianSystem
from affgebroid.model import validate_structure

from model_reference import c_value


def test_flat_curvature_is_zero():
    spec = flat_spec(m=2, r=2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = spec.chart.sample_base(rng)
        cur = curvature(spec, x)
        assert np.array_equal(cur.b0i, np.zeros((2, 2)))
        assert np.array_equal(cur.bij, np.zeros((2, 2, 2)))


def test_magnetic_curvature_by_hand():
    # K1 = x1*t over an abelian charge: the only surviving term is the time
    # derivative, so the field strength is exactly x1
    spec = magnetic_spec()
    for t, x1 in [(0.0, 0.3), (1.2, -0.7), (0.5, 0.45)]:
        cur = curvature(spec, (t, x1))
        assert cur.b0i.shape == (1, 1)
        assert cur.b0i[0, 0] == x1


def test_rotation_curvature_by_hand():
    # K0 = (0,0,x1), K1 = (t,0,0): time derivative gives (1,0,0), the x1
    # derivative of K0 gives (0,0,1), and the bracket term x1*t along the
    # second axis; total (1, -x1*t, -1)
    spec = so3_spec()
    t, x1 = 0.6, 0.8
    cur = curvature(spec, (t, x1))
    assert np.allclose(cur.b0i[0], [1.0, -x1 * t, -1.0], atol=1e-15)


def test_time_independent_connection_without_k0_is_flat():
    # with K0 = 0 the bracket term dies, and a t-independent K1 kills the
    # rest even though K1 itself is nonconstant
    spec = AtiyahSpec(("t", "x1"), 3, SO3_CONSTANTS, ["0", "0", "0"], [["x1^2", "0", "0"]])
    cur = curvature(spec, (0.4, 1.3))
    assert np.array_equal(cur.b0i, np.zeros((1, 3)))


def test_bij_antisymmetry_and_shapes():
    spec = random_spec(np.random.default_rng(3), m=3, algebra="so3")
    x = spec.chart.sample_base(np.random.default_rng(4))
    cur = curvature(spec, x)
    assert cur.b0i.shape == (3, 3)
    assert cur.bij.shape == (3, 3, 3)
    assert np.array_equal(cur.bij, -np.transpose(cur.bij, (1, 0, 2)))
    assert cur.k0.shape == (3,) and cur.k.shape == (3, 3)


@pytest.mark.parametrize(
    "make",
    [
        flat_spec,
        magnetic_spec,
        so3_spec,
        lambda: random_spec(np.random.default_rng(7), m=2, algebra="sl2"),
        lambda: random_spec(np.random.default_rng(8), m=1, algebra="heisenberg"),
    ],
)
def test_reduced_models_validate(make):
    spec = make()
    report = validate_structure(reduce(spec), samples=50, tol=1e-9)
    assert report.passed, report.summary()


def test_reduced_bracket_sources_fold_clean():
    # the spatial reference-bracket entry of the magnetic reduction is the
    # negated field strength, and the symbolic pipeline should print it bare
    model = reduce(magnetic_spec())
    assert model.c0[0][1].source == "-x1"
    assert model.c0[0][0].source == "0"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["so3", "heisenberg", "sl2", "abelian"]))
def test_reduced_structure_trees_are_fixed_points_of_the_builder(seed, algebra):
    model = reduce(random_spec(np.random.default_rng(seed), m=2, algebra=algebra))
    for f, _ in model._slots():
        assert rebuild(f.ast) == f.ast, f.source


def test_constant_connection_reference_block():
    # m = 0, constant K0: the reference bracket block is the algebra bracket
    # contracted with K0, checked entrywise against a direct contraction
    k0 = (0.5, -1.0, 2.0)
    spec = AtiyahSpec(("t",), 3, SO3_CONSTANTS, k0, [])
    model = reduce(spec)
    s = model.structure_at(np.array([0.3]))
    cc = _constants_tensor(SO3_CONSTANTS, 3)
    expect = np.einsum("abc,b->ac", cc, np.array(k0))
    assert np.allclose(s.c0, expect, atol=1e-15)
    # spot index: C_{0 a1}^{g3} = c_12^3 K0^2 = -1
    assert model.c0[0][2].eval([0.3]) == -1.0
    report = validate_structure(model, samples=20, tol=1e-10)
    assert report.passed, report.summary()


def test_reduce_packs_algebra_block_last():
    model = reduce(so3_spec())
    x = np.array([0.2, 0.9])
    # algebra indices 1,2 sit at fibre slots 2,3 and their bracket hits
    # slot 4 with the constant c_12^3 = 1; spatial targets stay empty
    assert c_value(model, 2, 3, 4, x) == 1.0
    assert c_value(model, 2, 3, 1, x) == 0.0
    assert model.rho[0][1].eval(x) == 1.0
    assert model.rho[1][0].eval(x) == 0.0


LAGRANGIANS = {
    "flat": "0.5*y1^2 + 0.5*y2^2 - 0.3*x1*y1",
    "magnetic": "0.5*y1^2 + 0.5*y2^2 - 0.5*x1^2 + 0.2*sin(t)*y1*y2",
    "so3": "0.5*y1^2 + y2^2 + 0.5*y3^2 + 1.5*y4^2 + 0.2*cos(x1)*y1*y4",
}

HAMILTONIANS = {
    "flat": "0.5*p1^2 + 0.5*p2^2 + 0.3*x1*p1",
    "magnetic": "0.5*p1^2 + 0.5*p2^2 + 0.5*x1^2 + 0.2*sin(t)*p1*p2",
    "so3": "0.5*p1^2 + 0.25*p2^2 + 0.5*p3^2 + p4^2/6 + 0.3*sin(t)*p1*p4",
}

SPECS = {"flat": flat_spec, "magnetic": magnetic_spec, "so3": so3_spec}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lp_dual_assembly(name):
    spec = SPECS[name]()
    sys = LagrangianSystem(reduce(spec), LAGRANGIANS[name])
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(30):
        point = spec.chart.sample_a(rng)
        check = lp_equations_check(spec, sys, point)
        assert check.max_abs < 1e-12
        worst = max(worst, check.max_abs)
    assert worst < 1e-12


@pytest.mark.parametrize("name", sorted(SPECS))
def test_hp_dual_assembly(name):
    spec = SPECS[name]()
    sys = HamiltonianSystem(reduce(spec), HAMILTONIANS[name])
    rng = np.random.default_rng(18)
    for _ in range(30):
        point = spec.chart.sample_vstar(rng)
        check = hp_equations_check(spec, sys, point)
        assert check.max_abs < 1e-12


@pytest.mark.parametrize("name", sorted(SPECS) + ["random"])
def test_equation_checks_evaluate_the_connection_once(name, monkeypatch):
    # curvature() evaluates each connection coefficient once, through
    # value_grad, and the printed route reads those values from it
    from affgebroid.expressions import ScalarField

    if name == "random":
        spec = random_spec(np.random.default_rng(9), m=2, algebra="so3")
        lag_src = " + ".join("0.5*y%d^2" % a for a in range(1, 6))
        ham_src = " + ".join("0.5*p%d^2" % a for a in range(1, 6))
    else:
        spec = SPECS[name]()
        lag_src, ham_src = LAGRANGIANS[name], HAMILTONIANS[name]
    model = reduce(spec)
    lag, ham = LagrangianSystem(model, lag_src), HamiltonianSystem(model, ham_src)
    rng = np.random.default_rng(19)
    a, v = spec.chart.sample_a(rng), spec.chart.sample_vstar(rng)
    connection = [*spec.k0, *(f for row in spec.k for f in row)]

    calls = {"eval": 0, "value_grad": 0}
    for method in calls:
        def counted(self, *args, _name=method, _method=getattr(ScalarField, method), **kwargs):
            if any(self is f for f in connection):
                calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(ScalarField, method, counted)
    once = {"eval": 0, "value_grad": spec.algebra_dim * (spec.spatial_dim + 1)}
    lp_equations_check(spec, lag, a)
    assert calls == once
    calls.update(eval=0, value_grad=0)
    hp_equations_check(spec, ham, v)
    assert calls == once


def test_dual_assembly_not_vacuous():
    # the bracket data must actually steer the equations: zeroing the
    # constants while keeping the same connection changes the RHS
    spec = so3_spec()
    bare = AtiyahSpec(
        ("t", "x1"),
        3,
        np.zeros((3, 3, 3)),
        ["0", "0", "x1"],
        [["t", "0", "0"]],
        base_box=[(0.0, 2.0), (-1.0, 1.0)],
    )
    rng = np.random.default_rng(21)
    point = spec.chart.sample_a(rng)
    full = lp_equations_check(spec, LagrangianSystem(reduce(spec), LAGRANGIANS["so3"]), point)
    gutted = lp_equations_check(bare, LagrangianSystem(reduce(bare), LAGRANGIANS["so3"]), point)
    assert np.abs(full.generic - gutted.generic).max() > 1e-3


def test_hp_check_includes_unit_clock():
    spec = magnetic_spec()
    sys = HamiltonianSystem(reduce(spec), HAMILTONIANS["magnetic"])
    check = hp_equations_check(spec, sys, spec.chart.sample_vstar(np.random.default_rng(2)))
    assert check.generic[0] == 1.0 and check.printed[0] == 1.0


def test_equation_checks_refuse_a_system_of_another_chart():
    # an equal reduction built again is not spec's: its chart is a new object
    spec = magnetic_spec()
    other = reduce(magnetic_spec())
    rng = np.random.default_rng(3)
    lag = LagrangianSystem(other, LAGRANGIANS["magnetic"])
    ham = HamiltonianSystem(other, HAMILTONIANS["magnetic"])
    with pytest.raises(ValueError, match="spec.chart"):
        lp_equations_check(spec, lag, spec.chart.sample_a(rng))
    with pytest.raises(ValueError, match="spec.chart"):
        hp_equations_check(spec, ham, spec.chart.sample_vstar(rng))


def test_jacobi_violation_rejected():
    bad = {(1, 2): (1.0, 0.0, 0.0), (1, 3): (0.0, 0.0, 1.0)}
    assert jacobi_residual(_constants_tensor(bad, 3)) == 1.0
    with pytest.raises(JacobiViolation):
        AtiyahSpec(("t",), 3, bad, ["0", "0", "0"], [])


def test_constants_input_validation():
    with pytest.raises(ValueError):
        _constants_tensor({(1, 1): (0.0,)}, 1)
    with pytest.raises(ValueError):
        _constants_tensor({(1, 2): (1.0,)}, 2)
    skew = np.zeros((2, 2, 2))
    skew[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        _constants_tensor(skew, 2)
    with pytest.raises(ValueError):
        _constants_tensor(np.zeros((2, 2)), 2)


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        AtiyahSpec(("t", "x1"), 1, np.zeros((1, 1, 1)), ["0"], [])
    with pytest.raises(ValueError):
        AtiyahSpec(("t",), 2, np.zeros((2, 2, 2)), ["0"], [])
    stray = parse("x1", ("t", "x1"))
    with pytest.raises(ValueError):
        AtiyahSpec(("t",), 1, np.zeros((1, 1, 1)), [stray], [])


def test_conjugation_transports_the_algebra():
    cc = _constants_tensor(SO3_CONSTANTS, 3)
    assert np.array_equal(conjugate_constants(cc, np.eye(3)), cc)
    rng = np.random.default_rng(12)
    t = np.eye(3) + 0.4 * rng.uniform(-1.0, 1.0, size=(3, 3))
    out = conjugate_constants(cc, t)
    assert np.array_equal(out, -np.swapaxes(out, 0, 1))
    scale = max(1.0, float(np.abs(out).max())) ** 3
    assert jacobi_residual(out) < 1e-12 * scale
    assert np.abs(out - cc).max() > 1e-3


@pytest.mark.parametrize("algebra", ["so3", "heisenberg", "sl2", "abelian"])
def test_random_specs_validate(algebra):
    spec = random_spec(np.random.default_rng(31), m=2, algebra=algebra)
    report = validate_structure(reduce(spec), samples=15, tol=1e-8)
    assert report.passed, report.summary()


def test_random_spec_rejects_unknown_algebra():
    with pytest.raises(ValueError):
        random_spec(np.random.default_rng(0), algebra="nope")
