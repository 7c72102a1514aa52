"""The generated LU solve and the fused field kernels, against numpy and
against the numpy field assembly they replaced (tests/field_reference.py)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import field_reference as ref
from affgebroid.atiyah import reduce
from affgebroid.catalog import all_entries, rigid_body
from affgebroid.errors import DomainError, NewtonDivergence, SingularLagrangian
from affgebroid.hamiltonian import HamiltonianSystem, hamilton_vector_field, reeb_section
from affgebroid.expressions import Var, compile_trees, tree_num
from affgebroid.lagrangian import (
    COND_LIMIT,
    LagrangianSystem,
    el_section,
    el_vector_field,
    fibre_lu,
    momentum_equation_rhs,
    regularity,
    solve_fibre_hessian,
    solve_trees,
)
from affgebroid.legendre import InducedHamiltonian, l_from_h
from affgebroid.model import AffgebroidModel, APoint, Chart, VStarPoint
from specs import quartic_entry, random_spec

EPS = np.finfo(float).eps


def lu(w, b):
    w = np.asarray(w, dtype=float)
    return fibre_lu(w.shape[0])(w.ravel().tolist(), np.asarray(b, dtype=float).tolist())


def cond1(w):
    return np.linalg.norm(w, 1) * np.linalg.norm(np.linalg.inv(w), 1)


def pivoting_matrices(n, rng, k):
    """Non-symmetric and symmetric indefinite matrices whose leading
    diagonal entries are zero or small, so that no step of the
    elimination can go without a row swap."""
    out = []
    for i in range(k):
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if i % 2:
            a = a + a.T  # symmetric; the zero diagonal below makes it indefinite
        np.fill_diagonal(a, 1e-3 * rng.uniform(-1.0, 1.0, size=n) if i % 3 else 0.0)
        out.append(a)
    # a permuted diagonal: every column's pivot sits in another row
    perm = rng.permutation(n)
    out.append(np.eye(n)[perm] * rng.uniform(1.0, 2.0, size=n))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lu_matches_numpy_with_pivoting(n):
    rng = np.random.default_rng(n)
    for w in pivoting_matrices(n, rng, 40):
        c = np.linalg.cond(w)
        if not c < 1e6:
            continue
        b = rng.uniform(-1.0, 1.0, size=n)
        xi, cond = lu(w, b)
        want = np.linalg.solve(w, b)
        assert np.max(np.abs(np.array(xi) - want)) <= 1e-12 * c * max(1.0, np.max(np.abs(want)))
        assert cond == pytest.approx(cond1(w), rel=1e-9)
        # the 1-norm and 2-norm condition numbers lie within a factor n
        assert c / n * (1 - 1e-9) <= cond <= c * n * (1 + 1e-9)


def test_lu_solves_permuted_diagonal_exactly():
    w = np.array([[0.0, 0.0, 4.0], [2.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    xi, cond = lu(w, [1.0, 3.0, 5.0])
    assert xi == (1.5, 0.625, 0.25)
    assert cond == 4.0


def test_lu_refuses_singular_and_non_finite():
    for w in ([[0.0]], [[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))):
        xi, cond = lu(w, np.ones(len(w)))
        assert cond == math.inf
    for bad in (math.nan, math.inf, -math.inf):
        w = np.eye(3)
        w[1, 2] = bad
        assert lu(w, np.ones(3)) == (None, math.inf)
        assert regularity(w) == (False, math.inf)
        with pytest.raises(SingularLagrangian):
            solve_fibre_hessian(w, np.ones(3))


def test_lu_rule_near_singular():
    for w in (np.diag([1.0, 1e-14, 1.0]), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])):
        ok, cond = regularity(w)
        assert not ok and cond > 1e12
        with pytest.raises(SingularLagrangian, match="fibre Hessian singular"):
            solve_fibre_hessian(w, np.ones(len(w)))
    ok, cond = regularity(np.diag([1.0, 1e-11, 1.0]))
    assert ok and cond == pytest.approx(1e11)


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0])


def _systems(n):
    # W with zeros and +-1 entries, so that rows swap and multipliers are
    # 0 or +-1; b with signed zeros, infinities and NaN, some of its entries
    # literals in the trees
    w = st.lists(_SPECIAL | st.floats(-4.0, 4.0), min_size=n * n, max_size=n * n)
    b = st.lists(
        _SPECIAL | st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats(-1e3, 1e3),
        min_size=n, max_size=n,
    )
    return st.tuples(w, b, st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(_systems))
def test_solve_trees_is_the_lu_bit_for_bit(system):
    w, b, literal = system
    n = len(b)
    xi, cond = fibre_lu(n)(w, b)
    assume(cond < COND_LIMIT)
    names = ["b%d" % i for i in range(n)]
    rhs = [tree_num(v) if lit else Var(nm) for v, lit, nm in zip(b, literal, names)]
    got = compile_trees(solve_trees(w, rhs), names)(*b)
    assert list(map(repr, got)) == list(map(repr, xi))


def test_lu_is_generated_once_per_dimension():
    assert fibre_lu(3) is fibre_lu(3)
    assert fibre_lu(2) is not fibre_lu(3)


def test_l_from_h_refuses_a_singular_momentum_hessian():
    # the momentum Hessian diag(1, 1e-14, 1) fails the same rule on both sides
    ent = rigid_body()
    ham = HamiltonianSystem(ent.model, "0.5*p1^2 + 0.5e-14*p2^2 + 0.5*p3^2")
    lag = LagrangianSystem(ent.model, "0.5*y1^2 + 0.5e-14*y2^2 + 0.5*y3^2")
    a = APoint([0.0], [0.3, 0.2, 0.1])
    assert not regularity(ham.legendre_data(a.x, a.y)[2])[0]
    assert not regularity(lag.legendre_data(a.x, a.y)[2])[0]
    with pytest.raises(NewtonDivergence, match="momentum Hessian singular"):
        l_from_h(ham, a)


def _generated_entries():
    out = []
    for alg in ("so3", "sl2", "heisenberg", "abelian"):
        for seed in range(2):
            model = reduce(random_spec(np.random.default_rng(seed), algebra=alg))
            n = model.chart.fibre_dim
            lag = " + ".join("%g*y%d^2" % (0.5 + 0.25 * a, a + 1) for a in range(n))
            ham = " + ".join("%g*p%d^2" % (0.5 + 0.25 * a, a + 1) for a in range(n))
            out.append(SimpleNamespace(
                name="%s-%d" % (alg, seed),
                model=model,
                lag=LagrangianSystem(model, lag + " + 0.3*y1*y2 + x1*y1 - 0.5*x1^2*x2"),
                ham=HamiltonianSystem(model, ham + " + 0.3*p1*p2 + x1*p1 + 0.5*x2^2"),
            ))
    return out


def _close(got, want):
    # a few ulps of the largest component: the kernels sum in another order
    # than the matrix products, and the LU rounds unlike LAPACK
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= 8 * EPS * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("ent", all_entries() + _generated_entries(), ids=lambda e: e.name)
def test_fused_fields_match_reference_assembly(ent):
    chart = ent.model.chart
    fe, re_ = el_vector_field(ent.lag), ref.el_field(ent.lag)
    fh, rh = hamilton_vector_field(ent.ham), ref.hamilton_field(ent.ham)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, v = chart.sample_a(rng), chart.sample_vstar(rng)
        assert _close(fe(np.concatenate([a.x, a.y])), re_(np.concatenate([a.x, a.y])))
        assert _close(el_section(ent.lag, a), ref.el_section(ent.lag, a))
        assert _close(
            momentum_equation_rhs(ent.lag, a.x, a.y), ref.momentum_equation_rhs(ent.lag, a.x, a.y)
        )
        assert _close(fh(np.concatenate([v.x, v.p])), rh(np.concatenate([v.x, v.p])))
        assert _close(reeb_section(ent.ham, v), ref.reeb_section(ent.ham, v))


@pytest.mark.parametrize("ent", all_entries() + _generated_entries(), ids=lambda e: e.name)
def test_constant_hessian_field_is_the_lu_field_bit_for_bit(ent):
    # the xi the "el" kernel returns for a constant W against the LU solve
    # the same L makes with constant_hessian switched off
    lu_path = LagrangianSystem(ent.model, ent.lag.lagrangian.source)
    lu_path.constant_hessian = None
    assert ent.lag.constant_hessian is not None
    fast, slow = el_vector_field(ent.lag), el_vector_field(lu_path)
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = ent.model.chart.sample_a(rng)
        state = np.concatenate([a.x, a.y])
        assert fast(state).tobytes() == slow(state).tobytes()
        assert el_section(ent.lag, a).tobytes() == el_section(lu_path, a).tobytes()


@pytest.mark.parametrize("ent", all_entries() + [quartic_entry()], ids=lambda e: e.name)
def test_induced_hamilton_field_matches_reference_assembly(ent):
    ind = InducedHamiltonian(ent.lag)
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = ent.model.chart.sample_vstar(rng)
        state = np.concatenate([v.x, v.p])
        # the field's Newton solve leaves the warm start at the matched
        # velocity, where the reference's solve then stops at once
        got = hamilton_vector_field(ind)(state)
        assert _close(got, ref.hamilton_field(ind)(state))
        assert _close(reeb_section(ind, v), ref.reeb_section(ind, v))


def _outcome(fn, *args):
    try:
        return "ok", np.asarray(fn(*args)).tobytes()
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)


def test_fused_fields_raise_in_the_order_of_separate_evaluation():
    # a structure field and the energy both fail at x < 0: the structure
    # error comes first, as when structure_at ran before the energy
    chart = Chart(["x"], 1, base_box=[(-1.0, 1.0)])
    model = AffgebroidModel(chart, ["log(x)"], [["1"]])
    lag = LagrangianSystem(model, "sqrt(x) + 0.5*y1^2")
    ham = HamiltonianSystem(model, "sqrt(x) + 0.5*p1^2")
    for state in (np.array([-0.5, 0.2]), np.array([0.0, 0.2]), np.array([0.5, 0.2])):
        assert _outcome(el_vector_field(lag), state) == _outcome(ref.el_field(lag), state)
        assert _outcome(hamilton_vector_field(ham), state) == _outcome(
            ref.hamilton_field(ham), state
        )
    with pytest.raises(DomainError, match="log needs a positive argument"):
        el_vector_field(lag)(np.array([-0.5, 0.2]))
    # the energy alone fails: its message, not a structure one
    model = AffgebroidModel(chart, ["1"], [["1"]])
    lag = LagrangianSystem(model, "0.5*y1^2/x")
    with pytest.raises(DomainError, match="division by zero"):
        el_vector_field(lag)(np.array([0.0, 0.2]))
    induced = InducedHamiltonian(LagrangianSystem(AffgebroidModel(chart, ["log(x)"], [["1"]]),
                                                  "sqrt(x) + 0.5*y1^2"))
    with pytest.raises(DomainError, match="log needs a positive argument"):
        hamilton_vector_field(induced)(np.array([-0.5, 0.2]))


def test_induced_newton_motion_matches_before_it_reads_the_structure():
    # on the Newton path the velocity is matched first, then the "induced"
    # kernel reads the structure: where L and a structure field both fail,
    # the Newton's error comes first; where only the structure fails, its own
    chart = Chart(["x"], 1, base_box=[(-1.0, 1.0)])
    model = AffgebroidModel(chart, ["log(x)"], [["1"]])
    lag = LagrangianSystem(model, "sqrt(x) + 0.5*y1^2 + 0.25*y1^4")
    assert lag.constant_hessian is None
    field = hamilton_vector_field(InducedHamiltonian(lag))
    with pytest.raises(DomainError, match="sqrt of negative"):
        field(np.array([-0.5, 0.2]))
    with pytest.raises(DomainError, match="log needs a positive argument"):
        field(np.array([0.0, 0.2]))
    assert np.all(np.isfinite(field(np.array([0.5, 0.2]))))


def test_singular_fibre_hessian_raises_from_the_field():
    ent = rigid_body()
    bad = LagrangianSystem(ent.model, "0.5*y1^2 + 0.5*y2^2 + y3")
    with pytest.raises(SingularLagrangian, match="fibre Hessian singular"):
        el_vector_field(bad)(np.array([0.0, 0.1, 0.2, 0.3]))
    with pytest.raises(SingularLagrangian):
        el_section(bad, APoint([0.0], [0.1, 0.2, 0.3]))
    assert hamilton_vector_field(ent.ham)(np.array([0.0, 0.5, -0.3, 0.8])).shape == (4,)
    assert reeb_section(ent.ham, VStarPoint([0.0], [0.5, -0.3, 0.8]))[0] == 1.0


def test_induced_fibre_hessian_follows_the_regularity_rule():
    # the fibre Hessian W_H = W^-1 of the induced Hamiltonian exists where W
    # passes the rule of every fibre solve, and the match is refused where it
    # fails: W = 3 y^2 is exactly singular at the Newton start y = 0, and
    # diag(1, 1e-13) is above the condition limit
    line = AffgebroidModel(Chart(["t"], 1), ["1"], [["0"]])
    quartic = InducedHamiltonian(LagrangianSystem(line, "0.25*y1^4"))
    with pytest.raises(SingularLagrangian, match="fibre Hessian singular"):
        quartic.grad([0.0], [1.0])
    plane = AffgebroidModel(Chart(["t"], 2), ["1"], [["0"], ["0"]])
    stiff = InducedHamiltonian(LagrangianSystem(plane, "0.5*y1^2 + 0.5e-13*y2^2"))
    with pytest.raises(SingularLagrangian, match="condition number 1.000e\\+13"):
        stiff.grad([0.0], [1.0, 1.0])
    regular = InducedHamiltonian(LagrangianSystem(plane, "0.5*y1^2 + y2^2"))
    assert np.array_equal(regular.grad([0.0], [1.0, 1.0])[1], [1.0, 0.5])
