import numpy as np
import pytest

from affgebroid.catalog import oscillator, rigid_body, twisted_line
from affgebroid.errors import NewtonDivergence
from affgebroid.hamiltonian import (
    HamiltonianSystem,
    cosymplectic_check_h,
    hamilton_vector_field,
)
from affgebroid.lagrangian import LagrangianSystem
from affgebroid.legendre import (
    InducedHamiltonian,
    fh,
    fh_det,
    flow_commutation_check,
    l_from_h,
    leg,
    leg_extended,
    leg_inverse,
)
from affgebroid.model import APoint

PAIRED = [oscillator, rigid_body, twisted_line]


def sample_a(entry, k, seed):
    rng = np.random.default_rng(seed)
    return [entry.model.chart.sample_a(rng) for _ in range(k)]


def sample_v(entry, k, seed):
    rng = np.random.default_rng(seed)
    return [entry.model.chart.sample_vstar(rng) for _ in range(k)]


@pytest.mark.parametrize("maker", PAIRED)
def test_round_trip_a_to_dual_and_back(maker):
    ent = maker()
    for a in sample_a(ent, 20, seed=1):
        v = leg(ent.lag, a)
        back = leg_inverse(ent.lag, v)
        assert np.max(np.abs(back.y - a.y)) < 1e-10
        assert np.array_equal(back.x, a.x)


@pytest.mark.parametrize("maker", PAIRED)
def test_round_trip_dual_to_a_and_back(maker):
    ent = maker()
    for v in sample_v(ent, 20, seed=2):
        a = leg_inverse(ent.lag, v)
        again = leg(ent.lag, a)
        assert np.max(np.abs(again.p - v.p)) < 1e-10


@pytest.mark.parametrize("maker", PAIRED)
def test_induced_hamiltonian_matches_closed_form(maker):
    ent = maker()
    ham = InducedHamiltonian(ent.lag)
    for v in sample_v(ent, 10, seed=3):
        assert InducedHamiltonian(ent.lag).value(v.x, v.p) == pytest.approx(
            ent.ham.value(v.x, v.p), abs=1e-10
        )
        gx1, gp1 = ham.grad(v.x, v.p)
        gx2, gp2 = ent.ham.grad(v.x, v.p)
        assert np.max(np.abs(gx1 - gx2)) < 1e-9
        assert np.max(np.abs(gp1 - gp2)) < 1e-9
        w1 = ham.fibre_hessian(v.x, v.p)
        w2 = ent.ham.fibre_hessian(v.x, v.p)
        assert np.max(np.abs(w1 - w2)) < 1e-9


def test_induced_field_call_makes_no_derivs_call(monkeypatch):
    # L and dL/dx come from the value and gradient kernels, with the bits
    # the full derivatives would give, and no fibre Hessian is built
    ent = twisted_line()
    ham = InducedHamiltonian(ent.lag)
    v = sample_v(ent, 1, seed=4)[0]
    calls = []
    derivs = LagrangianSystem.derivs
    monkeypatch.setattr(
        LagrangianSystem, "derivs", lambda self, x, y: calls.append(1) or derivs(self, x, y)
    )
    hamilton_vector_field(ham)(np.concatenate([v.x, v.p]))
    gx, _ = ham.grad(v.x, v.p)
    value = ham.value(v.x, v.p)
    h = InducedHamiltonian(ent.lag).value(v.x, v.p)
    assert calls == []
    monkeypatch.undo()
    # warm started at its own solution, the match comes back unchanged
    a = ham._match(v.x, v.p)
    lval, dldx = ent.lag.derivs(a.x, a.y)[:2]
    assert np.array_equal(gx, -dldx)
    assert value == float(v.p @ a.y) - lval
    cold = leg_inverse(ent.lag, v)
    assert h == float(v.p @ cold.y) - ent.lag.derivs(cold.x, cold.y)[0]


def test_extended_map_reports_minus_energy():
    ent = twisted_line()
    for a in sample_a(ent, 10, seed=4):
        x, y0, p = leg_extended(ent.lag, a)
        assert y0 == pytest.approx(-InducedHamiltonian(ent.lag).value(x, p), abs=1e-10)


@pytest.mark.parametrize("maker", PAIRED)
def test_fh_inverts_leg(maker):
    ent = maker()
    for a in sample_a(ent, 10, seed=5):
        v = leg(ent.lag, a)
        back = fh(ent.ham, v)
        assert np.max(np.abs(back.y - a.y)) < 1e-12
        assert fh_det(ent.ham, v) != 0.0


@pytest.mark.parametrize("maker", PAIRED)
def test_l_from_h_recovers_lagrangian(maker):
    ent = maker()
    for a in sample_a(ent, 10, seed=6):
        lval = ent.lag.derivs(a.x, a.y)[0]
        assert l_from_h(ent.ham, a) == pytest.approx(lval, abs=1e-10)


def test_l_from_h_section_independent():
    ent = rigid_body()
    rng = np.random.default_rng(7)
    for a in sample_a(ent, 10, seed=8):
        r1 = rng.normal(size=3)
        r2 = rng.normal(size=3)
        v1 = l_from_h(ent.ham, a, section=r1)
        v2 = l_from_h(ent.ham, a, section=r2)
        v0 = l_from_h(ent.ham, a)
        assert abs(v1 - v2) < 1e-12
        assert abs(v1 - v0) < 1e-12


def test_induced_hamiltonian_drives_cosymplectic_geometry():
    ent = twisted_line()
    ham = InducedHamiltonian(ent.lag)
    for v in sample_v(ent, 5, seed=9):
        r1, r2 = cosymplectic_check_h(ham, v)
        assert r1 < 1e-8
        assert r2 < 1e-12


@pytest.mark.parametrize("maker", PAIRED)
def test_flow_commutation(maker):
    ent = maker()
    ham = InducedHamiltonian(ent.lag)
    rng = np.random.default_rng(10)
    a0 = ent.model.chart.sample_a(rng)
    assert flow_commutation_check(ham, a0, 1.0, 1e-3) < 1e-5


def test_newton_divergence_on_degenerate_hamiltonian():
    ent = oscillator()
    flat = HamiltonianSystem(ent.model, "p1")
    with pytest.raises(NewtonDivergence):
        l_from_h(flat, APoint([0.0, 0.0], [0.5]))


def test_warm_start_is_deterministic():
    ent = rigid_body()
    ham1 = InducedHamiltonian(ent.lag)
    ham2 = InducedHamiltonian(ent.lag)
    pts = sample_v(ent, 5, seed=11)
    vals1 = [ham1.value(v.x, v.p) for v in pts]
    # different warm-start history agrees within the Newton tolerance
    vals2 = [ham2.value(v.x, v.p) for v in reversed(pts)][::-1]
    assert np.allclose(vals1, vals2, atol=1e-11)
    # an identical call sequence on a fresh Hamiltonian reproduces exactly
    fresh = InducedHamiltonian(ent.lag)
    again = [fresh.value(v.x, v.p) for v in pts]
    assert vals1 == again


def test_warm_start_agrees_with_cold_start_along_a_path():
    # the warm start changes where Newton starts, so the matched velocity
    # may move by rounding, but never by more than the Newton tolerance:
    # W = diag(1 + 3 y1^2, 1 + 1.2 y2^2) >= I, so each side lies within tol
    # of the exact fibre solution
    ent = twisted_line()
    quart = LagrangianSystem(ent.model, "0.5*y1^2 + 0.5*y2^2 + 0.25*y1^4 + 0.1*y2^4 + x*y1")
    warm = InducedHamiltonian(quart)
    tol = warm.params.tol
    for s in np.linspace(0.0, 1.0, 41):
        x, p = [0.5 + 0.4 * s], [2.0 * np.sin(3.0 * s), 1.5 - 3.0 * s]
        cold = InducedHamiltonian(quart)
        for got, ref in zip(warm.grad(x, p), cold.grad(x, p)):
            assert np.max(np.abs(got - ref)) <= 2.0 * tol


def test_quartic_lagrangian_round_trip():
    # non-quadratic fibre dependence exercises the genuine Newton path
    ent = oscillator()
    quart = LagrangianSystem(ent.model, "0.25*y1^4 + 0.5*y1^2 - 0.5*q^2")
    for val in [0.9, 0.1, -0.7]:
        a = APoint([0.0, 0.3], [val])
        v = leg(quart, a)
        back = leg_inverse(quart, v, guess=[0.5])
        assert abs(back.y[0] - val) < 1e-10
