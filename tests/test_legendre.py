from collections import Counter

import numpy as np
import pytest

from affgebroid.catalog import all_entries, oscillator, rigid_body, twisted_line
from affgebroid.errors import NewtonDivergence
from affgebroid.expressions import ScalarField
from affgebroid.hamiltonian import (
    HamiltonianSystem,
    cosymplectic_check_h,
    hamilton_vector_field,
)
from affgebroid.flow import integrate_rk4
from affgebroid.lagrangian import LagrangianSystem, el_vector_field
from affgebroid.legendre import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    InducedHamiltonian,
    _newton,
    flow_commutation_check,
    l_from_h,
    leg,
    leg_inverse,
)
from affgebroid.model import APoint, VStarPoint
from specs import quartic_entry

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
        # W_H = W^-1 at the matched velocity y = dH/dp
        w = ent.lag.legendre_data(v.x, gp1)[2]
        w_h = ent.ham.legendre_data(v.x, v.p)[2]
        assert np.max(np.abs(w_h @ w - np.eye(len(w)))) < 1e-9


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
    a = APoint(v.x, ham._match(v.x, v.p)[0])
    lval, dldx = ent.lag.derivs(a.x, a.y)[:2]
    assert np.array_equal(gx, -dldx)
    assert value == float(v.p @ a.y) - lval
    cold = leg_inverse(ent.lag, v)
    assert h == float(v.p @ cold.y) - ent.lag.derivs(cold.x, cold.y)[0]


@pytest.mark.parametrize("ent", [rigid_body(), twisted_line(), quartic_entry()],
                         ids=lambda e: e.name)
def test_induced_rate_converts_its_state_once(ent, monkeypatch):
    # the motion kernel runs on the integrator's floats and converts
    # nothing: for a constant W it is one compiled kernel, on the Newton
    # path the Newton on the floats and then the "induced" kernel, which
    # reads the structure itself.  motion converts the state once on entry
    from affgebroid import expressions, flow, hamiltonian, lagrangian, legendre, model

    newton = ent.lag.constant_hessian is None
    assert newton == (ent.name == "twisted_line-quartic")
    ham = InducedHamiltonian(ent.lag)
    v = sample_v(ent, 1, seed=4)[0]
    state = np.concatenate([v.x, v.p]).tolist()
    ham.motion_kernel()(*state)  # compiles the kernels and warms the Newton start
    calls = []

    def counted(values, variables, real=expressions.float_args):
        calls.append(variables)
        return real(values, variables)

    for mod in (expressions, flow, hamiltonian, lagrangian, legendre, model):
        monkeypatch.setattr(mod, "float_args", counted)
    ham.motion_kernel()(*state)
    assert len(calls) == 0
    ham.motion(np.array(state))
    assert len(calls) == 1


def test_extended_map_reports_minus_energy():
    ent = twisted_line()
    for a in sample_a(ent, 10, seed=4):
        lval, p, _ = ent.lag.legendre_data(a.x, a.y)
        x, y0 = a.x, lval - float(a.y @ p)
        assert y0 == pytest.approx(-InducedHamiltonian(ent.lag).value(x, p), abs=1e-10)


@pytest.mark.parametrize("maker", PAIRED)
def test_fh_inverts_leg(maker):
    ent = maker()
    for a in sample_a(ent, 10, seed=5):
        v = leg(ent.lag, a)
        back = ent.ham.grad(v.x, v.p)[1]
        assert np.max(np.abs(back - a.y)) < 1e-12
        assert np.linalg.det(ent.ham.legendre_data(v.x, v.p)[2]) != 0.0


@pytest.mark.parametrize("maker", PAIRED)
def test_l_from_h_recovers_lagrangian(maker):
    ent = maker()
    for a in sample_a(ent, 10, seed=6):
        lval = ent.lag.derivs(a.x, a.y)[0]
        assert l_from_h(ent.ham, a) == pytest.approx(lval, abs=1e-10)


def _count_calls(monkeypatch, field, calls):
    # calls of the evaluation methods of ScalarField on this one field
    for name in ("eval", "value_grad", "eval_dual2"):
        def counted(self, *args, _name=name, _method=getattr(ScalarField, name)):
            if self is field:
                calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(ScalarField, name, counted)


@pytest.mark.parametrize("maker", PAIRED)
def test_l_from_h_reads_only_the_legendre_kernel_of_h(maker, monkeypatch):
    ent = maker()
    calls = Counter()
    _count_calls(monkeypatch, ent.ham.hamiltonian, calls)
    for a in sample_a(ent, 5, seed=13):
        l_from_h(ent.ham, a)
    assert calls == Counter()


@pytest.mark.parametrize("ent", all_entries() + [quartic_entry()], ids=lambda e: e.name)
def test_induced_value_and_fibre_hessian_reuse_the_newton_data(ent, monkeypatch):
    # value reads L from the "legendre" kernel output at the matched
    # velocity, which also holds W there.  On the Newton path (the quartic L)
    # that is the last iterate: value makes the "legendre" kernel calls that
    # a leg_inverse from the same start makes, one per residual.  For a
    # constant W, leg_inverse makes one "inverse" kernel call, and value
    # makes that call and one "legendre" call.  Nothing else evaluates L
    newton = ent.lag.constant_hessian is None
    assert newton == (ent.name == "twisted_line-quartic")
    calls = Counter()
    _count_calls(monkeypatch, ent.lag.lagrangian, calls)
    kernel = LagrangianSystem.kernel

    def counted(self, kind):
        def call(*args, _kernel=kernel(self, kind)):
            calls[kind] += 1
            return _kernel(*args)

        return call

    monkeypatch.setattr(LagrangianSystem, "kernel", counted)
    n = ent.model.chart.fibre_dim
    for v in sample_v(ent, 5, seed=14):
        v.p *= 3.0
        calls.clear()
        leg_inverse(ent.lag, v)
        if newton:
            residuals = calls["legendre"]
            assert calls == Counter(legendre=residuals) and residuals >= 1
            want = Counter(legendre=residuals)
        else:
            assert calls == Counter(inverse=1)
            want = Counter(inverse=1, legendre=1)
        calls.clear()
        InducedHamiltonian(ent.lag).value(v.x, v.p)
        assert calls == want
        # the match gives W at the matched velocity with those same calls
        calls.clear()
        y, out = InducedHamiltonian(ent.lag)._match(v.x.tolist(), v.p.tolist())
        assert calls == want
        w = np.reshape(out[1 + n :], (n, n))
        assert np.array_equal(w, ent.lag.legendre_data(v.x, y)[2])


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


@pytest.mark.parametrize("ent", [rigid_body(), twisted_line(), quartic_entry()],
                         ids=lambda e: e.name)
def test_flow_commutation_reads_the_images_of_leg(ent):
    # the images of the Lagrangian states come from one "legendre" kernel
    # call per state: leg's images, bit for bit, so the gap is the same
    a0 = sample_a(ent, 1, seed=21)[0]

    def with_leg(ham):
        m = ent.model.chart.dim_base
        el = integrate_rk4(el_vector_field(ent.lag), np.concatenate([a0.x, a0.y]), 0.0, 0.2, 1e-2)
        v0 = leg(ent.lag, a0)
        h = integrate_rk4(hamilton_vector_field(ham), np.concatenate([v0.x, v0.p]), 0.0, 0.2, 1e-2)
        images = [leg(ent.lag, APoint(s[:m], s[m:])) for s in el.states]
        gaps = np.array([np.concatenate([v.x, v.p]) for v in images]) - h.states
        return float(np.max(np.abs(gaps)))

    got = flow_commutation_check(InducedHamiltonian(ent.lag), a0, 0.2, 1e-2)
    assert got == with_leg(InducedHamiltonian(ent.lag))


def test_newton_rejects_a_trial_with_a_nan_residual():
    # exp(-(1e153 y2)^2) is 0 away from y2 = 0, but its y2-derivative is
    # 0 * inf = NaN where 1e153 * (1e153 y2) overflows, past |y2| ~ 90.  The
    # full Newton step from y2 = 0.5 lands at y2 ~ 571 with dL/dy1 already
    # matched, so the residual there is (0, NaN): its norm must be NaN, not
    # 0, and the damping walks back to y2 ~ 9.4 and on to y2 + y2^3 = 1000
    ent = twisted_line()
    src = "0.5*y1^2 + 0.5*y2^2 + 0.25*y2^4 + exp(-(1e153*y2)*(1e153*y2))"
    lag = LagrangianSystem(ent.model, src)
    v = VStarPoint([0.7], [0.0, 1000.0])
    a = leg_inverse(lag, v, guess=[0.0, 0.5])
    y2 = a.y[1]
    assert a.y[0] == 0.0 and abs(y2 + y2**3 - 1000.0) < 1e-9
    assert np.max(np.abs(lag.legendre_data(a.x, a.y)[1] - v.p)) <= 1e-12


def test_newton_divergence_on_degenerate_hamiltonian():
    ent = oscillator()
    flat = HamiltonianSystem(ent.model, "p1")
    with pytest.raises(NewtonDivergence):
        l_from_h(flat, APoint([0.0, 0.0], [0.5]))


def test_newton_settings_are_the_package_constants():
    assert NEWTON_TOL == 1e-12
    assert NEWTON_MAX_ITER == 50


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
    tol = NEWTON_TOL
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


def _newton_reference(lag, v):
    # y, H, dH/dx and dH/dp at (x, p) from the Newton solve, as the Newton
    # path of InducedHamiltonian reads them
    x, p = v.x.tolist(), v.p.tolist()
    y, out = _newton(lag, x, p, None)
    dldx = lag.lagrangian._kernel(1)(*x, *y)[1 : 1 + len(x)]
    return np.array(y), float(v.p @ np.array(y)) - out[0], -np.array(dldx)


def _random_quadratics(k, seed):
    # strictly convex quadratic fibre parts with base coupling, over x
    ent = twisted_line()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        a, c = rng.uniform(0.3, 2.0, size=2)
        b = rng.uniform(-0.5, 0.5) * np.sqrt(a * c)
        src = "%.17g*y1^2 + %.17g*y1*y2 + %.17g*y2^2 + x*y1 + sin(x)*y2 - 0.5*x^2" % (a, b, c)
        out.append(LagrangianSystem(ent.model, src))
    return out


def test_closed_form_matches_the_newton():
    # y, value, grad and motion of the closed form against the Newton on
    # the same L, and against the Newton path of InducedHamiltonian, which
    # runs when constant_hessian is switched off
    lags = [ent.lag for ent in all_entries()] + _random_quadratics(10, seed=15)
    for lag in lags:
        assert lag.constant_hessian is not None
        closed = InducedHamiltonian(lag)
        slow = LagrangianSystem(lag.model, lag.lagrangian.source)
        slow.constant_hessian = None
        newton = InducedHamiltonian(slow)
        rng = np.random.default_rng(16)
        for _ in range(10):
            v = lag.model.chart.sample_vstar(rng)
            y, value, dhdx = _newton_reference(lag, v)
            assert np.max(np.abs(leg_inverse(lag, v).y - y)) <= 1e-12
            assert abs(closed.value(v.x, v.p) - value) <= 1e-12
            gx, gp = closed.grad(v.x, v.p)
            assert np.max(np.abs(gx - dhdx)) <= 1e-12 and np.max(np.abs(gp - y)) <= 1e-12
            state = np.concatenate([v.x, v.p])
            gap = np.array(closed.motion(state)) - np.array(newton.motion(state))
            assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: e.name)
def test_catalog_hamiltonian_is_the_legendre_image_of_its_lagrangian(ent):
    induced = InducedHamiltonian(ent.lag)
    for v in sample_v(ent, 20, seed=17):
        assert abs(ent.ham.value(v.x, v.p) - induced.value(v.x, v.p)) <= 1e-12
