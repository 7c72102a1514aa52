import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flow_reference as ref
from affgebroid.atiyah import reduce
from affgebroid.catalog import all_entries, rigid_body, twisted_line
from affgebroid.errors import NonFiniteState, StepUnderflow
from affgebroid.flow import integrate_rk4, integrate_rk45, rate_field, time_derivative
from affgebroid.hamiltonian import HamiltonianSystem, hamilton_vector_field
from affgebroid.lagrangian import LagrangianSystem, el_vector_field
from affgebroid.legendre import InducedHamiltonian
from affgebroid.model import AffgebroidModel, Chart
from specs import random_spec


def test_rk4_exponential():
    traj = integrate_rk4(lambda s: s, [1.0], 0.0, 1.0, 1e-3)
    assert abs(traj.final[0] - math.e) < 1e-9
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)


def test_rk4_harmonic_full_period():
    def f(s):
        return np.array([s[1], -s[0]])

    traj = integrate_rk4(f, [1.0, 0.0], 0.0, 2.0 * math.pi, 1e-3)
    assert abs(traj.final[0] - 1.0) < 1e-7
    assert abs(traj.final[1]) < 1e-7


def test_rk4_lands_on_t1_with_short_final_step():
    traj = integrate_rk4(lambda s: np.array([1.0]), [0.0], 0.0, 0.35, 0.1)
    assert traj.times[-1] == pytest.approx(0.35, abs=1e-14)
    assert len(traj) == 5  # 3 full steps + shortened one + initial sample
    assert traj.final[0] == pytest.approx(0.35, abs=1e-14)


def test_rk4_nonfinite_detection():
    def f(s):
        return np.array([s[0] ** 2])

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            integrate_rk4(f, [1.0], 0.0, 5.0, 0.5)


def test_evals_count_field_calls():
    calls = 0

    def f(s):
        nonlocal calls
        calls += 1
        return np.array([s[1], -s[0]])

    traj = integrate_rk45(f, [1.0, 0.0], 0.0, 10.0)
    assert traj.meta["evals"] == calls
    calls = 0
    traj = integrate_rk4(f, [1.0, 0.0], 0.0, 0.35, 0.1)
    assert traj.meta["evals"] == calls == 16


def test_rk4_rejects_bad_args():
    with pytest.raises(ValueError):
        integrate_rk4(lambda s: s, [1.0], 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_rk4(lambda s: s, [1.0], 1.0, 0.0, 0.1)


def test_rk45_accuracy_and_nonuniform_grid():
    def f(s):
        return np.array([s[1], -s[0]])

    traj = integrate_rk45(f, [1.0, 0.0], 0.0, 2.0 * math.pi, rtol=1e-10, atol=1e-12)
    assert abs(traj.final[0] - 1.0) < 1e-8
    assert abs(traj.final[1]) < 1e-8
    steps = np.diff(traj.times)
    assert np.all(steps > 0.0)
    assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert traj.meta["method"] == "rk45"


def test_rk45_loose_tolerance_takes_fewer_steps():
    def f(s):
        return np.array([s[1], -s[0]])

    tight = integrate_rk45(f, [1.0, 0.0], 0.0, 10.0, rtol=1e-12, atol=1e-12)
    loose = integrate_rk45(f, [1.0, 0.0], 0.0, 10.0, rtol=1e-4, atol=1e-6)
    assert len(loose) < len(tight)


def test_rk45_underflow_at_singularity():
    # dy/dt = y^2 from y=1 blows up at t=1; the controller must give up
    def f(s):
        return s * s

    with pytest.raises(StepUnderflow):
        integrate_rk45(f, [1.0], 0.0, 2.0, rtol=1e-8, atol=1e-10)


def test_time_derivative_exact_on_quadratics():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.7])
    vals = (3.0 * t * t - 2.0 * t + 1.0).reshape(-1, 1)
    d = time_derivative(t, vals)
    expect = (6.0 * t - 2.0).reshape(-1, 1)
    assert np.max(np.abs(d - expect)) < 1e-12


def test_time_derivative_second_order_on_sin():
    t = np.linspace(0.0, 1.0, 101)
    vals = np.sin(t).reshape(-1, 1)
    d = time_derivative(t, vals)
    assert np.max(np.abs(d - np.cos(t).reshape(-1, 1))) < 5e-4


def test_time_derivative_needs_three_samples():
    with pytest.raises(ValueError):
        time_derivative([0.0, 1.0], [[0.0], [1.0]])


def _time_derivative_loop(times, values):
    # the row-by-row form time_derivative replaced, as its reference
    k = len(times)
    out = np.empty_like(values)
    for i in range(1, k - 1):
        ha = times[i] - times[i - 1]
        hb = times[i + 1] - times[i]
        out[i] = (hb / (ha * (ha + hb))) * (values[i] - values[i - 1]) + (
            ha / (hb * (ha + hb))
        ) * (values[i + 1] - values[i])
    out[0] = time_derivative(times[:3], values[:3])[0]
    out[-1] = time_derivative(times[-3:], values[-3:])[-1]
    return out


def test_time_derivative_matches_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    for k in (3, 4, 17, 200):
        times = np.cumsum(rng.uniform(1e-3, 0.3, size=k))
        values = rng.normal(size=(k, 3)) * rng.uniform(1e-3, 1e3, size=3)
        assert np.array_equal(time_derivative(times, values), _time_derivative_loop(times, values))


def test_slopes_are_the_field_at_the_states():
    def f(s):
        return np.array([s[1], -np.sin(s[0])])

    for traj in (
        integrate_rk4(f, [1.0, 0.0], 0.0, 0.35, 0.1),
        integrate_rk45(f, [1.0, 0.0], 0.0, 5.0),
    ):
        assert traj.slopes.shape == (len(traj) - 1, 2)
        for state, slope in zip(traj.states, traj.slopes):
            assert np.array_equal(slope, f(state))
    assert integrate_rk45(f, [1.0, 0.0], 0.0, 0.0).slopes.shape == (0, 2)


def test_rk45_never_evaluates_a_state_twice():
    # first same as last: an accepted step's seventh stage is the next step's
    # first, and a rejected step keeps its first stage
    seen = []

    def f(s):
        seen.append(s.tobytes())
        return np.array([s[1], -np.sin(s[0]) * (1.0 + s[0] ** 2)])

    traj = integrate_rk45(f, [2.5, 0.0], 0.0, 5.0, rtol=1e-10, atol=1e-12)
    assert traj.meta["evals"] == len(seen) == len(set(seen))
    # six calls per attempted step after the first stage: some were rejected
    assert (len(seen) - 1) // 6 > len(traj) - 1
    for state, slope in zip(traj.states, traj.slopes):
        assert np.array_equal(slope, f(state))


def _catalog_fields():
    # every catalog entry in both modes, from a sampled start
    cases = []
    for ent in all_entries():
        rng = np.random.default_rng(3)
        a, v = ent.model.chart.sample_a(rng), ent.model.chart.sample_vstar(rng)
        cases.append((ent.name + "-lagrangian", el_vector_field(ent.lag), np.concatenate([a.x, a.y])))
        cases.append((ent.name + "-hamiltonian", hamilton_vector_field(ent.ham), np.concatenate([v.x, v.p])))
    return cases


CATALOG_FIELDS = _catalog_fields()


@pytest.mark.parametrize("name, f, state0", CATALOG_FIELDS, ids=[c[0] for c in CATALOG_FIELDS])
def test_rk4_matches_the_numpy_loop_bit_for_bit(name, f, state0):
    # the list step sums in the order of the array step, so nothing moves
    got = integrate_rk4(f, state0, 0.0, 1.0, 0.01)
    want = ref.integrate_rk4(f, state0, 0.0, 1.0, 0.01)
    assert got.meta == want.meta
    for key in ("times", "states", "slopes"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


@pytest.mark.parametrize("name, f, state0", CATALOG_FIELDS, ids=[c[0] for c in CATALOG_FIELDS])
@pytest.mark.parametrize("rtol, atol", [(1e-8, 1e-10), (1e-10, 1e-12)])
def test_rk45_matches_the_numpy_loop(name, f, state0, rtol, atol):
    # the stage and error sums run in another order than numpy's, so they
    # differ by rounding; the first step is taken with the same h and
    # agrees to rounding, and after it the step control passes the
    # difference on: the error estimate is a sum that cancels to about rtol
    # of the state, so its relative rounding is up to eps / rtol, and every
    # later h inherits a fifth of that
    got = integrate_rk45(f, state0, 0.0, 2.0, rtol, atol)
    want = ref.integrate_rk45(f, state0, 0.0, 2.0, rtol, atol)
    assert got.meta == want.meta and len(got) == len(want)
    assert got.times[1] == want.times[1]
    assert np.allclose(got.states[1], want.states[1], rtol=1e-12, atol=1e-12)
    tol = np.finfo(float).eps / rtol
    assert np.allclose(got.times, want.times, rtol=tol, atol=0.0)
    for key in ("states", "slopes"):
        a, b = getattr(got, key), getattr(want, key)
        assert np.all(np.abs(a - b) <= tol * np.maximum(np.abs(b), 1.0)), key


def test_rk45_rejects_a_step_whose_last_stage_is_nan():
    # NaN in the second component of the first step's seventh stage only,
    # the first-same-as-last stage that no stage point of the step reads:
    # the error norm alone must turn non-finite and reject the step
    def field():
        calls = 0

        def f(s):
            nonlocal calls
            calls += 1
            return np.array([s[1], math.nan if calls == 7 else -s[0]])

        return f

    got = integrate_rk45(field(), [1.0, 0.0], 0.0, 1.0)
    want = ref.integrate_rk45(field(), [1.0, 0.0], 0.0, 1.0)
    assert got.times[1] == want.times[1] < 0.01
    assert np.all(np.isfinite(got.states)) and len(got) == len(want)


def test_array_fields_are_called_on_arrays():
    seen = []

    def f(s):
        seen.append(type(s))
        return [s[1], -s[0]]

    integrate_rk4(f, [1.0, 0.0], 0.0, 0.35, 0.1)
    integrate_rk45(f, [1.0, 0.0], 0.0, 1.0)
    assert set(seen) == {np.ndarray}


def test_rk45_integrates_a_component_that_stays_zero_at_atol_0():
    # atol = 0 on a component that is 0 and stays 0: its error is exactly 0
    # over a zero scale and counts 0, so the step control runs on the rest
    def decay(s):
        return np.array([-s[0], 0.0 * s[1]])

    rigid = hamilton_vector_field(rigid_body().ham)
    for f, state0 in ((decay, [1.0, 0.0]), (rigid, [0.0, 1.0, 0.0, 0.0])):
        got = integrate_rk45(f, state0, 0.0, 1.0, atol=0.0)
        want = ref.integrate_rk45(f, state0, 0.0, 1.0, atol=0.0)
        assert got.times[-1] == 1.0 and got.meta == want.meta and len(got) == len(want)
        tol = np.finfo(float).eps / 1e-8
        assert np.allclose(got.times, want.times, rtol=tol, atol=0.0)
        assert np.all(np.abs(got.states - want.states) <= tol * np.maximum(np.abs(want.states), 1.0))
    got = integrate_rk45(decay, [1.0, 0.0], 0.0, 1.0, atol=0.0)
    assert np.all(got.states[:, 1] == 0.0)
    assert np.allclose(got.states[:, 0], np.exp(-got.times), rtol=1e-7, atol=0.0)


# ---------------------------------------------------------------------------
# the generated RK4 step against the numpy loop, on every kind of field it
# serves: the "el" kernel of a constant W, the LU path of a W that varies,
# the "motion" kernel, the "induced" kernel and the Newton motion of the
# induced Hamiltonian, generated Atiyah models and plain array fields


def _quartic(ent):
    # the W of this L varies with y, so the field solves with the LU and the
    # induced Hamiltonian runs the Newton
    return LagrangianSystem(ent.model, ent.lag.lagrangian.source + " + 0.25*y1^4 + 0.1*y2^4")


def _atiyah(alg, seed):
    model = reduce(random_spec(np.random.default_rng(seed), algebra=alg))
    n = model.chart.fibre_dim
    lag = " + ".join("%g*y%d^2" % (0.5 + 0.25 * a, a + 1) for a in range(n))
    ham = " + ".join("%g*p%d^2" % (0.5 + 0.25 * a, a + 1) for a in range(n))
    return (LagrangianSystem(model, lag + " + 0.3*y1*y2 + x1*y1 - 0.5*x1^2*x2"),
            HamiltonianSystem(model, ham + " + 0.3*p1*p2 + x1*p1 + 0.5*x2^2"))


def _on_a(chart):
    def start(rng):
        a = chart.sample_a(rng)
        return np.concatenate([a.x, a.y])

    return start


def _on_dual(chart):
    def start(rng):
        v = chart.sample_vstar(rng)
        return np.concatenate([v.x, v.p])

    return start


def _step_cases():
    # name -> (maker of a fresh field, start sampler); a fresh field, since
    # the Newton of an induced Hamiltonian starts where its last solve ended
    cases = {}
    for ent in all_entries():
        chart = ent.model.chart
        cases[ent.name + "-lagrangian"] = (lambda ent=ent: el_vector_field(ent.lag), _on_a(chart))
        cases[ent.name + "-hamiltonian"] = (
            lambda ent=ent: hamilton_vector_field(ent.ham), _on_dual(chart))
    for ent in (rigid_body(), twisted_line()):
        cases[ent.name + "-induced"] = (
            lambda ent=ent: hamilton_vector_field(InducedHamiltonian(ent.lag)),
            _on_dual(ent.model.chart))
    quartic = _quartic(twisted_line())
    cases["quartic-lu"] = (lambda: el_vector_field(quartic), _on_a(quartic.model.chart))
    cases["quartic-induced-newton"] = (
        lambda: hamilton_vector_field(InducedHamiltonian(quartic)), _on_dual(quartic.model.chart))
    for alg in ("so3", "sl2", "heisenberg", "abelian"):
        lag, ham = _atiyah(alg, 0)
        chart = lag.model.chart
        cases["atiyah-%s-lagrangian" % alg] = (lambda lag=lag: el_vector_field(lag), _on_a(chart))
        cases["atiyah-%s-hamiltonian" % alg] = (
            lambda ham=ham: hamilton_vector_field(ham), _on_dual(chart))
    cases["array-pendulum"] = (
        lambda: lambda s: np.array([s[1], -np.sin(s[0])]), lambda rng: rng.uniform(-2, 2, 2))
    cases["array-euler-3d"] = (
        lambda: lambda s: np.array([s[1] * s[2], -s[0] * s[2], 0.5 * s[0] * s[1]]),
        lambda rng: rng.uniform(-1, 1, 3))
    cases["array-scalar"] = (lambda: lambda s: -s, lambda rng: rng.uniform(-1, 1, 1))
    return cases


STEP_CASES = _step_cases()


def _outcome(integrate, make, state0, t0, t1, dt):
    # times, states, slopes and meta as bytes, or the error type and message
    try:
        traj = integrate(make(), state0, t0, t1, dt)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return type(e), str(e)
    return traj.meta, traj.times.tobytes(), traj.states.tobytes(), traj.slopes.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(STEP_CASES)),
    seed=st.integers(0, 2**16),
    t0=st.floats(-2.0, 2.0),
    span=st.floats(0.0, 0.6),
    dt=st.floats(0.005, 0.25),
)
def test_generated_step_matches_the_numpy_loop_bit_for_bit(name, seed, t0, span, dt):
    make, start = STEP_CASES[name]
    state0 = start(np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        got = _outcome(integrate_rk4, make, state0, t0, t0 + span, dt)
        want = _outcome(ref.integrate_rk4, make, state0, t0, t0 + span, dt)
    assert got == want


@pytest.mark.parametrize("name", sorted(set(STEP_CASES) - {c[0] for c in CATALOG_FIELDS}))
def test_every_step_case_matches_over_a_long_run(name):
    # the catalog fields run in test_rk4_matches_the_numpy_loop_bit_for_bit
    make, start = STEP_CASES[name]
    state0 = start(np.random.default_rng(11))
    got = _outcome(integrate_rk4, make, state0, 0.0, 1.0, 0.01)
    assert got == _outcome(ref.integrate_rk4, make, state0, 0.0, 1.0, 0.01)
    assert not isinstance(got[0], type), got


def test_non_finite_state_fires_at_the_step_of_the_numpy_loop():
    def blowup():
        return lambda s: np.array([s[0] * s[0], 1.0])

    for dt in (0.05, 0.3, 0.5):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(integrate_rk4, blowup, [1.0, 0.0], 0.0, 5.0, dt)
            want = _outcome(ref.integrate_rk4, blowup, [1.0, 0.0], 0.0, 5.0, dt)
        assert got[0] is NonFiniteState and got == want


def test_a_domain_error_inside_a_stage_is_the_numpy_loops():
    # log(q) with q driven through 0 by the anchor: the "el" and "motion"
    # kernels raise their checked DomainError at a stage point, and the
    # generated step raises it where the numpy loop does, with its message
    chart = Chart(["q"], 1)
    model = AffgebroidModel(chart, ["-1"], [["0"]])
    fields = {
        "el": lambda: el_vector_field(LagrangianSystem(model, "0.5*y1^2 + log(q)")),
        "motion": lambda: hamilton_vector_field(HamiltonianSystem(model, "0.5*p1^2 - log(q)")),
    }
    for make in fields.values():
        got = _outcome(integrate_rk4, make, [0.5, 0.1], 0.0, 2.0, 0.07)
        want = _outcome(ref.integrate_rk4, make, [0.5, 0.1], 0.0, 2.0, 0.07)
        assert got[0].__name__ == "DomainError" and got == want


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_energies_are_the_energy_function_at_the_states(method):
    # the kernels return L or H last, and the integrators record it with
    # each slope: bit for bit the energy function evaluated on its own
    integrate = integrate_rk4 if method == "rk4" else integrate_rk45
    dt_or_rtol = 0.05 if method == "rk4" else 1e-8
    quartic = _quartic(twisted_line())
    systems = [(ent.lag, ent.ham) for ent in all_entries()] + [_atiyah("so3", 1), (quartic, None)]
    rng = np.random.default_rng(12)
    for lag, ham in systems:
        chart = lag.model.chart
        pairs = [(el_vector_field(lag), lag.lagrangian, _on_a(chart)(rng))]
        if ham is not None:
            pairs.append((hamilton_vector_field(ham), ham.hamiltonian, _on_dual(chart)(rng)))
        for field, energy, state0 in pairs:
            traj = integrate(field, state0, 0.0, 0.5, dt_or_rtol)
            want = np.array([energy.eval(s) for s in traj.states[:-1]])
            assert traj.energies.tobytes() == want.tobytes()
    plain = integrate(lambda s: -s, [1.0], 0.0, 0.5, dt_or_rtol)
    assert plain.energies is None


def test_an_rk4_step_calls_the_kernel_four_times():
    quartic = _quartic(twisted_line())
    ent = rigid_body()
    fields = [el_vector_field(ent.lag), hamilton_vector_field(ent.ham), el_vector_field(quartic),
              hamilton_vector_field(InducedHamiltonian(ent.lag))]
    for f in fields:
        calls = 0

        def kernel(*state, _kernel=f.kernel):
            nonlocal calls
            calls += 1
            return _kernel(*state)

        names = ["s%d" % i for i in range(len(f.positions))]
        counted = rate_field(kernel, names, f.positions, f.energy_at)
        traj = integrate_rk4(counted, np.full(len(names), 0.1), 0.0, 0.35, 0.1)
        assert len(traj) - 1 == 4 and calls == traj.meta["evals"] == 16
