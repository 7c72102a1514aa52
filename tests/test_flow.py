import math

import numpy as np
import pytest

import flow_reference as ref
from affgebroid.catalog import all_entries, rigid_body
from affgebroid.errors import NonFiniteState, StepUnderflow
from affgebroid.flow import integrate_rk4, integrate_rk45, time_derivative
from affgebroid.hamiltonian import hamilton_vector_field
from affgebroid.lagrangian import el_vector_field


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
