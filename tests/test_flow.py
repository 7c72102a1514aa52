import math

import numpy as np
import pytest

from affgebroid.errors import NonFiniteState, StepUnderflow
from affgebroid.flow import integrate_rk4, integrate_rk45, time_derivative


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
