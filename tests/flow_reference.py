"""The numpy RK4 and Dormand-Prince 5(4) loops that the list-based
integrators in affgebroid.flow replaced, kept as the reference they are
tested against.

Each step does its vector arithmetic on numpy arrays: the field is called on
an array state and its result is wrapped in np.array.
"""

import numpy as np

from affgebroid.errors import NonFiniteState, StepUnderflow
from affgebroid.flow import Trajectory


def _check_finite(state, step, t):
    if not np.all(np.isfinite(state)):
        raise NonFiniteState("non-finite state at step %d, t=%.6g" % (step, t))


def integrate_rk4(f, state0, t0, t1, dt):
    """Classical fixed-step RK4; the last step is shortened to land on t1
    exactly.  Records every step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    state = np.array(state0, dtype=float).reshape(-1)
    t = float(t0)
    t0, t1 = float(t0), float(t1)
    times = [t]
    states = [state.copy()]
    slopes = []
    step = 0
    # t is reconstructed as t0 + step*dt rather than accumulated, so rounding
    # drift cannot create a spurious sliver step at the end
    while t1 - t > 1e-15 * max(1.0, abs(t1)):
        h = min(dt, t1 - t)
        k1 = f(state)
        slopes.append(k1)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step += 1
        t = min(t0 + step * dt, t1)
        _check_finite(state, step, t)
        times.append(t)
        states.append(state.copy())
    meta = {"method": "rk4", "dt": dt, "evals": 4 * step}
    return Trajectory(np.array(times), np.array(states), meta, _stack(slopes, state))


def _stack(slopes, state):
    return np.array(slopes, dtype=float).reshape(len(slopes), state.size)


# Dormand-Prince 5(4) tableau
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def integrate_rk45(f, state0, t0, t1, rtol=1e-8, atol=1e-10):
    """Adaptive Dormand-Prince with simple step control.  Accepted steps only
    are recorded, so the grid is non-uniform."""
    state = np.array(state0, dtype=float).reshape(-1)
    t = float(t0)
    t1 = float(t1)
    if t1 < t:
        raise ValueError("t1 must be >= t0")
    span = t1 - t
    times = [t]
    states = [state.copy()]
    slopes = []
    if span == 0.0:
        meta = {"method": "rk45", "evals": 0}
        return Trajectory(np.array(times), np.array(states), meta, _stack(slopes, state))
    h = span / 100.0
    floor = 1e-14 * span
    k = np.empty((7, state.size))
    naccept = 0
    # overflow inside trial stages is handled by rejection, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # first same as last: the seventh stage point becomes the new state,
        # so its stage is the next step's first, and a rejected step keeps
        # the first stage it had
        k[0] = f(state)
        nevals = 1
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            if t1 - t - h < floor:
                h = t1 - t  # stretch to the end rather than leave a sliver
            if h < floor:
                raise StepUnderflow("step %g below floor %g at t=%.6g" % (h, floor, t))
            bad = False
            for i in range(1, 7):
                y = state + h * (np.array(_DP_A[i]) @ k[:i])
                if not np.all(np.isfinite(y)):
                    bad = True
                    break
                k[i] = f(y)
                nevals += 1
            if bad or not np.all(np.isfinite(k)):
                h *= 0.2
                continue
            # the last row of the tableau is the fifth-order weights, so the
            # seventh stage point y is the fifth-order solution; an error of
            # exactly 0 counts 0 even over a zero scale, any other error
            # over a zero scale makes err inf or NaN
            err_vec = h * (_DP_E @ k)
            scale = atol + rtol * np.maximum(np.abs(state), np.abs(y))
            with np.errstate(divide="ignore"):
                scaled = np.divide(err_vec, scale, out=np.zeros_like(err_vec), where=err_vec != 0)
            err = float(np.sqrt(np.mean(scaled ** 2)))
            if not np.isfinite(err):
                h *= 0.2
                continue
            if err <= 1.0:
                t += h
                state = y
                slopes.append(k[0].copy())
                k[0] = k[6]
                naccept += 1
                _check_finite(state, naccept, t)
                times.append(t)
                states.append(state.copy())
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
    return Trajectory(
        np.array(times),
        np.array(states),
        {"method": "rk45", "rtol": rtol, "atol": atol, "evals": nevals},
        _stack(slopes, state),
    )
