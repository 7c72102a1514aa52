"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Vector fields here are autonomous callables state -> derivative; the clock,
when a system has one, is one of the base coordinates and advances through
the anchor, so integrators never thread a separate time argument into f.
"""

import numpy as np

from .errors import NonFiniteState, StepUnderflow


class Trajectory:
    """Sampled solution: times (k,), states (k, d), and a meta dict that
    callers fill with labels (coordinate names, conserved quantities, ...)."""

    __slots__ = ("times", "states", "meta")

    def __init__(self, times, states, meta=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.meta = dict(meta or {})

    def __len__(self):
        return len(self.times)

    @property
    def final(self):
        return self.states[-1]

    def __repr__(self):
        return "Trajectory(%d samples, t in [%g, %g])" % (
            len(self.times),
            self.times[0],
            self.times[-1],
        )


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
    step = 0
    # t is reconstructed as t0 + step*dt rather than accumulated, so rounding
    # drift cannot create a spurious sliver step at the end
    while t1 - t > 1e-15 * max(1.0, abs(t1)):
        h = min(dt, t1 - t)
        k1 = f(state)
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
    return Trajectory(np.array(times), np.array(states), meta)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
    if span == 0.0:
        return Trajectory(np.array(times), np.array(states), {"method": "rk45", "evals": 0})
    h = span / 100.0
    floor = 1e-14 * span
    nevals = 0
    naccept = 0
    # overflow inside trial stages is handled by rejection, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            if t1 - t - h < floor:
                h = t1 - t  # stretch to the end rather than leave a sliver
            if h < floor:
                raise StepUnderflow("step %g below floor %g at t=%.6g" % (h, floor, t))
            k = np.empty((7, state.size))
            k[0] = f(state)
            nevals += 1
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
            y5 = state + h * (_DP_B5 @ k)
            err_vec = h * (_DP_E @ k)
            scale = atol + rtol * np.maximum(np.abs(state), np.abs(y5))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            if not np.isfinite(err) or not np.all(np.isfinite(y5)):
                h *= 0.2
                continue
            if err <= 1.0:
                t += h
                state = y5
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
    )


def time_derivative(times, values):
    """d(values)/dt on a possibly non-uniform grid: 3-point centered stencils
    inside, one-sided second-order at the ends.  values has shape (k, d)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = len(times)
    if k < 3:
        raise ValueError("need at least 3 samples for second-order stencils")
    out = np.empty_like(values)
    # difference form keeps constants exactly at derivative zero
    for i in range(1, k - 1):
        ha = times[i] - times[i - 1]
        hb = times[i + 1] - times[i]
        out[i] = (hb / (ha * (ha + hb))) * (values[i] - values[i - 1]) + (
            ha / (hb * (ha + hb))
        ) * (values[i + 1] - values[i])
    ha = times[1] - times[0]
    hb = times[2] - times[1]
    out[0] = ((2 * ha + hb) / (ha * (ha + hb))) * (values[1] - values[0]) - (
        ha / (hb * (ha + hb))
    ) * (values[2] - values[1])
    ha = times[-2] - times[-3]
    hb = times[-1] - times[-2]
    out[-1] = ((ha + 2 * hb) / (hb * (ha + hb))) * (values[-1] - values[-2]) - (
        hb / (ha * (ha + hb))
    ) * (values[-2] - values[-3])
    return out
