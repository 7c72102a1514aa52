"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Vector fields here are autonomous callables state -> derivative; the clock,
when a system has one, is one of the base coordinates and advances through
the anchor, so integrators never thread a separate time argument into f.

The integrators step on lists of Python floats and build the arrays of the
Trajectory once, at the end.  A field may carry a float-level rate,
f.rate(state list) -> sequence of floats, as the fields that rate_field
builds for el_vector_field and hamilton_vector_field do; the integrators
call it.  Any other field is called on np.array(state) and its result is
read back as a list.
"""

from math import isfinite, nan, sqrt

import numpy as np

from .errors import NonFiniteState, StepUnderflow
from .expressions import float_args


class Trajectory:
    """Sampled solution: times (k,), states (k, d), and a meta dict that
    callers fill with labels (coordinate names, conserved quantities, ...).
    The integrators also keep slopes (k - 1, d), the field at every state
    but the last, which they evaluated there as their first stage."""

    __slots__ = ("times", "states", "meta", "slopes")

    def __init__(self, times, states, meta=None, slopes=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.meta = dict(meta or {})
        if slopes is not None:
            slopes = np.array(slopes, dtype=float).reshape(len(slopes), self.states.shape[1])
        self.slopes = slopes

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


def rate_field(rate, names):
    """The array field of a float-level rate over the named coordinates."""

    def field(state):
        return np.array(rate(float_args(state, names)))

    field.rate = rate
    return field


def _rate(f):
    # the float-level rate of a field: its own, or the field called on an
    # array with its result read back as a list
    rate = getattr(f, "rate", None)
    if rate is None:
        def rate(state):
            return np.asarray(f(np.array(state)), dtype=float).reshape(-1).tolist()
    return rate


def integrate_rk4(f, state0, t0, t1, dt):
    """Classical fixed-step RK4; the last step is shortened to land on t1
    exactly.  Records every step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    rate = _rate(f)
    state = np.array(state0, dtype=float).reshape(-1).tolist()
    t = t0 = float(t0)
    t1 = float(t1)
    times, states, slopes = [t], [state], []
    step = 0
    # t is reconstructed as t0 + step*dt rather than accumulated, so rounding
    # drift cannot create a spurious sliver step at the end
    while t1 - t > 1e-15 * max(1.0, abs(t1)):
        h = min(dt, t1 - t)
        half, sixth = 0.5 * h, h / 6.0
        k1 = rate(state)
        slopes.append(k1)
        k2 = rate([s + half * a for s, a in zip(state, k1)])
        k3 = rate([s + half * b for s, b in zip(state, k2)])
        k4 = rate([s + h * c for s, c in zip(state, k3)])
        state = [
            s + sixth * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        step += 1
        t = min(t0 + step * dt, t1)
        if not all(map(isfinite, state)):
            raise NonFiniteState("non-finite state at step %d, t=%.6g" % (step, t))
        times.append(t)
        states.append(state)
    return Trajectory(times, states, {"method": "rk4", "dt": dt, "evals": 4 * step}, slopes)


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
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def _combine(weights, ks):
    # sum_j weights[j] ks[j] per component, left to right; a zero weight
    # still multiplies, so a non-finite stage always reaches the sum
    acc = [weights[0] * v for v in ks[0]]
    for w, k in zip(weights[1:], ks[1:]):
        acc = [u + w * v for u, v in zip(acc, k)]
    return acc


def integrate_rk45(f, state0, t0, t1, rtol=1e-8, atol=1e-10):
    """Adaptive Dormand-Prince with simple step control.  Accepted steps only
    are recorded, so the grid is non-uniform."""
    rate = _rate(f)
    state = np.array(state0, dtype=float).reshape(-1).tolist()
    t, t1 = float(t0), float(t1)
    if t1 < t:
        raise ValueError("t1 must be >= t0")
    span = t1 - t
    times, states, slopes = [t], [state], []
    if span == 0.0:
        return Trajectory(times, states, {"method": "rk45", "evals": 0}, slopes)
    h = span / 100.0
    floor = 1e-14 * span
    k = [None] * 7
    # an array field may overflow inside trial stages, which is handled by
    # rejection, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # first same as last: the seventh stage point becomes the new state,
        # so its stage is the next step's first, and a rejected step keeps
        # the first stage it had
        k[0] = rate(state)
        nevals = 1
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            if t1 - t - h < floor:
                h = t1 - t  # stretch to the end rather than leave a sliver
            if h < floor:
                raise StepUnderflow("step %g below floor %g at t=%.6g" % (h, floor, t))
            err = nan
            for i in range(1, 7):
                y = [s + h * v for s, v in zip(state, _combine(_DP_A[i], k[:i]))]
                if not all(map(isfinite, y)):
                    break
                k[i] = rate(y)
                nevals += 1
            else:
                # the last row of the tableau is the fifth-order weights, so
                # the seventh stage point y is the fifth-order solution; a
                # non-finite stage makes err non-finite (e*e, unlike e**2,
                # overflows to inf rather than raising), and so does a
                # nonzero error over a zero scale; an error 0 counts 0
                try:
                    scaled = [
                        d and d / (atol + rtol * max(abs(s), abs(v)))
                        for d, s, v in zip([h * e for e in _combine(_DP_E, k)], state, y)
                    ]
                    err = sqrt(sum([e * e for e in scaled]) / len(scaled))
                except ZeroDivisionError:
                    pass
            if not isfinite(err):
                h *= 0.2
                continue
            if err <= 1.0:
                t += h
                state = y
                slopes.append(k[0])
                k[0] = k[6]
                times.append(t)
                states.append(state)
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
    meta = {"method": "rk45", "rtol": rtol, "atol": atol, "evals": nevals}
    return Trajectory(times, states, meta, slopes)


def time_derivative(times, values):
    """d(values)/dt on a possibly non-uniform grid: 3-point centered stencils
    inside, one-sided second-order at the ends.  values has shape (k, d)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    k = len(times)
    if k < 3:
        raise ValueError("need at least 3 samples for second-order stencils")
    out = np.empty_like(values)
    # difference form keeps constants exactly at derivative zero; the weights
    # are per interior point, one row each
    ha = times[1:-1] - times[:-2]
    hb = times[2:] - times[1:-1]
    wa = (hb / (ha * (ha + hb)))[:, None]
    wb = (ha / (hb * (ha + hb)))[:, None]
    out[1:-1] = wa * (values[1:-1] - values[:-2]) + wb * (values[2:] - values[1:-1])
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
