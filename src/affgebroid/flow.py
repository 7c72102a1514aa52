"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Vector fields here are autonomous callables state -> derivative; the clock,
when a system has one, is one of the base coordinates and advances through
the anchor, so integrators never thread a separate time argument into f.

The integrators step on lists of Python floats and build the arrays of the
Trajectory once, at the end.  A field may carry a kernel, as the fields that
rate_field builds for el_vector_field and hamilton_vector_field do: a
positional callable f.kernel(*state) -> tuple of floats, whose outputs at
f.positions are the rate and the one at f.energy_at, if any, the energy
function (L or H).  Any other field is called on np.array(state) and its
result read back as a list, as the kernel of a field without an energy.

For a state of dimension d, _stepper generates, once per (d, positions,
energy_at), straight-line Python for one RK4 step: four kernel calls, the
stage points and the RK4 combination unrolled over the d components, in the
operations and order of the numpy step, so that states and slopes are bit
for bit those of that step.  The first stage is evaluated at the state
itself, so the integrators record its rate (the slope) and its energy with
every state but the last.
"""

import functools
from math import isfinite, nan, sqrt

import numpy as np

from .errors import NonFiniteState, StepUnderflow
from .expressions import float_args


class Trajectory:
    """Sampled solution: times (k,), states (k, d), and a meta dict that
    callers fill with labels (coordinate names, conserved quantities, ...).
    The integrators also keep slopes (k - 1, d), the field at every state
    but the last, which they evaluated there as their first stage, and,
    for a field with an energy function, energies (k - 1,), its value at
    the same states."""

    __slots__ = ("times", "states", "meta", "slopes", "energies")

    def __init__(self, times, states, meta=None, slopes=None, energies=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.meta = dict(meta or {})
        if slopes is not None:
            slopes = np.array(slopes, dtype=float).reshape(len(slopes), self.states.shape[1])
        self.slopes = slopes
        self.energies = None if energies is None else np.array(energies, dtype=float)

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


@functools.lru_cache(maxsize=None)
def _stepper(d, positions, energy_at):
    """The generated step and stage for kernels whose outputs at positions
    are the rate of a d-dimensional state and at energy_at (None: nowhere)
    its energy: step(f, s, h) -> (the state one RK4 step of size h after s,
    the rate at s, the energy at s, whether the new state is finite), and
    stage(f, s) -> (rate, energy) at s; states and rates are lists of
    floats."""
    idx = range(d)

    def read(k):
        # the rate in the output o, into k0..k{d-1}
        return ["%s%d = o[%d]" % (k, i, p) for i, p in zip(idx, positions)]

    def call(k, scale):
        # the kernel at the state plus scale times the rate k
        return "o = f(%s)" % ", ".join("s%d + %s * %s%d" % (i, scale, k, i) for i in idx)

    def each(fmt):
        return ", ".join(fmt.replace("#", str(i)) for i in idx)

    energy = "None" if energy_at is None else "o[%d]" % energy_at
    # the builtin isfinite is a default argument, read as a local
    lines = ["def step(f, s, h, _isfinite=_isfinite):", "%s, = s" % each("s#"), "half = 0.5 * h"]
    lines += ["o = f(%s)" % each("s#")] + read("a") + ["e = %s" % energy, call("a", "half")]
    lines += read("b") + [call("b", "half")] + read("c") + [call("c", "h")] + read("d")
    lines += ["sixth = h / 6.0"]
    lines += ["n%d = s%d + sixth * (a%d + 2.0 * b%d + 2.0 * c%d + d%d)" % ((i,) * 6) for i in idx]
    finite = " and ".join("_isfinite(n%d)" % i for i in idx)
    lines += ["return [%s], [%s], e, %s" % (each("n#"), each("a#"), finite)]
    lines += ["def stage(f, s):", "o = f(*s)"] + read("a")
    lines += ["return [%s], %s" % (each("a#"), energy)]
    source = "\n".join(ln if ln.startswith("def ") else "    " + ln for ln in lines) + "\n"
    namespace = {"_isfinite": isfinite}
    exec(compile(source, "<rk4 step %d>" % d, "exec"), namespace)
    return namespace["step"], namespace["stage"]


def rate_field(kernel, names, positions=None, energy_at=None):
    """The array field over the named coordinates of a kernel: kernel(*state)
    returns a tuple of floats whose entries at positions (default the first
    len(names)) are the rate and the one at energy_at, if given, the energy
    function.  The integrators call the kernel itself."""
    d = len(names)
    positions = tuple(range(d)) if positions is None else tuple(positions)
    stage = _stepper(d, positions, energy_at)[1]

    def field(state):
        return np.array(stage(kernel, float_args(state, names))[0])

    field.kernel, field.positions, field.energy_at = kernel, positions, energy_at
    return field


def _parts(f, d):
    # a field's kernel, its step and stage, and where its energy is: its own
    # kernel, or for a plain field the field called on an array, its result
    # read back as a list, with no energy
    kernel = getattr(f, "kernel", None)
    if kernel is not None:
        return (kernel,) + _stepper(d, f.positions, f.energy_at) + (f.energy_at,)

    def kernel(*state):
        return np.asarray(f(np.array(state)), dtype=float).reshape(-1).tolist()

    return (kernel,) + _stepper(d, tuple(range(d)), None) + (None,)


def rate_and_energy(f, state):
    """The rate of the field f at state as a list of floats, and its energy
    function there (None for a field without one)."""
    state = np.array(state, dtype=float).reshape(-1).tolist()
    kernel, _, stage, _ = _parts(f, len(state))
    return stage(kernel, state)


def integrate_rk4(f, state0, t0, t1, dt):
    """Classical fixed-step RK4; the last step is shortened to land on t1
    exactly.  Records every step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    state = np.array(state0, dtype=float).reshape(-1).tolist()
    kernel, step, _, energy_at = _parts(f, len(state))
    t = t0 = float(t0)
    t1 = float(t1)
    times, states, slopes, energies = [t], [state], [], []
    n = 0
    # t is reconstructed as t0 + n*dt rather than accumulated, so rounding
    # drift cannot create a spurious sliver step at the end
    sliver = 1e-15 * max(1.0, abs(t1))
    while t1 - t > sliver:
        state, k1, e, finite = step(kernel, state, min(dt, t1 - t))
        slopes.append(k1)
        energies.append(e)
        n += 1
        t = min(t0 + n * dt, t1)
        if not finite:
            raise NonFiniteState("non-finite state at step %d, t=%.6g" % (n, t))
        times.append(t)
        states.append(state)
    meta = {"method": "rk4", "dt": dt, "evals": 4 * n}
    return Trajectory(times, states, meta, slopes, None if energy_at is None else energies)


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
    state = np.array(state0, dtype=float).reshape(-1).tolist()
    kernel, _, stage, energy_at = _parts(f, len(state))
    t, t1 = float(t0), float(t1)
    if t1 < t:
        raise ValueError("t1 must be >= t0")
    span = t1 - t
    times, states, slopes, energies = [t], [state], [], []
    if span == 0.0:
        meta = {"method": "rk45", "evals": 0}
        return Trajectory(times, states, meta, slopes, None if energy_at is None else energies)
    h = span / 100.0
    floor = 1e-14 * span
    k, e = [None] * 7, [None] * 7
    # an array field may overflow inside trial stages, which is handled by
    # rejection, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # first same as last: the seventh stage point becomes the new state,
        # so its stage is the next step's first, and a rejected step keeps
        # the first stage it had
        k[0], e[0] = stage(kernel, state)
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
                k[i], e[i] = stage(kernel, y)
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
                energies.append(e[0])
                k[0], e[0] = k[6], e[6]
                times.append(t)
                states.append(state)
            factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
    meta = {"method": "rk45", "rtol": rtol, "atol": atol, "evals": nevals}
    return Trajectory(times, states, meta, slopes, None if energy_at is None else energies)


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
