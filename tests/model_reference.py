"""Reads of a model and of its fields that the package does not need, kept
for the tests as references independent of the compiled kernels.

c_value reads one bracket coefficient from its own field; embed lays
structure values or gradients at a point out over the indices 0..n, slot 0
being the reference direction e_0, and full_arrays does so for the values;
fd_grad and fd_hess are central finite differences of a field, the
independent check on its symbolic derivatives.
"""

import numpy as np


def c_value(model, a, b, g, x):
    """C_ab^g at x, for any 1-based a, b: reads of the swapped pair are the
    exact negation, diagonal reads are 0."""
    n = model.chart.fibre_dim
    if not (1 <= a <= n and 1 <= b <= n and 1 <= g <= n):
        raise IndexError("indices out of range")
    if a == b:
        return 0.0
    if a < b:
        return model.c[(a, b)][g - 1].eval(x) if (a, b) in model.c else 0.0
    return -(model.c[(b, a)][g - 1].eval(x)) if (b, a) in model.c else 0.0


def embed(s):
    """StructureValues at one point, with any trailing axes, laid out over
    the indices 0..n, slot 0 being e_0: the anchor rho_I^j, shape
    (n+1, m, ...), and the bracket C_IJ^K, shape (n+1, n+1, n+1, ...)."""
    n = s.c0.shape[0]
    c = np.zeros((n + 1, n + 1, n + 1) + s.c0.shape[2:])
    c[0, 1:, 1:] = s.c0
    c[1:, 0, 1:] = -s.c0
    c[1:, 1:, 1:] = s.c
    return np.concatenate([s.rho0[None], s.rho]), c


def full_arrays(model, x):
    """The anchor rho_I^j, shape (n+1, m), and the bracket C_IJ^K, shape
    (n+1, n+1, n+1), at x."""
    return embed(model.structure_at(x))


def _shifted(base, *moves):
    out = list(base)
    for j, h in moves:
        out[j] += h
    return out


def fd_grad(field, values, step=1e-5):
    """Central finite-difference gradient over all of the field's variables."""
    base = [float(v) for v in values]
    f = field.eval
    return np.array(
        [
            (f(_shifted(base, (j, step))) - f(_shifted(base, (j, -step)))) / (2.0 * step)
            for j in range(len(base))
        ]
    )


def fd_hess(field, values, step=1e-4):
    """Central finite-difference Hessian over all of the field's variables."""
    base = [float(v) for v in values]
    f = field.eval
    k = len(base)
    h = np.zeros((k, k))
    f0 = f(base)
    for i in range(k):
        up, dn = (i, step), (i, -step)
        h[i, i] = (f(_shifted(base, up)) - 2.0 * f0 + f(_shifted(base, dn))) / (step * step)
        for j in range(i + 1, k):
            h[i, j] = h[j, i] = (
                f(_shifted(base, up, (j, step)))
                - f(_shifted(base, up, (j, -step)))
                - f(_shifted(base, dn, (j, step)))
                + f(_shifted(base, dn, (j, -step)))
            ) / (4.0 * step * step)
    return h
