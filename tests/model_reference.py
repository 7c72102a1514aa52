"""Reads of a model and of its fields that the package does not need, kept
for the tests as references independent of the compiled kernels.

c_value reads one bracket coefficient from its own field; embed lays
structure values or gradients at a point out over the indices 0..n, slot 0
being the reference direction e_0, and full_arrays does so for the values;
validate_reference is the einsum route of validate_structure, with its
scalar draws; fd_grad and fd_hess are central finite differences of a
field, the independent check on its symbolic derivatives.
"""

import numpy as np

from affgebroid.model import ValidationReport


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


# samples per einsum block: the Jacobi tensor of a block holds
# _BLOCK * (n+1)^4 floats, so memory stays flat in the sample count
_BLOCK = 32


def _embed_block(s):
    # embed over a leading block axis k
    k, n = s.c0.shape[:2]
    rho = np.concatenate([s.rho0[:, None], s.rho], axis=1)
    c = np.zeros((k, n + 1, n + 1, n + 1) + s.c0.shape[3:])
    c[:, 0, 1:, 1:] = s.c0
    c[:, 1:, 0, 1:] = -s.c0
    c[:, 1:, 1:, 1:] = s.c
    return rho, c


def einsum_residuals(model, points, terms=False):
    """Per point, the anchor and Jacobi residuals as the einsum route
    computes them, max over every index tuple: the flat values and
    gradients of the structure read once per point, the values of a block
    of _BLOCK points before its gradients, and split once per block.  With
    terms=True, per point the largest sum of the absolute values of the
    terms of one residual instead, the scale of its rounding error."""
    anchor, jacobi = [], []
    ops = np.abs if terms else (lambda a: a)
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        values = np.array([model.structure_values(x) for x in block])
        grads = np.array([model.structure_grad_values(x) for x in block])
        rho, cf = map(ops, _embed_block(model._split(values)))
        rg, cg = map(ops, _embed_block(model._split(grads, (model.chart.dim_base,))))
        sign = 1.0 if terms else -1.0
        res = (
            np.einsum("kIi,kJji->kIJj", rho, rg)
            + sign * np.einsum("kJi,kIji->kIJj", rho, rg)
            + sign * np.einsum("kIJK,kKj->kIJj", cf, rho)
        )
        anchor.append(np.abs(res).reshape(len(block), -1).max(axis=1))
        lie = np.einsum("kIi,kJKLi->kIJKL", rho, cg)
        alg = np.einsum("kIML,kJKM->kIJKL", cf, cf)
        res = np.zeros_like(lie)
        for cyc in ("kIJKL->kIJKL", "kJKIL->kIJKL", "kKIJL->kIJKL"):
            res += np.einsum(cyc, lie)
            res += np.einsum(cyc, alg)
        jacobi.append(np.abs(res).reshape(len(block), -1).max(axis=1))
    return np.concatenate(anchor), np.concatenate(jacobi)


def validate_reference(model, sample_points=None, tol=1e-8, samples=50, seed=0):
    """validate_structure by the einsum route, its points drawn one
    coordinate at a time."""
    if sample_points is None:
        rng = np.random.default_rng(seed)
        box = model.chart.base_box
        sample_points = [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(samples)]
    points = [np.asarray(x, dtype=float) for x in sample_points]
    if not points:
        raise ValueError("structure validation needs at least one sample point")
    anchor, jacobi = einsum_residuals(model, points)
    # argmax lands on the first NaN, and np.max propagates it
    ia, ij = int(np.argmax(anchor)), int(np.argmax(jacobi))
    return ValidationReport(
        n_points=len(points),
        tol=tol,
        max_anchor=float(np.max(anchor)),
        max_jacobi=float(np.max(jacobi)),
        worst_anchor_point=points[ia],
        worst_jacobi_point=points[ij],
        per_point=list(zip(anchor.tolist(), jacobi.tolist())),
    )


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
