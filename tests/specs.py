"""Generated inputs for the tests: random connection data over named Lie
algebras, whose reduced models pass validation by construction, and a
catalog entry whose Lagrangian has a fibre Hessian that varies.

    from specs import quartic_entry, random_spec
"""

import numpy as np

from affgebroid.atiyah import SO3_CONSTANTS, AtiyahSpec, _constants_tensor
from affgebroid.catalog import twisted_line
from affgebroid.lagrangian import LagrangianSystem


def quartic_entry():
    """The twisted line with a quartic L: its W varies with y, so the field
    solves with the LU and the induced Hamiltonian runs the Newton."""
    ent = twisted_line()
    src = "0.5*y1^2 + 0.5*y2^2 + 0.25*y1^4 + 0.1*y2^4 + x*y1"
    ent.name, ent.lag = "twisted_line-quartic", LagrangianSystem(ent.model, src)
    return ent


HEISENBERG_CONSTANTS = {(1, 2): (0.0, 0.0, 1.0)}

SL2_CONSTANTS = {(1, 2): (0.0, 2.0, 0.0), (1, 3): (0.0, 0.0, -2.0), (2, 3): (1.0, 0.0, 0.0)}


def conjugate_constants(cc, t):
    """Transport of a bracket tensor by a change of basis of the algebra.

    The result is the same algebra written in the frame t maps onto, so the
    Jacobi identity survives up to rounding; antisymmetry is restored exactly
    from the upper triangle.
    """
    cc = np.asarray(cc, float)
    t = np.asarray(t, float)
    tinv = np.linalg.inv(t)
    out = np.einsum("ap,bq,pqr,rc->abc", t, t, cc, tinv)
    r = out.shape[0]
    for a in range(r):
        out[a, a] = 0.0
        for b in range(a + 1, r):
            out[b, a] = -out[a, b]
    return out


_ALGEBRAS = {
    "so3": (3, SO3_CONSTANTS),
    "heisenberg": (3, HEISENBERG_CONSTANTS),
    "sl2": (3, SL2_CONSTANTS),
    "abelian": (2, {}),
}


def random_spec(rng, m=2, algebra="so3", conjugate=True):
    """Random reduction input with affine connection coefficients.

    Degree-one coefficients keep every reduced structure function polynomial
    of degree at most two, so this is a cheap generator of x-dependent models
    that pass validation by construction.  The algebra constants are drawn
    from a named algebra, optionally pushed through a random change of basis.
    """
    if algebra not in _ALGEBRAS:
        raise ValueError("unknown algebra %r, have %s" % (algebra, sorted(_ALGEBRAS)))
    r, consts = _ALGEBRAS[algebra]
    cc = _constants_tensor(consts, r)
    if conjugate:
        while True:
            t = np.eye(r) + 0.4 * rng.uniform(-1.0, 1.0, size=(r, r))
            if abs(np.linalg.det(t)) > 0.2:
                break
        cc = conjugate_constants(cc, t)
    base = ("t",) + tuple("x%d" % (i + 1) for i in range(m))

    def affine():
        coef = rng.uniform(-1.0, 1.0, size=m + 2)
        parts = [repr(float(coef[0]))]
        for name, cv in zip(base, coef[1:]):
            parts.append("%r*%s" % (float(cv), name))
        return " + ".join(parts)

    k0 = [affine() for _ in range(r)]
    k = [[affine() for _ in range(r)] for _ in range(m)]
    return AtiyahSpec(base, r, cc, k0, k)
