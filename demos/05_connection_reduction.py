"""From a principal connection on a trivial bundle to a ready-to-integrate
model, with the printed form of the reduced equations checked against the
generic engine.

The input is small: structure constants of the gauge algebra and the
connection components K0 (time leg) and K (spatial legs) as functions on the
base.  Reduction produces structure functions in which the curvature and the
twisted transport of the connection appear explicitly; nothing else about
the bundle survives, which is the point.
"""

import numpy as np

from affgebroid.atiyah import (
    curvature,
    hp_equations_check,
    lp_equations_check,
    magnetic_spec,
    reduce,
    so3_spec,
)
from affgebroid.hamiltonian import HamiltonianSystem
from affgebroid.lagrangian import LagrangianSystem
from affgebroid.model import validate_structure

for spec in (magnetic_spec(), so3_spec()):
    model = reduce(spec)
    x = np.array([0.8, 0.6])
    cur = curvature(spec, x)
    print("algebra dimension %d, spatial dimension %d" % (spec.algebra_dim, spec.spatial_dim))
    print("  curvature B_01 at (0.8, 0.6):", cur.b0i[0])
    print("  reduced bracket row C_01^*:", [f.source for f in model.c0[0]])
    print(" ", validate_structure(model, samples=50, seed=1).summary())

    # the textbook display of the reduced equations against the raw engine
    rng = np.random.default_rng(2)
    lag = LagrangianSystem(model, " + ".join("0.5*%s^2" % nm for nm in model.chart.fibre_names))
    ham = HamiltonianSystem(model, " + ".join("0.5*%s^2" % nm for nm in model.chart.dual_names))
    lp = max(lp_equations_check(spec, lag, spec.chart.sample_a(rng)).max_abs for _ in range(50))
    hp = max(hp_equations_check(spec, ham, spec.chart.sample_vstar(rng)).max_abs for _ in range(50))
    print("  assembly gap, Lagrangian side %.3e, Hamiltonian side %.3e" % (lp, hp))
    print()
