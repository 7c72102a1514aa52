"""The canonical involution, the dual isomorphism, and dynamics read off as
a generated submanifold, all on one base-coupled example.

Three facts are demonstrated numerically.  The involution swaps the two jet
slots and squares to the identity.  The map between the two double-bundle
presentations is invertible exactly.  And the points generated from a
Lagrangian pass their own membership test, while the Hamiltonian-side
construction from the induced Hamiltonian lands on the same set.
"""

import numpy as np

from affgebroid.catalog import twisted_line
from affgebroid.legendre import InducedHamiltonian
from affgebroid.model import VStarPoint
from affgebroid.tulczyjew import (
    a_map,
    a_map_inverse,
    s_h_point,
    s_l_generator,
    s_l_residual,
    sigma,
)

entry = twisted_line()
model = entry.model
rng = np.random.default_rng(0)

j = model.chart.sample_jet(rng)
sj = sigma(model, j)
ssj = sigma(model, sj)
print("jet          ", j)
print("involution   ", sj)
print("applied twice", ssj)
print("double-application gap: %.3e" % max(
    np.max(np.abs(ssj.y - j.y)), np.max(np.abs(ssj.z - j.z)), np.max(np.abs(ssj.v - j.v))
))

q = model.chart.sample_phase(rng)
back = a_map_inverse(model, a_map(model, q))
print("dual map round trip gap: %.3e" % max(
    np.max(np.abs(back.p - q.p)), np.max(np.abs(back.z - q.z)), np.max(np.abs(back.w - q.w))
))

ham = InducedHamiltonian(entry.lag)
worst_member = 0.0
worst_cross = 0.0
for _ in range(200):
    p = s_l_generator(entry.lag, model.chart.sample_a(rng))
    worst_member = max(worst_member, s_l_residual(entry.lag, p).max_abs)
    sh = s_h_point(ham, VStarPoint(p.x, p.p))
    worst_cross = max(
        worst_cross, float(np.max(np.abs(sh.z - p.z))), float(np.max(np.abs(sh.w - p.w)))
    )
print("membership residual of generated points: %.3e" % worst_member)
print("gap to the Hamiltonian-side construction: %.3e" % worst_cross)
