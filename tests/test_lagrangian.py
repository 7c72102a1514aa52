import math

import numpy as np
import pytest

from affgebroid.catalog import all_entries, oscillator, rigid_body
from affgebroid.errors import SingularLagrangian
from affgebroid.flow import integrate_rk4, time_derivative
from affgebroid.hamiltonian import HamiltonianSystem
from affgebroid.lagrangian import (
    LagrangianSystem,
    cartan_data,
    cosymplectic_check_L,
    el_section,
    el_vector_field,
    energy,
    momentum_equation_rhs,
    regularity,
)
from affgebroid.model import APoint


def random_points(entry, k, seed=0):
    rng = np.random.default_rng(seed)
    return [entry.model.chart.sample_a(rng) for _ in range(k)]


def test_oscillator_el_flow_matches_cosine():
    ent = oscillator()
    f = el_vector_field(ent.lag)
    traj = integrate_rk4(f, [0.0, 1.0, 0.0], 0.0, 1.0, 1e-3)  # (t, q, y1)
    assert abs(traj.final[1] - math.cos(1.0)) < 1e-9
    assert abs(traj.final[2] + math.sin(1.0)) < 1e-9
    assert abs(traj.final[0] - 1.0) < 1e-12  # the clock advances through the anchor


def test_el_section_components():
    ent = oscillator()
    pt = APoint([0.0, 0.7], [0.3])
    r = el_section(ent.lag, pt)
    assert r[0] == 1.0
    assert r[1] == pytest.approx(0.3)
    assert r[2] == pytest.approx(-0.7)  # xi = -q for the oscillator


def test_el_field_consistent_with_section():
    for ent in all_entries():
        f = el_vector_field(ent.lag)
        for pt in random_points(ent, 5, seed=3):
            state = np.concatenate([pt.x, pt.y])
            dot = f(state)
            r = el_section(ent.lag, pt)
            s = ent.model.structure_at(pt.x)
            vel = s.rho0 + pt.y @ s.rho
            m = ent.model.chart.dim_base
            assert np.allclose(dot[:m], vel, atol=1e-14)
            assert np.allclose(dot[m:], r[1 + ent.model.chart.fibre_dim :], atol=1e-12)


def test_cosymplectic_identities():
    for ent in all_entries():
        for pt in random_points(ent, 10, seed=1):
            r1, r2 = cosymplectic_check_L(ent.lag, pt)
            assert r1 < 1e-9, ent.name
            assert r2 < 1e-12, ent.name


def test_cartan_form_xi0_independent():
    rng = np.random.default_rng(7)
    for ent in all_entries():
        n = ent.model.chart.fibre_dim
        for pt in random_points(ent, 5, seed=11):
            base = cartan_data(ent.lag, pt).omega
            alt = cartan_data(ent.lag, pt, xi0=rng.normal(size=n)).omega
            dyn = cartan_data(
                ent.lag, pt, xi0=el_section(ent.lag, pt)[1 + n :]
            ).omega
            assert np.max(np.abs(base - alt)) < 1e-12
            assert np.max(np.abs(base - dyn)) < 1e-12


def test_cartan_one_form_coefficients():
    ent = oscillator()
    pt = APoint([0.0, 0.5], [0.25])
    data = cartan_data(ent.lag, pt)
    # L - y dL/dy = (y^2 - q^2)/2 - y^2 and dL/dy = y
    assert data.theta0 == pytest.approx(-0.5 * 0.25 ** 2 - 0.5 * 0.25)
    assert data.theta[0] == pytest.approx(0.25)
    assert np.array_equal(data.omega, -data.omega.T)


def test_regularity_and_singular_error():
    ent = oscillator()
    pt = APoint([0.0, 0.1], [0.2])
    ok, cond = regularity(ent.lag.legendre_data(pt.x, pt.y)[2])
    assert ok and cond == pytest.approx(1.0)
    bad = LagrangianSystem(ent.model, "y1 + q")
    ok, cond = regularity(bad.legendre_data(pt.x, pt.y)[2])
    assert not ok and math.isinf(cond)
    with pytest.raises(SingularLagrangian):
        el_section(bad, pt)


def test_el_field_unchanged_by_scaling_L():
    # the regularity rule is scale-invariant: 1e-5 L has cond W = 3 and the
    # same Euler-Lagrange field as L
    ent = rigid_body()
    scaled = LagrangianSystem(ent.model, "0.5e-5*y1^2 + 1e-5*y2^2 + 1.5e-5*y3^2")
    f, g = el_vector_field(ent.lag), el_vector_field(scaled)
    for pt in random_points(ent, 10, seed=3):
        ok, cond = regularity(scaled.legendre_data(pt.x, pt.y)[2])
        assert ok and cond == pytest.approx(3.0)
        state = np.concatenate([pt.x, pt.y])
        assert np.allclose(g(state), f(state), rtol=1e-12, atol=1e-12)


def test_regularity_stable_under_base_shift():
    # adding a function of the base alone must leave the fibre Hessian
    # bit-for-bit unchanged
    ent = rigid_body()
    shifted = LagrangianSystem(
        ent.model, ent.lag.lagrangian.source + " + sin(t) - 3*t^2"
    )
    pt = APoint([0.4], [0.3, -0.2, 0.5])
    w1 = cartan_data(ent.lag, pt).hessian
    w2 = cartan_data(shifted, pt).hessian
    assert np.array_equal(w1, w2)


def test_momentum_equation_along_trajectory():
    # d/dt of the fibre derivative of L must match the structure-coupling
    # right side; checked with finite differences on a stored trajectory
    ent = rigid_body()
    f = el_vector_field(ent.lag)
    traj = integrate_rk4(f, [0.0, 0.9, 0.4, -0.3], 0.0, 2.0, 1e-3)
    m = ent.model.chart.dim_base
    momenta = []
    rhs = []
    for state in traj.states:
        x, y = state[:m], state[m:]
        momenta.append(ent.lag.derivs(x, y)[2])
        rhs.append(momentum_equation_rhs(ent.lag, x, y))
    momenta = np.array(momenta)
    rhs = np.array(rhs)
    dm = time_derivative(traj.times, momenta)
    assert np.max(np.abs(dm - rhs)) < 5e-6


def test_energy_conserved_when_clock_invariant():
    ent = oscillator()
    f = el_vector_field(ent.lag)
    traj = integrate_rk4(f, [0.0, 1.0, 0.0], 0.0, 5.0, 1e-3)
    vals = [
        energy(ent.lag, APoint(s[:2], s[2:])) for s in traj.states[:: len(traj) // 20]
    ]
    assert max(vals) - min(vals) < 1e-10


def test_energy_functions_enter_as_source_strings():
    ent = rigid_body()
    with pytest.raises(TypeError, match="source string"):
        LagrangianSystem(ent.model, ent.lag.lagrangian)
    with pytest.raises(TypeError, match="source string"):
        HamiltonianSystem(ent.model, ent.ham.hamiltonian)
