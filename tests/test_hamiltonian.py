import numpy as np
import pytest

from affgebroid.catalog import all_entries, oscillator, rigid_body
from affgebroid.flow import integrate_rk45
from affgebroid.hamiltonian import (
    cosymplectic_check_h,
    hamilton_vector_field,
    omega_h,
    poisson_data,
    poisson_hamiltonian_field,
    reeb_section,
)
from affgebroid.model import VStarPoint


def random_points(entry, k, seed=0):
    rng = np.random.default_rng(seed)
    return [entry.model.chart.sample_vstar(rng) for _ in range(k)]


def test_oscillator_omega_by_hand():
    ent = oscillator()
    pt = VStarPoint([0.0, 0.3], [0.8])
    data = omega_h(ent.ham, pt)
    q, p = 0.3, 0.8
    expect = np.array(
        [
            [0.0, -q, -p],
            [q, 0.0, 1.0],
            [p, -1.0, 0.0],
        ]
    )
    assert np.allclose(data.omega, expect, atol=1e-15)
    assert data.eta.tolist() == [1.0, 0.0, 0.0]
    assert data.volume != 0.0


def test_reeb_annihilates_omega():
    for ent in all_entries():
        for pt in random_points(ent, 10, seed=4):
            r1, r2 = cosymplectic_check_h(ent.ham, pt)
            assert r1 < 1e-9, ent.name
            assert r2 < 1e-12, ent.name


def test_reeb_projects_to_hamilton_field():
    for ent in all_entries():
        f = hamilton_vector_field(ent.ham)
        n = ent.model.chart.fibre_dim
        m = ent.model.chart.dim_base
        for pt in random_points(ent, 5, seed=9):
            r = reeb_section(ent.ham, pt)
            dot = f(np.concatenate([pt.x, pt.p]))
            s = ent.model.structure_at(pt.x)
            _, dhdp = ent.ham.grad(pt.x, pt.p)
            assert np.allclose(dot[:m], s.rho0 + dhdp @ s.rho, atol=1e-14)
            assert np.allclose(dot[m:], r[1 + n :], atol=1e-12)


def test_two_routes_agree():
    for ent in all_entries():
        f1 = hamilton_vector_field(ent.ham)
        f2 = poisson_hamiltonian_field(ent.ham)
        rng = np.random.default_rng(12)
        for _ in range(10):
            pt = ent.model.chart.sample_vstar(rng)
            state = np.concatenate([pt.x, pt.p])
            assert np.max(np.abs(f1(state) - f2(state))) < 1e-12, ent.name


def test_poisson_matrix_antisymmetric():
    for ent in all_entries():
        rng = np.random.default_rng(3)
        pt = ent.model.chart.sample_vstar(rng)
        mat = poisson_data(ent.model, pt.x, pt.p)
        assert np.array_equal(mat, -mat.T)


def test_rigid_body_casimir_and_energy_drift():
    ent = rigid_body()
    f = hamilton_vector_field(ent.ham)
    state0 = np.array([0.0, 1.0, 2.0, 3.0])  # (t, p1, p2, p3)
    traj = integrate_rk45(f, state0, 0.0, 10.0, rtol=1e-10, atol=1e-12)
    cas = 0.5 * np.sum(traj.states[:, 1:] ** 2, axis=1)
    h = np.array([ent.ham.value(s[:1], s[1:]) for s in traj.states])
    assert np.max(np.abs(cas - cas[0])) < 1e-8
    assert np.max(np.abs(h - h[0])) < 1e-8


def test_euler_equations_signs():
    # pdot = p x omega with omega_a = p_a / lam_a for the chosen bracket
    ent = rigid_body()
    f = hamilton_vector_field(ent.ham)
    p = np.array([0.5, -0.3, 0.8])
    lams = np.array([1.0, 2.0, 3.0])
    omega = p / lams
    dot = f(np.concatenate([[0.0], p]))
    assert np.allclose(dot[1:], np.cross(p, omega), atol=1e-14)
    assert dot[0] == 0.0  # frozen base for the pure-algebra model


@pytest.mark.parametrize("ent", all_entries(), ids=lambda e: e.name)
def test_legendre_data_is_the_momentum_block_of_the_full_derivatives(ent):
    # the "legendre" kernel of H gives, bit for bit, H, dH/dp and the
    # momentum Hessian that the full second-order derivatives give
    m = ent.model.chart.dim_base
    for v in random_points(ent, 20, seed=12):
        h, dhdp, w = ent.ham.legendre_data(v.x, v.p)
        d = ent.ham.hamiltonian.eval_dual2(np.concatenate([v.x, v.p]))
        assert h == d.val
        assert np.array_equal(dhdp, d.grad[m:])
        assert np.array_equal(w, d.hess[m:, m:])
        assert np.array_equal(ent.ham.fibre_hessian(v.x, v.p), w)
