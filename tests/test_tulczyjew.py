import numpy as np
import pytest

from affgebroid.catalog import all_entries, oscillator, rigid_body, twisted_line
from affgebroid.flow import integrate_rk4
from affgebroid.hamiltonian import hamilton_vector_field
from affgebroid.lagrangian import el_vector_field
from affgebroid.legendre import InducedHamiltonian, leg
from affgebroid.model import AffgebroidModel, APoint, Chart, JetPoint, PhasePoint, VStarPoint
from affgebroid.tulczyjew import (
    a_map,
    a_map_dual,
    a_map_inverse,
    admissibility_residual,
    dl_point,
    lift_el_trajectory,
    lift_hamilton_trajectory,
    s_h_point,
    s_l_generator,
    s_l_residual,
    sigma,
    sigma_l,
    tilde_pairing,
)


def c01_model(coeff=2.0):
    # rank 1 with a single reference-bracket coefficient
    chart = Chart(["x"], 1, base_box=[(-1.0, 1.0)])
    return AffgebroidModel(chart, ["0"], [["0"]], c0=[[repr(coeff)]])


def test_sigma_pinned_values():
    m = c01_model(2.0)
    j = JetPoint([0.0], [1.0], [3.0], [5.0])
    out = sigma(m, j)
    assert (out.y[0], out.z[0], out.v[0]) == (3.0, 1.0, 1.0)
    back = sigma(m, out)
    assert (back.y[0], back.z[0], back.v[0]) == (1.0, 3.0, 5.0)


def test_sigma_l_pinned_value():
    m = c01_model(2.0)
    out = sigma_l(m, JetPoint([0.0], [1.0], [3.0], [5.0]))
    assert (out.y[0], out.z[0], out.v[0]) == (3.0, 1.0, -1.0)


def test_sigma_trivial_when_flat():
    ent = oscillator()
    j = JetPoint([0.1, 0.2], [0.3], [0.4], [0.5])
    out = sigma(ent.model, j)
    assert (out.y[0], out.z[0], out.v[0]) == (0.4, 0.3, 0.5)


def test_sigma_involution_bundle_examples():
    for ent in all_entries():
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = ent.model.chart.sample_jet(rng)
            jj = sigma(ent.model, sigma(ent.model, j))
            gap = max(
                np.max(np.abs(jj.y - j.y)),
                np.max(np.abs(jj.z - j.z)),
                np.max(np.abs(jj.v - j.v)),
            )
            assert gap <= 1e-12, ent.name


def test_dual_map_identity():
    # pairing swap composed with the linear flip matches the printed direct map
    for ent in all_entries():
        rng = np.random.default_rng(6)
        s_at = ent.model.structure_at
        for _ in range(20):
            j = ent.model.chart.sample_jet(rng)
            ph = a_map_dual(ent.model, j)
            s = s_at(j.x)
            direct_p = (
                j.v - j.z @ s.c0 + np.einsum("abg,a,b->g", s.c, j.z, j.y)
            )
            assert np.max(np.abs(ph.p - direct_p)) <= 1e-12
            assert np.array_equal(ph.z, j.y)
            assert np.array_equal(ph.w, j.z)


def test_tilde_pairing_swaps():
    j = JetPoint([0.0], [1.0], [2.0], [3.0])
    ph = tilde_pairing(j)
    assert (ph.p[0], ph.z[0], ph.w[0]) == (3.0, 2.0, 1.0)


def test_a_map_pinned_values():
    flat = AffgebroidModel(Chart(["x"], 1), ["0"], [["0"]])
    out = a_map(flat, PhasePoint([0.0], [2.0], [3.0], [4.0]))
    assert (out.z[0], out.cov_t[0], out.cov_v[0]) == (3.0, 4.0, 2.0)
    m = c01_model(2.0)
    out = a_map(m, PhasePoint([0.0], [2.0], [3.0], [4.0]))
    assert (out.z[0], out.cov_t[0], out.cov_v[0]) == (3.0, 0.0, 2.0)


def test_a_map_round_trip():
    for ent in all_entries():
        rng = np.random.default_rng(7)
        for _ in range(20):
            ph = ent.model.chart.sample_phase(rng)
            lv = a_map(ent.model, ph)
            back = a_map_inverse(ent.model, lv)
            gap = max(
                np.max(np.abs(back.p - ph.p)),
                np.max(np.abs(back.z - ph.z)),
                np.max(np.abs(back.w - ph.w)),
            )
            assert gap <= 1e-12


def test_oscillator_submanifold_by_hand():
    ent = oscillator()
    y = 0.6
    q = 0.25
    ph = PhasePoint([0.0, q], [y], [y], [-q])
    r = s_l_residual(ent.lag, ph)
    assert r.max_abs < 1e-14


def test_residual_z_detects_mismatch():
    ent = oscillator()
    ph = PhasePoint([0.0, 0.25], [0.6], [0.9], [-0.25])
    r = s_l_residual(ent.lag, ph)
    assert np.max(np.abs(r.res_z)) > 0.1


def test_generated_points_sit_on_submanifold():
    for ent in all_entries():
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = ent.model.chart.sample_a(rng)
            ph = s_l_generator(ent.lag, a)
            assert s_l_residual(ent.lag, ph).max_abs < 1e-12, ent.name


def test_residual_sensitivity_per_block():
    ent = twisted_line()
    rng = np.random.default_rng(9)
    a = ent.model.chart.sample_a(rng)
    base = s_l_generator(ent.lag, a)
    eps = 1e-3
    for idx in range(2):
        bumped = PhasePoint(base.x, base.p.copy(), base.z, base.w)
        bumped.p[idx] += eps
        assert np.max(np.abs(s_l_residual(ent.lag, bumped).res_p)) >= eps / 2
        bumped = PhasePoint(base.x, base.p, base.z.copy(), base.w)
        bumped.z[idx] += eps
        assert np.max(np.abs(s_l_residual(ent.lag, bumped).res_z)) >= eps / 2
        bumped = PhasePoint(base.x, base.p, base.z, base.w.copy())
        bumped.w[idx] += eps
        assert np.max(np.abs(s_l_residual(ent.lag, bumped).res_v)) >= eps / 2


def test_s_h_point_flat_example():
    ent = oscillator()
    ph = s_h_point(ent.ham, VStarPoint([0.0, 1.0], [0.0]))
    assert ph.z[0] == 0.0
    assert ph.w[0] == -1.0


def test_submanifolds_coincide_for_regular_pairs():
    for maker in (oscillator, rigid_body, twisted_line):
        ent = maker()
        ham = InducedHamiltonian(ent.lag)
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = ent.model.chart.sample_a(rng)
            # Hamiltonian-side point at the Legendre image of a
            ph = s_h_point(ham, leg(ent.lag, a))
            assert s_l_residual(ent.lag, ph).max_abs < 1e-8, ent.name
            # and the Lagrangian-side generator is a Hamiltonian-side point
            gen = s_l_generator(ent.lag, a)
            hh = s_h_point(ham, VStarPoint(gen.x, gen.p))
            gap = max(
                np.max(np.abs(hh.z - gen.z)), np.max(np.abs(hh.w - gen.w))
            )
            assert gap < 1e-8, ent.name


def test_hamilton_trajectory_is_admissible():
    ent = rigid_body()
    f = hamilton_vector_field(ent.ham)
    traj = integrate_rk4(f, [0.0, 1.0, 0.6, -0.4], 0.0, 1.0, 1e-3)
    lifted = lift_hamilton_trajectory(ent.ham, traj)
    res_base, res_mom = admissibility_residual(ent.model, lifted)
    assert res_base < 1e-4
    assert res_mom < 1e-4


def test_el_trajectory_is_admissible():
    ent = oscillator()
    f = el_vector_field(ent.lag)
    traj = integrate_rk4(f, [0.0, 1.0, 0.0], 0.0, 1.0, 1e-3)
    lifted = lift_el_trajectory(ent.lag, traj)
    res_base, res_mom = admissibility_residual(ent.model, lifted)
    assert res_base < 1e-4
    assert res_mom < 1e-4


def test_constant_curve_admissible_when_anchorless():
    ent = rigid_body()
    times = np.linspace(0.0, 1.0, 11)
    row = np.concatenate([[0.3], [0.1, 0.2, 0.3], np.zeros(3), np.zeros(3)])
    # constant momenta, zero velocity and covelocity slots, frozen base
    from affgebroid.flow import Trajectory

    traj = Trajectory(times, np.tile(row, (11, 1)))
    res_base, res_mom = admissibility_residual(ent.model, traj)
    assert res_base == 0.0
    assert res_mom == 0.0


def test_dl_point_components():
    ent = twisted_line()
    a = APoint([0.7], [0.2, -0.4])
    lv = dl_point(ent.lag, a)
    # dL/dx = y1, dL/dy = (y1 + x, y2); anchors are (1) and (x)
    assert lv.cov_t[0] == pytest.approx(0.2)
    assert lv.cov_t[1] == pytest.approx(0.7 * 0.2)
    assert lv.cov_v[0] == pytest.approx(0.9)
    assert lv.cov_v[1] == pytest.approx(-0.4)
