"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line with its measured residual.  Tolerances here are contractual;
loosening one is a release decision, not a test fix."""

import math
import time
from pathlib import Path

import numpy as np

from affgebroid import catalog
from affgebroid.atiyah import (
    flat_spec,
    hp_equations_check,
    lp_equations_check,
    magnetic_spec,
    reduce,
    so3_spec,
)
from affgebroid.cli import main as cli_main
from affgebroid.flow import integrate_rk4
from affgebroid.hamiltonian import (
    cosymplectic_check_h,
    hamilton_vector_field,
    poisson_hamiltonian_field,
)
from affgebroid.lagrangian import cosymplectic_check_L, el_vector_field
from affgebroid.legendre import (
    InducedHamiltonian,
    NewtonParams,
    flow_commutation_check,
    leg,
    leg_inverse,
)
from affgebroid.model import APoint, VStarPoint, validate_structure
from affgebroid.tulczyjew import s_h_point, s_l_generator, s_l_residual, sigma
from specs import random_spec

BROKEN_JACOBI = str(Path(__file__).resolve().parent / "fixtures" / "broken_jacobi.json")

TIGHT = NewtonParams(tol=1e-12, max_iter=50)


def line(num, text, value, tol):
    ok = value < tol
    print(
        "[acceptance %02d] %s: max %.3e (tol %g) -> %s"
        % (num, text, value, tol, "PASS" if ok else "FAIL")
    )
    return ok


def test_criterion_01_oscillator_against_cosine():
    start = time.perf_counter()
    entry = catalog.oscillator()
    el = integrate_rk4(
        el_vector_field(entry.lag), np.array([0.0, 1.0, 0.0]), 0.0, 1.0, 1e-3
    )
    ha = integrate_rk4(
        hamilton_vector_field(entry.ham), np.array([0.0, 1.0, 0.0]), 0.0, 1.0, 1e-3
    )
    elapsed = time.perf_counter() - start
    err = max(
        abs(el.states[-1][1] - math.cos(1.0)),
        abs(el.states[-1][2] + math.sin(1.0)),
        abs(ha.states[-1][1] - math.cos(1.0)),
        abs(ha.states[-1][2] + math.sin(1.0)),
    )
    ok = line(1, "oscillator matches cosine at t=1", err, 1e-6)
    print("[acceptance 01] wall time %.3fs (limit 1s)" % elapsed)
    assert ok and elapsed < 1.0


def test_criterion_02_rigid_body_conservation():
    entry = catalog.rigid_body()
    traj = integrate_rk4(
        hamilton_vector_field(entry.ham),
        np.array([0.0, 1.0, 2.0, 3.0]),
        0.0,
        10.0,
        1e-3,
    )
    momenta = traj.states[:, 1:]
    casimir = 0.5 * np.sum(momenta**2, axis=1)
    energy = np.array([entry.ham.value(s[:1], s[1:]) for s in traj.states])
    drift = max(
        float(np.max(np.abs(casimir - casimir[0]))),
        float(np.max(np.abs(energy - energy[0]))),
    )
    assert line(2, "rigid body Casimir and energy drift over [0, 10]", drift, 1e-6)


def test_criterion_03_legendre_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for entry in catalog.all_entries():
        for _ in range(100):
            a = entry.model.chart.sample_a(rng)
            back = leg_inverse(entry.lag, leg(entry.lag, a), params=TIGHT)
            worst = max(worst, float(np.max(np.abs(back.y - a.y))))
    assert line(3, "fibre-wise duality round trip, 100 points per example", worst, 1e-10)


def test_criterion_04_flow_commutation():
    gaps = []
    osc = catalog.oscillator()
    gaps.append(
        flow_commutation_check(
            InducedHamiltonian(osc.lag, params=TIGHT), APoint([0.0, 1.0], [0.0]), 1.0, 1e-3
        )
    )
    rb = catalog.rigid_body()
    gaps.append(
        flow_commutation_check(
            InducedHamiltonian(rb.lag, params=TIGHT), APoint([0.0], [1.0, 1.0, 1.0]), 1.0, 1e-3
        )
    )
    assert line(4, "duality intertwines the two flows on [0, 1]", max(gaps), 1e-5)


def test_criterion_05_involution_on_random_structures():
    rng = np.random.default_rng(17)
    worst = 0.0
    jets = 0
    for algebra in ("so3", "heisenberg", "sl2", "abelian"):
        for m in (1, 2):
            spec = random_spec(rng, m=m, algebra=algebra)
            model = reduce(spec)
            report = validate_structure(model, samples=25, seed=int(rng.integers(1 << 30)))
            assert report.passed, report.summary()
            for _ in range(125):
                j = model.chart.sample_jet(rng)
                back = sigma(model, sigma(model, j))
                worst = max(
                    worst,
                    float(np.max(np.abs(back.x - j.x))),
                    float(np.max(np.abs(back.y - j.y))),
                    float(np.max(np.abs(back.z - j.z))),
                    float(np.max(np.abs(back.v - j.v))),
                )
                jets += 1
    assert jets == 1000
    assert line(5, "double involution is the identity at 1000 jets", worst, 1e-12)


def test_criterion_06_submanifolds_coincide():
    rng = np.random.default_rng(23)
    gen_worst = 0.0
    cross_worst = 0.0
    for entry in catalog.all_entries():
        ham = InducedHamiltonian(entry.lag, params=TIGHT)
        chart = entry.model.chart
        for _ in range(100):
            p = s_l_generator(entry.lag, chart.sample_a(rng))
            gen_worst = max(gen_worst, s_l_residual(entry.lag, p, params=TIGHT).max_abs)
            sh = s_h_point(ham, VStarPoint(p.x, p.p))
            cross_worst = max(
                cross_worst,
                float(np.max(np.abs(sh.z - p.z))),
                float(np.max(np.abs(sh.w - p.w))),
            )
            q = chart.sample_vstar(rng)
            ph = s_h_point(ham, q)
            cross_worst = max(
                cross_worst, s_l_residual(entry.lag, ph, params=TIGHT).max_abs
            )
    ok_gen = line(6, "generated points satisfy their own membership test", gen_worst, 1e-12)
    ok_cross = line(6, "Lagrangian and Hamiltonian submanifolds coincide", cross_worst, 1e-8)
    assert ok_gen and ok_cross


def test_criterion_07_hamilton_route_equality():
    rng = np.random.default_rng(29)
    worst = 0.0
    for entry in catalog.all_entries():
        direct = hamilton_vector_field(entry.ham)
        route = poisson_hamiltonian_field(entry.ham)
        for _ in range(100):
            q = entry.model.chart.sample_vstar(rng)
            state = np.concatenate([q.x, q.p])
            worst = max(worst, float(np.max(np.abs(direct(state) - route(state)))))
    assert line(7, "bracket route equals the direct vector field", worst, 1e-10)


def test_criterion_08_reduced_equations_dual_assembly():
    rng = np.random.default_rng(31)
    cases = [
        (flat_spec(), catalog.flat_bundle()),
        (magnetic_spec(), catalog.magnetic_line()),
        (so3_spec(), catalog.rotating_frame()),
    ]
    worst = 0.0
    for spec, entry in cases:
        for _ in range(100):
            lp = lp_equations_check(entry.spec, entry.lag, spec.chart.sample_a(rng))
            hp = hp_equations_check(entry.spec, entry.ham, spec.chart.sample_vstar(rng))
            worst = max(worst, lp.max_abs, hp.max_abs)
    assert line(8, "printed reduced equations match the generic engine", worst, 1e-10)


def _fd_grad(field, point, h=1e-6):
    g = np.zeros(len(point))
    for i in range(len(point)):
        up = point.copy()
        dn = point.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (field.eval(up) - field.eval(dn)) / (2.0 * h)
    return g


def test_criterion_09_derivatives_against_finite_differences():
    rng = np.random.default_rng(37)
    worst = 0.0
    for entry in catalog.all_entries():
        chart = entry.model.chart
        structure_fields = list(entry.model.rho0)
        for row in entry.model.rho:
            structure_fields.extend(row)
        for row in entry.model.c0:
            structure_fields.extend(row)
        for row in entry.model.c.values():
            structure_fields.extend(row)
        for _ in range(10):
            x = chart.sample_base(rng)
            for f in structure_fields:
                _, g = f.value_grad(x)
                worst = max(worst, float(np.max(np.abs(g - _fd_grad(f, x)))))
            a = chart.sample_a(rng)
            state = np.concatenate([a.x, a.y])
            _, g = entry.lag.lagrangian.value_grad(state)
            worst = max(worst, float(np.max(np.abs(g - _fd_grad(entry.lag.lagrangian, state)))))
            q = chart.sample_vstar(rng)
            state = np.concatenate([q.x, q.p])
            _, g = entry.ham.hamiltonian.value_grad(state)
            worst = max(worst, float(np.max(np.abs(g - _fd_grad(entry.ham.hamiltonian, state)))))
    assert line(9, "exact derivatives against central differences", worst, 1e-6)


def test_criterion_10_structure_validation(capsys):
    worst = 0.0
    for entry in catalog.all_entries():
        report = validate_structure(entry.model, samples=50, seed=5)
        worst = max(worst, report.max_residual)

    rc = cli_main(["validate", BROKEN_JACOBI])
    out = capsys.readouterr().out
    residual = float(out.split("jacobi residual ")[1].split(",")[0])
    ok_shipped = line(10, "anchor and Jacobi residuals of shipped models", worst, 1e-10)
    ok_broken = abs(residual - 1.0) < 1e-12 and rc == 1
    print(
        "[acceptance 10] broken bracket reported with residual %.15g, exit %d -> %s"
        % (residual, rc, "PASS" if ok_broken else "FAIL")
    )
    assert ok_shipped and ok_broken


def test_criterion_11_cosymplectic_reeb_identity():
    rng = np.random.default_rng(41)
    omega_worst = 0.0
    pairing_worst = 0.0
    for entry in catalog.all_entries():
        chart = entry.model.chart
        for _ in range(100):
            contr, pairing = cosymplectic_check_L(entry.lag, chart.sample_a(rng))
            omega_worst = max(omega_worst, contr)
            pairing_worst = max(pairing_worst, pairing)
            contr, pairing = cosymplectic_check_h(entry.ham, chart.sample_vstar(rng))
            omega_worst = max(omega_worst, contr)
            pairing_worst = max(pairing_worst, pairing)
    ok_omega = line(11, "dynamics section annihilates the 2-form", omega_worst, 1e-9)
    ok_pairing = line(11, "reference pairing on the section is one", pairing_worst, 1e-12)
    assert ok_omega and ok_pairing
