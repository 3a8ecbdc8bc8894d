"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) and then asserts.  The randomized sweeps reuse one report per
fixture; together the suite takes about 20 seconds on 2 cores, the
largest part being the station sweep.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fleetbalance.errors import InsufficientFleetError
from fleetbalance.experiments import SweepConfig, run_sweep
from fleetbalance.fluidsim import equilibrium_state, initial_state, simulate, stability_probe
from fleetbalance.generate import GeneratorConfig, generate_instance
from fleetbalance.mincostflow import solve_mcf
from fleetbalance.network import StationNetwork
from fleetbalance.rebalance import driver_flow_problem, solve_rebalancing

from oracles import brute_force_mcf, check_feasibility_bruteforce, residual_negative_cycle
from test_mincostflow import random_problem

SIZES = (10, 25, 50, 100, 200)


@pytest.fixture(scope="module")
def station_report():
    config = SweepConfig(sizes=SIZES, trials_per_size=20, base_seed=5, workers=4)
    return run_sweep(config)


@pytest.fixture(scope="module")
def f_report():
    config = SweepConfig(
        sizes=(100,),
        trials_per_size=20,
        base_seed=0,
        f_values=(1.0, 2.0, 3.0, 4.0),
        generator=GeneratorConfig(lambda_max=0.1),
        workers=4,
    )
    return run_sweep(config)


@pytest.fixture(scope="module")
def probe_reports():
    out = []
    for seed in range(10):
        net = generate_instance(10, 1000 + seed)
        sol = solve_rebalancing(net)
        h = net.min_offdiag_travel_time() / 4
        out.append(stability_probe(net, sol, 0.2, 0.2, 0.1, h=h, seed=seed))
    return out


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_driver_to_vehicle_ratio_bands(station_report, capsys):
    means = [float(station_report.group_values(f"n={n}", "ratio").mean()) for n in SIZES]
    in_band = all(0.22 <= m <= 0.42 for m in means)
    monotone = all(b <= a + 0.05 for a, b in zip(means, means[1:]))
    detail = "mean driver/vehicle ratio " + ", ".join(
        f"n={n}: {m:.4f}" for n, m in zip(SIZES, means)
    )
    verdict(capsys, 1, in_band and monotone, detail)
    assert in_band, means
    assert monotone, means


def test_criterion_2_rebalancing_driver_fraction(station_report, capsys):
    frac_10 = float(station_report.group_values("n=10", "reb_fraction").mean())
    frac_200 = float(station_report.group_values("n=200", "reb_fraction").mean())
    in_band = 0.12 <= frac_200 <= 0.30
    shrinking = frac_200 <= frac_10
    detail = f"mean rebalancing share of driver pool: n=10 {frac_10:.4f}, n=200 {frac_200:.4f}"
    verdict(capsys, 2, in_band and shrinking, detail)
    assert in_band, frac_200
    assert shrinking, (frac_10, frac_200)


def test_criterion_3_taxi_fraction_sweep_bands(f_report, capsys):
    f_values = (1, 2, 3, 4)
    r_means = [float(f_report.group_values(f"f={f}", "r_alpha_beta").mean()) for f in f_values]
    frac_means = [float(f_report.group_values(f"f={f}", "reb_fraction").mean()) for f in f_values]
    decreasing = all(b < a for a, b in zip(r_means, r_means[1:]))
    r1_band = 55.0 <= r_means[0] <= 110.0
    r4_band = 35.0 <= r_means[-1] <= 75.0
    increasing = all(b > a for a, b in zip(frac_means, frac_means[1:]))
    lift = frac_means[-1] >= 1.3 * frac_means[0]
    ok = decreasing and r1_band and r4_band and increasing and lift
    detail = (
        "mean driver pool by taxi fraction "
        + ", ".join(f"f={f}: {r:.2f}" for f, r in zip(f_values, r_means))
        + f"; rebalancing share {frac_means[0]:.4f} -> {frac_means[-1]:.4f}"
    )
    verdict(capsys, 3, ok, detail)
    assert decreasing, r_means
    assert r1_band and r4_band, r_means
    assert increasing, frac_means
    assert lift, frac_means


def test_criterion_4_flow_solver_matches_exhaustive_oracle(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    optimal = 0
    for _ in range(200):
        problem = random_problem(rng)
        sol = solve_mcf(problem)
        oracle = brute_force_mcf(problem)
        assert sol.status == oracle.status
        if sol.status == "optimal":
            optimal += 1
            tol = 1e-3 * (1.0 + abs(oracle.objective))
            diff = abs(sol.objective - oracle.objective)
            assert diff <= tol, (diff, tol)
            assert not residual_negative_cycle(problem, sol)
            worst = max(worst, diff)
    detail = (
        f"200 random flow problems, {optimal} solvable: worst objective gap "
        f"{worst:.2e}, no negative residual cycles"
    )
    verdict(capsys, 4, True, detail)


def test_criterion_5_feasibility_checks_agree(capsys):
    rng = np.random.default_rng(11)
    checked = 0
    infeasible = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        net = generate_instance(n, int(rng.integers(0, 2**32)))
        f = rng.uniform(0.0, 1.5, (n, n))
        np.fill_diagonal(f, 0.0)
        net_f = replace(net, taxi_fraction=f)
        flow_ok = solve_mcf(driver_flow_problem(net_f)).status == "optimal"
        cut = check_feasibility_bruteforce(net_f)
        assert flow_ok == cut.feasible, (n, net.meta)
        infeasible += not cut.feasible
        # with every leg at full taxi fraction the program is always feasible
        assert solve_mcf(driver_flow_problem(net)).status == "optimal"
        assert check_feasibility_bruteforce(net).feasible
        checked += 1
    detail = (
        f"{checked} random networks: flow check and subset check agree on all "
        f"({infeasible} infeasible); full taxi fraction always feasible"
    )
    verdict(capsys, 5, True, detail)


def test_criterion_6_constraint_residuals(station_report, f_report, capsys):
    rows = station_report.rows + f_report.rows
    worst_alpha = max(r.alpha_residual for r in rows)
    worst_beta = max(r.beta_residual for r in rows)
    worst_cap = max(r.beta_cap_excess for r in rows)
    ok = worst_alpha <= 1e-7 and worst_beta <= 1e-7 and worst_cap <= 1e-9
    detail = (
        f"{len(rows)} solved trials: max balance residuals alpha {worst_alpha:.2e}, "
        f"beta {worst_beta:.2e}; max capacity excess {worst_cap:.2e}"
    )
    verdict(capsys, 6, ok, detail)
    assert worst_alpha <= 1e-7
    assert worst_beta <= 1e-7
    assert worst_cap <= 1e-9


def _conservation_runs():
    """(label, drifts at h and h/2, bounds, noise floor) for both scenarios."""
    runs = []

    balanced = StationNetwork(
        n=2,
        arrival_rate=[1.0, 1.0],
        service_rate=[2.0, 2.0],
        dest_prob=[[0.0, 1.0], [1.0, 0.0]],
        travel_time=[[0.0, 1.0], [1.0, 0.0]],
        taxi_fraction=[[0.0, 1.0], [1.0, 0.0]],
    )
    zero = np.zeros((2, 2))
    rate_sum = float(balanced.arrival_rate.sum())
    for h in (0.1, 0.05):
        init = initial_state(balanced, [0.0, 0.0], [2.0, 2.0], [0.0, 0.0], h=h)
        trace = simulate(balanced, zero, zero, init, 10 * balanced.max_travel_time())
        drift = max(
            float(np.max(np.abs(trace.vehicles_total - trace.vehicles_total[0]))),
            float(np.max(np.abs(trace.drivers_total - trace.drivers_total[0]))),
        )
        mass = trace.vehicles_total[0] + trace.drivers_total[0]
        runs.append(("balanced pair", h, drift, 10 * h * rate_sum, mass))

    net = generate_instance(10, 2)
    sol = solve_rebalancing(net)
    a = sol.assignment
    idle_v, idle_r = 0.2 * a.min_vehicles, 0.2 * a.min_drivers
    rate_sum = float(net.arrival_rate.sum() + a.vehicle_rates.sum() + a.driver_rates.sum())
    h0 = net.min_offdiag_travel_time() / 4
    for h in (h0, h0 / 2):
        init = equilibrium_state(
            net,
            a.vehicle_rates,
            a.driver_rates,
            np.full(10, 0.05 * idle_v / 10),
            np.full(10, idle_v / 10),
            np.full(10, idle_r / 10),
            h=h,
        )
        trace = simulate(net, a.vehicle_rates, a.driver_rates, init, 10 * net.max_travel_time())
        drift = max(
            float(np.max(np.abs(trace.vehicles_total - trace.vehicles_total[0]))),
            float(np.max(np.abs(trace.drivers_total - trace.drivers_total[0]))),
        )
        mass = trace.vehicles_total[0] + trace.drivers_total[0]
        runs.append(("solved n=10", h, drift, 10 * h * rate_sum, mass))
    return runs


def test_criterion_7_mass_conservation(capsys):
    runs = _conservation_runs()
    parts = []
    ok = True
    for (label_h, h, drift_h, bound_h, mass), (_, h2, drift_h2, bound_h2, _) in zip(
        runs[0::2], runs[1::2]
    ):
        assert drift_h <= bound_h, (label_h, drift_h, bound_h)
        assert drift_h2 <= bound_h2, (label_h, drift_h2, bound_h2)
        # the buffer scheme conserves mass to rounding, so the drift usually
        # sits at the float noise floor; the halving law only binds above it
        floor = 4096 * np.finfo(float).eps * (mass + 1.0)
        at_floor = drift_h <= floor and drift_h2 <= floor
        halves = at_floor or (0.375 * drift_h <= drift_h2 <= 0.625 * drift_h)
        ok = ok and halves
        parts.append(
            f"{label_h}: drift {drift_h:.1e} (bound {bound_h:.1e})"
            + (", at float noise floor" if at_floor else f", halved to {drift_h2:.1e}")
        )
        assert halves, (label_h, drift_h, drift_h2, floor)
    verdict(capsys, 7, ok, "; ".join(parts))


def test_criterion_8_stability_probe(probe_reports, capsys):
    passed = sum(r.passed for r in probe_reports)
    all_passed = passed == len(probe_reports)

    net = generate_instance(10, 1000)
    sol = solve_rebalancing(net)
    t0 = time.perf_counter()
    with pytest.raises(InsufficientFleetError):
        stability_probe(net, sol, 0.0, 0.2, 0.1, h=net.min_offdiag_travel_time() / 4)
    rejected_fast = (time.perf_counter() - t0) < 0.25

    detail = (
        f"{passed}/{len(probe_reports)} perturbed equilibria settled "
        f"(queues cleared, idle stock positive, totals conserved); fleet at the "
        f"in-transit minimum rejected without simulating"
    )
    verdict(capsys, 8, all_passed and rejected_fast, detail)
    for report in probe_reports:
        assert report.passed, report
    assert rejected_fast


def test_criterion_9_customer_drain_deadline(probe_reports, capsys):
    margins = []
    for report in probe_reports:
        assert report.drain_time is not None
        deadline = report.drain_bound + 5 * report.trace.h
        margins.append(deadline - report.drain_time)
        assert report.drain_time <= deadline, (report.drain_time, deadline)
    detail = (
        f"all {len(probe_reports)} runs drained queues by the slowest-station "
        f"deadline; smallest margin {min(margins):.3f} time units"
    )
    verdict(capsys, 9, True, detail)
