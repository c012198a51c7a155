"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Each test prints a single [acceptance] line with the measured values; run
with `pytest tests/test_acceptance.py -v -s` to see them as they pass.
The full suite takes a few minutes; the pair-gain sweeps dominate.
"""

import json
import math
import time

import numpy as np

from rankmatch.analysis import pair_gain
from rankmatch.bounds import improved_bound, solve_curve_equals_two_t, stationary_tau
from rankmatch.cli import main as cli_main
from rankmatch.core import sample_ranks
from rankmatch.experiments import (ExperimentConfig, check_arrival_trial,
                                   check_monotonicity_trial,
                                   check_structure_probe, run_ratio_experiment)
from rankmatch.gains import LN2, adversarial_baseline, half_exp, simple_exp
from rankmatch.generators import generate_instance, random_instance
from rankmatch.offline import brute_force_opt, solve_opt

SIMPLE_CONSTANT = 1.25 - math.exp(-0.5)     # 0.643469...
IMPROVED_CONSTANT = 1.0 - LN2 / 2.0         # 0.653426...


def report(num, desc, detail):
    print(f"[acceptance] criterion {num} ({desc}): PASS {detail}")


def _cli_minimize(capsys, spec, which):
    t0 = time.perf_counter()
    code = cli_main(["bounds", "minimize", "--spec", spec, "--which", which])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["value"], elapsed


def test_criterion_1_bound_constants(capsys):
    v_simple, t_simple = _cli_minimize(capsys, "simple-exp", "simple")
    v_improved, t_improved = _cli_minimize(capsys, "half-exp", "improved")
    assert abs(v_simple - 0.643469) <= 1e-4
    assert abs(v_improved - 0.653426) <= 1e-4
    assert t_simple < 30.0 and t_improved < 30.0
    report(1, "bound constants",
           f"simple={v_simple:.6f} ({t_simple:.1f}s) "
           f"improved={v_improved:.6f} ({t_improved:.1f}s)")


def test_criterion_2_interior_constants():
    tau_star = solve_curve_equals_two_t(half_exp())
    assert abs(tau_star - 0.3574) <= 1e-3
    tau0, value0 = stationary_tau(half_exp(), LN2)
    assert abs(tau0 - 0.564375) <= 1e-3
    check = improved_bound(half_exp(), tau0, LN2)
    assert abs(check - 0.6557) <= 5e-4
    assert abs(value0 - check) <= 1e-7
    report(2, "interior constants",
           f"tau*={tau_star:.6f} tau0={tau0:.6f} value={check:.6f}")


def _pair_gain_corpus(spec, floor, seed_tag):
    worst = math.inf
    count = 0
    t0 = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng((seed_tag, i))
        inst = random_instance(rng, max_side=6, weighted=True)
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        for draw in range(3):
            base = sample_ranks(inst, (seed_tag, i, draw))
            for u, v in edges:
                est = pair_gain(inst, spec, base, u, v, grid_n=200)
                worst = min(worst, est.estimate)
                count += 1
                assert est.estimate >= floor, \
                    f"estimate {est.estimate} below {floor} on edge ({u},{v})"
    return worst, count, time.perf_counter() - t0


def test_criterion_3_pair_gain_floor_half_exp():
    floor = IMPROVED_CONSTANT - 0.005
    worst, count, elapsed = _pair_gain_corpus(half_exp(), floor, 9001)
    assert elapsed < 600.0
    report(3, "pair gain floor, half-exp",
           f"min={worst:.5f} >= {floor:.5f} over {count} estimates ({elapsed:.0f}s)")


def test_criterion_3_pair_gain_floor_simple_exp():
    floor = SIMPLE_CONSTANT - 0.005
    worst, count, elapsed = _pair_gain_corpus(simple_exp(), floor, 9002)
    assert elapsed < 600.0
    report(3, "pair gain floor, simple-exp",
           f"min={worst:.5f} >= {floor:.5f} over {count} estimates ({elapsed:.0f}s)")


def test_criterion_4_competitive_ratio_upper_triangular():
    inst = generate_instance("upper_triangular", {"n": 100}, 0)
    rep = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 10_000, 42))
    floor = IMPROVED_CONSTANT - 3.0 * rep.std_error
    assert rep.mean_ratio >= floor
    report(4, "competitive ratio UT(100), half-exp",
           f"mean={rep.mean_ratio:.5f} se={rep.std_error:.5f} floor={floor:.5f}")


def test_criterion_5_dual_accounting_exact():
    from rankmatch.experiments import check_accounting_trial
    violations = 0
    for t in range(100_000):
        if check_accounting_trial(0, t, half_exp()) is not None:
            violations += 1
    assert violations == 0
    report(5, "dual accounting to 1e-12", "0 violations in 100000 trials")


def test_criterion_6_structural_properties():
    suites = {"monotonicity": (check_monotonicity_trial, 10_000),
              "benignity": (check_arrival_trial, 10_000),
              "structure": (check_structure_probe, 1_000)}
    failed = [name for name, (check, trials) in suites.items()
              if any(check(0, t, half_exp()) is not None for t in range(trials))]
    assert not failed, f"violations in: {failed}"
    report(6, "structural properties",
           " ".join(f"{name}:{trials}" for name, (_, trials) in suites.items())
           + " - 0 violations")


def test_criterion_7_oracle_equivalence():
    mismatches = 0
    for i in range(1000):
        rng = np.random.default_rng((7000, i))
        inst = random_instance(rng, max_side=8, weighted=True, min_edges=0)
        if solve_opt(inst).value != brute_force_opt(inst).value:
            mismatches += 1
    assert mismatches == 0
    report(7, "oracle equivalence", "0 discrepancies in 1000 instances")


def test_criterion_8_adversarial_baseline_sanity():
    inst = generate_instance("upper_triangular", {"n": 100}, 0)
    rep = run_ratio_experiment(
        ExperimentConfig(inst, adversarial_baseline(), 3_000, 7))
    baseline = 1.0 - 1.0 / math.e
    assert rep.mean_ratio > baseline
    report(8, "static-price baseline on UT(100) beats 1-1/e",
           f"mean={rep.mean_ratio:.5f} se={rep.std_error:.5f} > {baseline:.5f}")
