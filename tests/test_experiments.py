import json
import math

import pytest

from rankmatch import experiments
from rankmatch.core import build_instance, matching_result
from rankmatch.experiments import (ConfigError, DegenerateInstanceError,
                                   ExperimentConfig, check_monotonicity_trial,
                                   run_property_suite, run_ratio_experiment)
from rankmatch.gains import half_exp, simple_exp
from rankmatch.generators import generate_instance
from rankmatch.ranking import SimulationTrace


def test_single_edge_ratio_is_one():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 50, 0))
    assert report.mean_ratio == 1.0
    assert report.std_error == 0.0
    assert all(r == 1.0 for r in report.ratios())


def test_complete_two_ratio_is_one():
    inst = generate_instance("complete", {"n": 2}, 0)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 100, 1))
    assert report.mean_ratio == 1.0


def test_ratios_within_unit_interval_and_mean_consistent():
    inst = generate_instance("weighted_random", {"n": 6, "p": 0.5}, 3)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 200, 2))
    rs = report.ratios()
    assert all(0.0 <= r <= 1.0 for r in rs)
    assert report.mean_ratio == pytest.approx(math.fsum(rs) / len(rs), abs=1e-12)


def test_trials_must_be_positive():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    with pytest.raises(ConfigError):
        ExperimentConfig(inst, half_exp(), 0, 0)


def test_degenerate_opt_reported():
    inst = build_instance([("v1", 1.0)], [("u1", [])])
    with pytest.raises(DegenerateInstanceError):
        run_ratio_experiment(ExperimentConfig(inst, half_exp(), 10, 0))


def test_report_reproducible_modulo_timestamp():
    inst = generate_instance("upper_triangular", {"n": 8}, 0)
    a = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 60, 5))
    b = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 60, 5))
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("timestamp")
    db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_property_suite_passes_at_small_scale():
    report = run_property_suite(0, half_exp(), scale=0.01)
    assert report.passed
    names = [s.name for s in report.suites]
    assert names == ["monotonicity", "arrival-benignity", "dual-accounting",
                     "threshold-structure"]


def test_property_suite_config_validation():
    with pytest.raises(ConfigError):
        run_property_suite(0, half_exp(), scale=0.0)
    for bad in (math.inf, -math.inf, math.nan, -0.5):
        with pytest.raises(ConfigError, match=f"scale must be positive and finite, got {bad}"):
            run_property_suite(0, half_exp(), scale=bad)


def reversed_tiebreak_engine(instance, spec, ranks, collect_offers=True):
    """Deliberately broken engine: exact offer ties go to the LARGER rank."""
    rank_of = ranks.ranks
    unmatched = set(instance.offline_ids)
    pairs = []
    match_time = {v: math.inf for v in instance.offline_ids}
    for u in sorted(instance.online_ids, key=lambda x: (rank_of[x], x)):
        best = None
        for v in instance.neighbors[u]:
            if v not in unmatched:
                continue
            offer = instance.weights[v] * (
                1.0 - spec.share_scalar(rank_of[v], rank_of[u]))
            key = (offer, rank_of[v], v)
            if best is None or key > best:
                best = key
        if best is not None:
            v = best[2]
            unmatched.discard(v)
            pairs.append((u, v))
            match_time[v] = rank_of[u]
    return (matching_result(instance, pairs),
            SimulationTrace(arrivals=(), match_time=match_time))


def test_reversed_tiebreak_violates_monotonicity_on_fixture():
    """Deterministic tie fixture.

    Unit weights with the saturating curve make both offers exactly equal.
    The correct rule keeps the raised vertex losing ties, so it stays
    unmatched at the later arrival; the reversed rule starts preferring it
    once its rank climbs past its rival's, matching it early.
    """
    from rankmatch.core import RankAssignment
    from rankmatch.ranking import run_ranking

    inst = build_instance([("v1", 1.0), ("v2", 1.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1", "v2"])])
    base = RankAssignment({"v1": 0.6, "v2": 0.7, "u1": 0.1, "u2": 0.9})

    _, trace = run_ranking(inst, simple_exp(), base, collect_offers=False)
    assert trace.match_time["v2"] == 0.9       # correct engine: v1 first
    raised = base.override({"v1": 0.8})
    _, trace2 = run_ranking(inst, simple_exp(), raised, collect_offers=False)
    assert trace2.match_time["v1"] >= 0.9      # v1 still loses the tie

    _, bt = reversed_tiebreak_engine(inst, simple_exp(), base)
    assert bt.match_time["v1"] == 0.9          # broken engine: v2 first
    _, bt2 = reversed_tiebreak_engine(inst, simple_exp(), raised)
    assert bt2.match_time["v1"] == 0.1         # raising v1 matched it EARLIER


def test_mutation_caught_by_monotonicity_suite(monkeypatch):
    monkeypatch.setattr(experiments, "run_ranking", reversed_tiebreak_engine)
    report = run_property_suite(0, half_exp(), scale=0.02)
    assert not report.passed
    mono = report.suites[0]
    assert mono.name == "monotonicity"
    assert mono.trials == 200
    assert mono.violations >= 1
    assert "trial=" in mono.first_violation and "seed=" in mono.first_violation
    # the reported trial reproduces in isolation
    trial = int(mono.first_violation.split("trial=")[1].split(":")[0])
    hint = check_monotonicity_trial(0, trial, half_exp())
    assert hint is not None


def test_property_report_serialization():
    report = run_property_suite(1, half_exp(), scale=0.002)
    d = report.to_json_dict()
    assert set(d) == {"seed", "passed", "suites", "timestamp"}
    text = report.to_text()
    assert "monotonicity" in text and "overall" in text
