import dataclasses
import json
import math

import numpy as np
import pytest

from rankmatch import experiments
from rankmatch.core import build_instance, matching_result, sample_ranks
from rankmatch.experiments import (ConfigError, DegenerateInstanceError,
                                   ExperimentConfig, LaneCheckError,
                                   check_monotonicity_trial,
                                   run_property_suite, run_ratio_experiment)
from rankmatch.gains import (GainSpec, adversarial_baseline, half_exp, piecewise_table,
                             simple_exp)
from rankmatch.generators import generate_instance, random_instance
from rankmatch.ranking import SimulationTrace, run_lanes, run_ranking

ALL_KINDS = (half_exp(), simple_exp(), adversarial_baseline(),
             piecewise_table((0.0, 0.5, 1.0), (0.3, 0.45, 0.6)))


def test_single_edge_ratio_is_one():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 50, 0))
    assert report.mean_ratio == 1.0
    assert report.std_error == 0.0
    assert all(a == report.opt_value for a in report.alg_values)


def test_complete_two_ratio_is_one():
    inst = generate_instance("complete", {"n": 2}, 0)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 100, 1))
    assert report.mean_ratio == 1.0


def test_ratios_within_unit_interval_and_mean_consistent():
    inst = generate_instance("weighted_random", {"n": 6, "p": 0.5}, 3)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 200, 2))
    rs = [a / report.opt_value for a in report.alg_values]
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


def scalar_alg_values(instance, spec, trials, seed):
    """The per-trial loop the lanes replace: sample_ranks + run_ranking."""
    return tuple(run_ranking(instance, spec, sample_ranks(instance, (seed, t)),
                             collect_offers=False)[0].total_weight
                 for t in range(trials))


def hexes(values):
    return [float(x).hex() for x in values]


def rectangular(seed):
    """The first weighted random_instance draw from seed with at least three
    online vertices and two more offline ones."""
    rng = np.random.default_rng(seed)
    while True:
        inst = random_instance(rng, max_side=7)
        if 3 <= len(inst.online) <= len(inst.offline) - 2:
            return inst


def lane_instances():
    rng = np.random.default_rng(11)
    # rectangular: 5 offline, 4 online; u3 has no neighbours, v5 weighs 0
    odd = build_instance([("v1", 2.5), ("v2", 1.0), ("v3", 0.75), ("v4", 1.0),
                          ("v5", 0.0)],
                         [("u1", ["v1", "v2", "v5"]), ("u2", ["v2", "v3", "v5"]),
                          ("u3", []), ("u4", ["v4", "v5"])])
    return {"weighted-random": random_instance(rng, weighted=True),
            "unit-random": random_instance(rng, weighted=False),
            "rectangular": rectangular(2),
            "isolated-and-zero-weight": odd}


@pytest.mark.parametrize("name", list(lane_instances()))
@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
def test_alg_values_equal_scalar_loop_bit_for_bit(spec, name):
    inst = lane_instances()[name]
    report = run_ratio_experiment(ExperimentConfig(inst, spec, 150, 9))
    assert hexes(report.alg_values) == hexes(scalar_alg_values(inst, spec, 150, 9))


def spy_run_lanes(monkeypatch):
    """Record every experiments.run_lanes call's arguments."""
    calls = []

    def spy(instance, order, off_ranks, on_offer, off_offer, free):
        calls.append((order, off_ranks, on_offer, off_offer))
        return run_lanes(instance, order, off_ranks, on_offer, off_offer, free)

    monkeypatch.setattr(experiments, "run_lanes", spy)
    return calls


def test_lane_columns_are_sample_ranks_streams(monkeypatch):
    # column t carries sample_ranks(instance, (seed, t)) bit for bit: the
    # offline ranks, the arrival order and both offer parts
    inst = rectangular(4)
    spec = half_exp()
    calls = spy_run_lanes(monkeypatch)
    run_ratio_experiment(ExperimentConfig(inst, spec, 40, 13))
    (order, off_ranks, on_offer, off_offer), = calls
    for t in range(40):
        rank_of = sample_ranks(inst, (13, t)).ranks
        off = [rank_of[v] for v in inst.offline_ids]
        on = [rank_of[u] for u in inst.online_ids]
        assert hexes(off_ranks[:, t]) == hexes(off)
        assert hexes(off_offer[:, t]) == hexes(spec.offer_parts_scalar(y)[0] for y in off)
        assert hexes(on_offer[:, t]) == hexes(spec.offer_parts_scalar(y)[1] for y in on)
        arrivals = sorted(inst.online_ids, key=lambda u: (rank_of[u], u))
        assert order[:, t].tolist() == [inst.online_ids.index(u) for u in arrivals]


def test_trials_span_blocks(monkeypatch):
    # UT(100) blocks hold CELL_BLOCK // 100 = 655 lanes, so 700 trials
    # take two run_lanes calls
    inst = generate_instance("upper_triangular", {"n": 100}, 0)
    calls = spy_run_lanes(monkeypatch)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 700, 3))
    assert [c[0].shape[1] for c in calls] == [655, 45]
    assert hexes(report.alg_values) == hexes(scalar_alg_values(inst, half_exp(), 700, 3))


def drop_last_match_engine(instance, spec, ranks, collect_offers=True):
    """Deliberately broken engine: every run loses its last match."""
    result, trace = run_ranking(instance, spec, ranks, collect_offers=collect_offers)
    return matching_result(instance, result.pairs[:-1]), trace


def test_broken_scalar_engine_fails_the_lane_check(monkeypatch):
    monkeypatch.setattr(experiments, "run_ranking", drop_last_match_engine)
    inst = generate_instance("complete", {"n": 3}, 0)
    with pytest.raises(LaneCheckError, match=r"trial 0 \(seed=5\): u\d took v\d in "
                                             r"run_lanes but None in run_ranking"):
        run_ratio_experiment(ExperimentConfig(inst, half_exp(), 20, 5))


def test_broken_lane_engine_fails_the_lane_check(monkeypatch):
    def last_arrival_unmatched(instance, order, *columns):
        partner = run_lanes(instance, order, *columns)
        partner[order[-1], np.arange(order.shape[1])] = -1
        return partner

    monkeypatch.setattr(experiments, "run_lanes", last_arrival_unmatched)
    inst = generate_instance("complete", {"n": 3}, 0)
    with pytest.raises(LaneCheckError, match="took None in run_lanes but v"):
        run_ratio_experiment(ExperimentConfig(inst, half_exp(), 20, 5))


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


def test_only_the_trial_zero_check_calls_offer_parts_scalar(monkeypatch):
    # the lanes take their offer parts from the array offer_parts: a T-trial
    # experiment makes exactly the scalar calls of one run_ranking
    inst = generate_instance("upper_triangular", {"n": 12}, 0)
    calls = []
    offer_parts_scalar = GainSpec.offer_parts_scalar

    def counted(self, y):
        calls.append(y)
        return offer_parts_scalar(self, y)

    monkeypatch.setattr(GainSpec, "offer_parts_scalar", counted)
    run_ranking(inst, half_exp(), sample_ranks(inst, (4, 0)), collect_offers=False)
    one_run = len(calls)
    assert one_run == len(inst.offline) + len(inst.online)
    calls.clear()
    run_ratio_experiment(ExperimentConfig(inst, half_exp(), 50, 4))
    assert len(calls) == one_run


def test_broken_weight_sum_fails_the_lane_check(monkeypatch):
    # same partners, total_weight one ulp off: the check compares ALG too
    def off_by_one_ulp(instance, spec, ranks, collect_offers=True):
        result, trace = run_ranking(instance, spec, ranks, collect_offers=collect_offers)
        return dataclasses.replace(result, total_weight=math.nextafter(
            result.total_weight, math.inf)), trace

    monkeypatch.setattr(experiments, "run_ranking", off_by_one_ulp)
    inst = generate_instance("weighted_random", {"n": 6, "p": 0.5}, 3)
    with pytest.raises(LaneCheckError, match=r"trial 0 \(seed=5\): ALG \S+ in run_lanes "
                                             r"but \S+ in run_ranking"):
        run_ratio_experiment(ExperimentConfig(inst, half_exp(), 20, 5))
