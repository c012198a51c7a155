import json
import math
import pickle
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from rankmatch import gains, ranking
from rankmatch.core import (RankAssignment, build_instance, check_dual_shares,
                            sample_ranks, validate_rank_assignment)
from rankmatch.experiments import ExperimentConfig, _trial_partners, run_ratio_experiment
from rankmatch.gains import (SIMPLE_EXP, GainSpec, adversarial_baseline, half_exp,
                             piecewise_table, simple_exp)
from rankmatch.generators import generate_instance, random_instance
from rankmatch.ranking import assign_duals, run_lanes, run_ranking, stable_argsort
from test_experiments import counted_offer_parts
from test_gains import slope_valid_table

ALL_KINDS = (half_exp(), simple_exp(), adversarial_baseline(),
             piecewise_table((0.0, 0.5, 1.0), (0.3, 0.45, 0.6)))


def ranks_of(inst, mapping):
    return validate_rank_assignment(inst, {"ranks": mapping})


def reference_engine(instance, spec, ranks, collect_offers=False):
    """Independent re-implementation of the arrival loop used as an oracle.

    Computes offers straight from share() without the precomputed-curve
    shortcut of the production engine; same tie-break (rank, then id).
    """
    rank_of = ranks.ranks
    unmatched = set(instance.offline_ids)
    pairs = []
    match_time = {v: math.inf for v in instance.offline_ids}
    for u in sorted(instance.online_ids, key=lambda x: (rank_of[x], x)):
        options = []
        for v in instance.neighbors[u]:
            if v in unmatched:
                offer = instance.weights[v] * (
                    1.0 - spec.share_scalar(rank_of[v], rank_of[u]))
                options.append((-offer, rank_of[v], v))
        if options:
            options.sort()
            v = options[0][2]
            unmatched.discard(v)
            pairs.append((u, v))
            match_time[v] = rank_of[u]
    return pairs, match_time


def test_single_edge_always_matches():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    for seed in range(5):
        result, trace = run_ranking(inst, half_exp(), sample_ranks(inst, seed))
        assert result.pairs == (("u1", "v1"),)
        assert result.total_weight == 1.0
        assert trace.match_time["v1"] == trace.arrivals[0].arrival_rank


def test_complete_two_by_two_is_perfect():
    inst = build_instance([("v1", 1.0), ("v2", 1.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1", "v2"])])
    for spec in (half_exp(), simple_exp(), adversarial_baseline()):
        for seed in range(25):
            result, _ = run_ranking(inst, spec, sample_ranks(inst, seed))
            assert result.total_weight == 2.0


def test_hand_worked_offers_and_choice():
    # one arrival, two offline: the heavier far vertex wins
    inst = build_instance([("v1", 1.0), ("v2", 10.0)], [("u1", ["v1", "v2"])])
    ranks = ranks_of(inst, {"v1": 0.1, "v2": 0.9, "u1": 0.5})
    result, trace = run_ranking(inst, half_exp(), ranks)
    offers = dict(trace.arrivals[0].offers)
    assert offers["v1"] == pytest.approx(0.6358875881561201, abs=1e-15)
    assert offers["v2"] == pytest.approx(4.121803176750321, abs=1e-15)
    assert result.pairs == (("u1", "v2"),)

    duals = assign_duals(inst, result, half_exp(), ranks)
    assert duals.alpha["u1"] == pytest.approx(4.121803176750321, abs=1e-12)
    assert duals.alpha["v2"] == pytest.approx(5.878196823249679, abs=1e-12)
    assert duals.alpha["u1"] + duals.alpha["v2"] == 10.0
    assert duals.alpha["v1"] == 0.0


def test_single_edge_duals_complement_exactly():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    for seed in range(20):
        ranks = sample_ranks(inst, seed)
        result, _ = run_ranking(inst, half_exp(), ranks)
        duals = assign_duals(inst, result, half_exp(), ranks)
        assert duals.alpha["u1"] + duals.alpha["v1"] == 1.0


def test_empty_matching_all_zero_duals():
    inst = build_instance([("v1", 1.0)], [("u1", [])])
    ranks = sample_ranks(inst, 0)
    result, trace = run_ranking(inst, half_exp(), ranks)
    assert result.pairs == ()
    assert trace.match_time["v1"] == math.inf
    duals = assign_duals(inst, result, half_exp(), ranks)
    assert all(a == 0.0 for a in duals.alpha.values())


def test_arrival_order_strictly_increasing():
    rng = np.random.default_rng(0)
    for trial in range(20):
        inst = random_instance(rng)
        _, trace = run_ranking(inst, half_exp(), sample_ranks(inst, trial))
        times = [rec.arrival_rank for rec in trace.arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_chosen_maximizes_offer_in_trace():
    rng = np.random.default_rng(1)
    for trial in range(30):
        inst = random_instance(rng)
        _, trace = run_ranking(inst, half_exp(), sample_ranks(inst, (1, trial)))
        for rec in trace.arrivals:
            if rec.chosen is None:
                assert not rec.offers
                continue
            best = max(o for _, o in rec.offers)
            assert dict(rec.offers)[rec.chosen] == best


def test_agrees_with_reference_engine():
    rng = np.random.default_rng(2)
    for trial in range(120):
        weighted = trial % 2 == 0
        inst = random_instance(rng, weighted=weighted)
        spec = (half_exp(), simple_exp(), adversarial_baseline())[trial % 3]
        ranks = sample_ranks(inst, (2, trial))
        result, trace = run_ranking(inst, spec, ranks, collect_offers=False)
        pairs, match_time = reference_engine(inst, spec, ranks)
        assert list(result.pairs) == pairs
        assert trace.match_time == match_time


def test_zero_weight_vertex_can_absorb_a_match():
    inst = build_instance([("v1", 0.0)], [("u1", ["v1"])])
    result, _ = run_ranking(inst, half_exp(), sample_ranks(inst, 3))
    assert result.pairs == (("u1", "v1"),)
    assert result.total_weight == 0.0


def test_offer_tie_breaks_to_smaller_rank_then_id():
    # saturated simple-exp curve: both unit-weight offers are exactly equal
    inst = build_instance([("v1", 1.0), ("v2", 1.0)], [("u1", ["v1", "v2"])])
    ranks = ranks_of(inst, {"v1": 0.7, "v2": 0.6, "u1": 0.2})
    result, trace = run_ranking(inst, simple_exp(), ranks)
    offers = dict(trace.arrivals[0].offers)
    assert offers["v1"] == offers["v2"]
    assert result.pairs == (("u1", "v2"),)  # smaller rank wins
    # equal ranks cannot happen through validation; id order is exercised
    # via the unchecked override path in the analysis module


def test_dual_accounting_random_trials():
    rng = np.random.default_rng(3)
    for trial in range(300):
        inst = random_instance(rng, weighted=True)
        spec = (half_exp(), simple_exp(), adversarial_baseline())[trial % 3]
        ranks = sample_ranks(inst, (3, trial))
        result, _ = run_ranking(inst, spec, ranks, collect_offers=False)
        duals = assign_duals(inst, result, spec, ranks)
        check_dual_shares(inst, result, duals)


def test_adversarial_choice_rule_static():
    # offers under the adversarial baseline do not depend on arrival time:
    # shifting u inside its inter-arrival gap cannot change anything
    rng = np.random.default_rng(4)
    for trial in range(30):
        inst = random_instance(rng, weighted=True)
        ranks = sample_ranks(inst, (4, trial))
        base, _ = run_ranking(inst, adversarial_baseline(), ranks,
                              collect_offers=False)
        times = sorted(ranks.ranks[u] for u in inst.online_ids)
        u = inst.online_ids[int(rng.integers(len(inst.online_ids)))]
        y = ranks.ranks[u]
        i = times.index(y)
        lo = times[i - 1] if i > 0 else 0.0
        hi = times[i + 1] if i + 1 < len(times) else 1.0
        for frac in (0.25, 0.5, 0.75):
            shifted = lo + (hi - lo) * frac
            got, _ = run_ranking(inst, adversarial_baseline(),
                                 ranks.override({u: shifted}),
                                 collect_offers=False)
            assert got.pairs == base.pairs


def test_trace_json_lines_schema():
    inst = build_instance([("v1", 1.0), ("v2", 2.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v2"])])
    ranks = ranks_of(inst, {"v1": 0.3, "v2": 0.6, "u1": 0.5, "u2": 0.8})
    _, trace = run_ranking(inst, half_exp(), ranks)
    lines = trace.to_json_lines().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == {"online", "arrival_rank", "offers", "chosen"}
    assert first["online"] == "u1"
    assert isinstance(first["offers"], list)


def lane_columns(instance, lanes):
    """(order, ranks): run_lanes' arrival order and (all_ids, T) ranks for
    a list of RankAssignments."""
    ranks = np.array([[r.ranks[x] for r in lanes] for x in instance.all_ids()])
    on = ranks[len(instance.offline):]
    return np.argsort(on, axis=0, kind="stable"), ranks


def lane_partners(instance, spec, lanes, free=None):
    """run_lanes over a list of RankAssignments (see lane_columns); every
    offline vertex starts free unless a free mask is given."""
    order, ranks = lane_columns(instance, lanes)
    if free is None:
        free = np.ones((len(instance.offline), len(lanes)), dtype=bool)
    return run_lanes(instance, spec, ranks, order, free)


def scalar_partners(instance, spec, ranks):
    result, _ = run_ranking(instance, spec, ranks, collect_offers=False)
    took = dict(result.pairs)
    return [instance.offline_ids.index(took[u]) if u in took else -1
            for u in instance.online_ids]


def offer_ties(instance, spec, ranks):
    """Arrivals whose best offer comes from two or more neighbors."""
    _, trace = run_ranking(instance, spec, ranks)
    count = 0
    for rec in trace.arrivals:
        offers = [o for _, o in rec.offers]
        count += len(offers) > 1 and offers.count(max(offers)) > 1
    return count


@pytest.mark.parametrize("regime", ["continuous", "grid", "offer-ties"])
def test_run_lanes_matches_run_ranking_lane_for_lane(regime):
    # grid: ranks k/4, so arrival times tie, and unit-weight offers from
    # equal offline ranks tie; offer-ties: simple-exp saturates above 1/2,
    # so unit-weight offers tie exactly
    rng = np.random.default_rng(5)
    arrival_ties = tied_offers = 0
    for trial in range(60):
        if regime == "offer-ties":
            spec, weighted = simple_exp(), False
        else:
            spec, weighted = ALL_KINDS[trial % 4], trial % 3 != 0
        inst = random_instance(rng, weighted=weighted)
        if regime == "grid":
            lanes = [RankAssignment({vid: int(rng.integers(5)) / 4 for vid in inst.all_ids()})
                     for _ in range(8)]
        else:
            lanes = [sample_ranks(inst, rng) for _ in range(8)]
        partner = lane_partners(inst, spec, lanes)
        for t, ranks in enumerate(lanes):
            assert partner[:, t].tolist() == scalar_partners(inst, spec, ranks)
            times = [ranks.ranks[u] for u in inst.online_ids]
            arrival_ties += len(set(times)) < len(times)
            tied_offers += offer_ties(inst, spec, ranks)
    if regime == "grid":
        assert arrival_ties > 0 and tied_offers > 0
    if regime == "offer-ties":
        assert tied_offers > 0


@pytest.mark.parametrize("regime", ["continuous", "offer-ties"])
def test_run_lanes_without_a_gone_vertex_matches_run_ranking_without_it(regime, branches):
    # free marks one offline vertex per lane as taken before the first
    # arrival: each lane must be run_ranking on the instance without it
    rng = np.random.default_rng(6)
    tied_offers = 0
    for trial in range(60):
        if regime == "offer-ties":
            spec, weighted = simple_exp(), False
        else:
            spec, weighted = ALL_KINDS[trial % 4], trial % 3 != 0
        inst = random_instance(rng, weighted=weighted)
        lanes = [sample_ranks(inst, rng) for _ in range(8)]
        gone = rng.integers(len(inst.offline), size=len(lanes))
        free = np.ones((len(inst.offline), len(lanes)), dtype=bool)
        free[gone, np.arange(len(lanes))] = False
        kept = free.copy()
        partner, _ = branches(lambda: lane_partners(inst, spec, lanes, free), len(lanes))
        assert np.array_equal(free, kept)
        for t, ranks in enumerate(lanes):
            g = inst.offline_ids[gone[t]]
            without = build_instance([(v, w) for v, w in inst.offline if v != g],
                                     [(u, [v for v in nbs if v != g])
                                      for u, nbs in inst.online])
            result, _ = run_ranking(without, spec, ranks, collect_offers=False)
            took = dict(result.pairs)
            assert [inst.offline_ids[p] if p >= 0 else None for p in partner[:, t]] == [
                took.get(u) for u in inst.online_ids]
            tied_offers += offer_ties(without, spec, ranks)
    # unit weights take the by-order branch, the weighted draws the other
    if regime == "offer-ties":
        assert tied_offers > 0 and branches.lanes["offers"] == 0
    else:
        assert min(branches.lanes.values()) > 0, branches.lanes


def test_run_lanes_matches_run_ranking_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rank = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
    weight = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.1, 10.0)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        n_on = data.draw(st.integers(1, 5))
        n_off = data.draw(st.integers(0, 5))
        offline = [(f"v{j}", data.draw(weight)) for j in range(n_off)]
        online = [(f"u{i}", [v for v, _ in offline if data.draw(st.booleans())])
                  for i in range(n_on)]
        inst = build_instance(offline, online)
        spec = data.draw(st.sampled_from(ALL_KINDS))
        lanes = [RankAssignment({vid: data.draw(rank) for vid in inst.all_ids()})
                 for _ in range(data.draw(st.integers(1, 4)))]
        partner = lane_partners(inst, spec, lanes)
        for t, ranks in enumerate(lanes):
            assert partner[:, t].tolist() == scalar_partners(inst, spec, ranks)

    check()


def one_lane(instance, spec, ranks):
    """lane_partners for a single assignment, as a list of offline ids."""
    partner = lane_partners(instance, spec, [ranks])[:, 0]
    return [instance.offline_ids[p] if p >= 0 else None for p in partner]


def test_run_lanes_takes_a_lone_free_zero_weight_neighbor():
    # v0 is heavier and first by rank and id, but u1 is not its neighbor:
    # its masked offer of 0 ties u1's only offer and must not be taken
    inst = build_instance([("v0", 1.0), ("v1", 0.0)], [("u1", ["v1"])])
    ranks = RankAssignment({"v0": 0.1, "v1": 0.8, "u1": 0.5})
    for spec in ALL_KINDS:
        assert one_lane(inst, spec, ranks) == ["v1"]
        assert scalar_partners(inst, spec, ranks) == [1]


def test_run_lanes_breaks_a_zero_offer_tie_by_rank_then_id():
    # u2 arrives after u1 has taken v0, so v0 is no longer a candidate;
    # the zero-weight v1 and v2 both offer exactly 0
    inst = build_instance([("v0", 1.0), ("v1", 0.0), ("v2", 0.0)],
                          [("u1", ["v0"]), ("u2", ["v0", "v1", "v2"])])
    for spec in ALL_KINDS:
        for r1, r2, want in ((0.7, 0.4, "v2"), (0.4, 0.7, "v1"), (0.6, 0.6, "v1")):
            ranks = RankAssignment({"v0": 0.1, "v1": r1, "v2": r2,
                                    "u1": 0.2, "u2": 0.5})
            assert one_lane(inst, spec, ranks) == ["v0", want]
            took = scalar_partners(inst, spec, ranks)
            assert [inst.offline_ids[p] for p in took] == ["v0", want]


def hand_lanes(instance, ranks, free=None):
    """run_lanes under half-exp on a hand-built (all_ids, T) rank array,
    arrivals in id order."""
    ranks = np.array(ranks, dtype=float)
    order = np.tile(np.arange(len(instance.online))[:, None], (1, ranks.shape[1]))
    if free is None:
        free = np.ones((len(instance.offline), ranks.shape[1]), dtype=bool)
    return run_lanes(instance, half_exp(), ranks, order, np.array(free))


def test_run_lanes_breaks_a_positive_offer_tie_by_rank_not_row():
    # unit weights, a = 0 for both (half-exp saturates from ln 2) and
    # b(0) = 0.25: the offers tie, and lane 0's smaller rank sits at the larger row
    spec = half_exp()
    assert [spec.offer_parts_scalar(y)[0] for y in (0.8, 0.9)] == [0.0, 0.0]
    assert spec.offer_parts_scalar(0.0)[1] == 0.25
    inst = build_instance([("v0", 1.0), ("v1", 1.0)], [("u1", ["v0", "v1"])])
    partner = hand_lanes(inst, [[0.9, 0.8], [0.8, 0.9], [0.0, 0.0]])
    assert partner.tolist() == [[1, 0]]
    for t, (r0, r1) in enumerate(((0.9, 0.8), (0.8, 0.9))):
        ranks = RankAssignment({"v0": r0, "v1": r1, "u1": 0.0})
        assert scalar_partners(inst, spec, ranks) == partner[:, t].tolist()


def test_run_lanes_breaks_an_exact_rank_tie_by_row():
    # v1 and v2 share a rank and so an offer; v0 ranks first but is no
    # neighbor. validate_rank_assignment refuses tied user ranks, so this
    # pins the rule on hand-built arrays: lane 0 takes v1, lane 1 (v1
    # already taken) v2
    inst = build_instance([("v0", 1.0), ("v1", 1.0), ("v2", 1.0)],
                          [("u1", ["v1", "v2"])])
    ranks = [[0.1, 0.1], [0.8, 0.8], [0.8, 0.8], [0.0, 0.0]]
    free = [[True, True], [True, False], [True, True]]
    assert hand_lanes(inst, ranks, free).tolist() == [[1, 2]]


@pytest.mark.parametrize("n, want", [(3, Fraction(89, 108)), (4, Fraction(103, 128))])
def test_run_lanes_on_every_rank_order_of_ut_n_gives_the_exact_ratio(n, want):
    # unit weights make every spec plain Ranking, whose ratio on
    # upper_triangular(n) is the mean over the n! x n! rank orders; OPT = n
    inst = generate_instance("upper_triangular", {"n": n}, 0)
    orders = list(product(permutations(range(n)), repeat=2))
    lanes = [RankAssignment({**{v: (p + 0.5) / n for v, p in zip(inst.offline_ids, off)},
                             **{u: (p + 0.5) / n for u, p in zip(inst.online_ids, on)}})
             for off, on in orders]
    for spec in ALL_KINDS:
        partner = lane_partners(inst, spec, lanes)
        assert partner.shape == (n, len(orders))
        assert Fraction(int((partner >= 0).sum()), n * len(orders)) == want
        for t, ranks in enumerate(lanes):
            assert partner[:, t].tolist() == scalar_partners(inst, spec, ranks)


def test_ratio_experiment_on_ut4_is_within_four_standard_errors_of_103_128():
    inst = generate_instance("upper_triangular", {"n": 4}, 0)
    report = run_ratio_experiment(ExperimentConfig(inst, half_exp(), 4000, 7))
    assert abs(report.mean_ratio - 103 / 128) <= 4 * report.std_error


def reweighted(instance, weights):
    return build_instance([(v, w) for (v, _), w in zip(instance.offline, weights)],
                          instance.online)


def test_run_lanes_by_order_and_offer_branches_are_each_run_ranking(branches, monkeypatch):
    # f drops at the knot 1/2, so a rises there: on equal weights too, the
    # lanes of that spec compare offers
    monkeypatch.setitem(gains._PIECES, SIMPLE_EXP,
                        ((0.0, 0.0, 0.0, 1.0, -0.5), (0.5, 0.5, 0.0, 0.0, 0.0)))
    rising = GainSpec(SIMPLE_EXP)
    assert not rising.rank_offer_non_increasing
    calls = counted_offer_parts(monkeypatch)
    rng = np.random.default_rng(26)
    for trial in range(40):
        spec = ALL_KINDS[trial % 4]
        base = random_instance(rng, weighted=False)
        n_off = len(base.offline)
        one = build_instance([("v0", float(rng.uniform(0.0, 3.0)))],
                             [(u, ["v0"] if nbs else []) for u, nbs in base.online])
        mixed = rng.choice([0.0, 1.0, 2.5], size=n_off)
        mixed[0], mixed[-1] = 0.0, 2.5
        cases = (("by-order", spec, reweighted(base, [2.5] * n_off)),
                 ("by-order", spec, reweighted(base, [0.0] * n_off)),
                 ("offers" if n_off > 1 else "by-order", spec, reweighted(base, mixed)),
                 ("by-order", spec, one),
                 ("offers", rising, reweighted(base, [2.5] * n_off)))
        for want, lane_spec, inst in cases:
            lanes = [sample_ranks(inst, rng) for _ in range(6)]
            if trial % 2:
                lanes = [RankAssignment({vid: int(rng.integers(5)) / 4
                                         for vid in inst.all_ids()}) for _ in lanes]
            # the by-order branch evaluates no offer part, the offer branch
            # makes one offer_parts call
            calls["offer_parts"] = 0
            partner, branch = branches(lambda: lane_partners(inst, lane_spec, lanes), len(lanes))
            assert branch == want and calls["offer_parts"] == (want == "offers")
            for t, ranks in enumerate(lanes):
                assert partner[:, t].tolist() == scalar_partners(inst, lane_spec, ranks)
    assert min(branches.lanes.values()) > 0, branches.lanes


def test_run_lanes_on_the_specs_word_is_run_ranking_for_every_lane(monkeypatch):
    # equal weights and a spec whose a never rises, so each lane takes its
    # first free neighbour by rank and no offer part is evaluated. Half
    # the draws put ranks on a k/4 grid, where they tie; the lanes of
    # run_ratio_experiment's blocks are checked trial by trial, not only trial 0
    calls = counted_offer_parts(monkeypatch)
    rng = np.random.default_rng(31)
    rank_ties = 0
    for k, spec in enumerate([*ALL_KINDS, *(slope_valid_table(rng) for _ in range(20))]):
        assert spec.rank_offer_non_increasing
        inst = random_instance(rng, weighted=False)
        for grid in (False, True):
            lanes = [sample_ranks(inst, rng) for _ in range(8)]
            if grid:
                lanes = [RankAssignment({vid: int(rng.integers(5)) / 4
                                         for vid in inst.all_ids()}) for _ in lanes]
            partner = lane_partners(inst, spec, lanes)
            for t, ranks in enumerate(lanes):
                assert partner[:, t].tolist() == scalar_partners(inst, spec, ranks)
                offline = [ranks.ranks[v] for v in inst.offline_ids]
                rank_ties += len(set(offline)) < len(offline)
        partner = _trial_partners(inst, spec, k, range(40))
        for t in range(40):
            assert partner[:, t].tolist() == scalar_partners(inst, spec,
                                                             sample_ranks(inst, (k, t)))
    assert rank_ties > 0 and calls["offer_parts"] == 0


def sort_keys():
    rng = np.random.default_rng(30)
    one_tied = rng.random((6, 40))
    one_tied[3] = rng.integers(0, 4, 40) / 4
    return {"distinct": rng.random((6, 40)),
            "ties": rng.integers(0, 4, (6, 40)) / 4,
            "one-tied-row": one_tied,
            "signed-zeros": np.tile([0.0, -0.0, 0.5, -0.0, 0.0, 0.25, -0.0], (3, 6)),
            "nan": np.where(rng.random((4, 40)) < 0.3, np.nan, rng.random((4, 40))),
            "all-equal": np.full((4, 40), 0.5),
            "one-column": rng.random((5, 1)),
            "zero-rows": np.empty((0, 6))}


@pytest.mark.parametrize("name", list(sort_keys()))
def test_stable_argsort_is_numpys_stable_argsort(name):
    x = sort_keys()[name]
    got = stable_argsort(x)
    assert got.dtype == np.intp and got.shape == x.shape
    assert np.array_equal(got, np.argsort(x, axis=1, kind="stable"))


def test_run_lanes_with_exactly_tied_offline_ranks_in_one_lane_matches_run_ranking():
    # one lane of the block holds offline ranks on a grid of five values,
    # so the block's rank order takes the stable sort; unit weights make
    # the rank order alone pick every partner
    inst = generate_instance("upper_triangular", {"n": 20}, 0)
    rng = np.random.default_rng(30)
    lanes = [sample_ranks(inst, rng) for _ in range(8)]
    lanes[5] = lanes[5].override({v: int(rng.integers(5)) / 4 for v in inst.offline_ids})
    tied = [lanes[5].ranks[v] for v in inst.offline_ids]
    assert len(set(tied)) < len(tied)
    for spec in ALL_KINDS:
        partner = lane_partners(inst, spec, lanes)
        for t, ranks in enumerate(lanes):
            assert partner[:, t].tolist() == scalar_partners(inst, spec, ranks)


def test_trace_match_time_is_read_only_and_pickles():
    inst = build_instance([("v1", 1.0), ("v2", 2.0)], [("u1", ["v1", "v2"])])
    _, trace = run_ranking(inst, half_exp(), sample_ranks(inst, 3))
    with pytest.raises(TypeError):
        trace.match_time["v1"] = -5.0
    given = {"v1": 0.5, "v2": math.inf}
    copy = ranking.SimulationTrace(arrivals=(), match_time=given)
    given["v1"] = 0.0
    assert copy.match_time == {"v1": 0.5, "v2": math.inf}
    back = pickle.loads(pickle.dumps(trace))
    assert back == trace and back is not trace
    assert back.match_time == trace.match_time and back.arrivals == trace.arrivals
