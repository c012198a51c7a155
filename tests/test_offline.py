import math

import numpy as np
import pytest

from rankmatch.core import InstanceError, build_instance, sample_ranks
from rankmatch.gains import half_exp
from rankmatch.generators import generate_instance, random_instance
from rankmatch.offline import BRUTE_FORCE_LIMIT, OptResult, brute_force_opt, solve_opt
from rankmatch.ranking import run_ranking


def test_single_edge():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    assert solve_opt(inst).value == 1.0
    assert brute_force_opt(inst).value == 1.0


def test_no_edges():
    inst = build_instance([("v1", 1.0)], [("u1", [])])
    assert solve_opt(inst).value == 0.0
    assert solve_opt(inst).pairs == ()
    assert brute_force_opt(inst).value == 0.0


def test_hand_worked_instance():
    # u1-v1, u2-v1, u2-v2 with weights 3 and 2: take u1-v1 and u2-v2
    inst = build_instance([("v1", 3.0), ("v2", 2.0)],
                          [("u1", ["v1"]), ("u2", ["v1", "v2"])])
    res = solve_opt(inst)
    assert res.value == 5.0
    assert set(res.pairs) == {("u1", "v1"), ("u2", "v2")}
    assert brute_force_opt(inst).value == 5.0


def test_empty_sides():
    assert solve_opt(build_instance([], [])).value == 0.0
    assert brute_force_opt(build_instance([("v1", 2.0)], [])).value == 0.0


def test_heavier_side_preferred_over_cardinality():
    # one huge vertex beats two small ones when they conflict
    inst = build_instance([("v1", 10.0), ("v2", 0.1), ("v3", 0.1)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1", "v3"])])
    assert solve_opt(inst).value == pytest.approx(10.1)


def test_brute_force_size_guard():
    big = build_instance([(f"v{i}", 1.0) for i in range(11)], [])
    with pytest.raises(InstanceError, match="too large"):
        brute_force_opt(big)


def test_oracle_agreement_random_instances():
    rng = np.random.default_rng(10)
    for trial in range(250):
        inst = random_instance(rng, max_side=8, weighted=True, min_edges=0)
        assert solve_opt(inst).value == brute_force_opt(inst).value


def test_opt_reported_matching_is_feasible_and_adds_up():
    rng = np.random.default_rng(11)
    for trial in range(100):
        inst = random_instance(rng, max_side=7, weighted=True, min_edges=0)
        res = solve_opt(inst)
        seen_u, seen_v = set(), set()
        total = 0.0
        for u, v in res.pairs:
            assert inst.has_edge(u, v)
            assert u not in seen_u and v not in seen_v
            seen_u.add(u)
            seen_v.add(v)
            total += inst.weights[v]
        assert res.value == pytest.approx(total, abs=1e-12)


def test_opt_dominates_online_algorithm():
    rng = np.random.default_rng(12)
    for trial in range(150):
        inst = random_instance(rng, weighted=True)
        opt = solve_opt(inst).value
        result, _ = run_ranking(inst, half_exp(), sample_ranks(inst, (12, trial)),
                                collect_offers=False)
        assert result.total_weight <= opt + 1e-12


def _assert_feasible(inst, res):
    """res.pairs is a matching of inst and res.value the fsum of its weights."""
    assert len({u for u, _ in res.pairs}) == len({v for _, v in res.pairs}) == len(res.pairs)
    assert all(inst.has_edge(u, v) for u, v in res.pairs)
    assert [u for u, _ in res.pairs] == sorted(u for u, _ in res.pairs)
    assert res.value == math.fsum(inst.weights[v] for _, v in res.pairs)


def _assignment_value(inst):
    """OPT by scipy's assignment solver on the dense profit matrix, where a
    missing edge is a zero-profit cell; a reference for the tests only."""
    from scipy.optimize import linear_sum_assignment

    col = {v: j for j, v in enumerate(inst.offline_ids)}
    profit = np.zeros((len(inst.online), len(inst.offline)))
    for i, (_, nbs) in enumerate(inst.online):
        for v in nbs:
            profit[i, col[v]] = inst.weights[v]
    rows, cols = linear_sum_assignment(profit, maximize=True)
    return math.fsum(profit[rows, cols].tolist())


@pytest.mark.parametrize("kind, n, p", [
    *[("weighted_random", n, p) for n in (12, 30, 60) for p in (0.05, 0.2, 0.5)],
    ("upper_triangular", 50, None),
    ("complete", 40, None),
])
def test_opt_equals_the_assignment_solver_beyond_brute_force(kind, n, p):
    assert n > BRUTE_FORCE_LIMIT
    params = {"n": n} if p is None else {"n": n, "p": p}
    for seed in range(3):
        inst = generate_instance(kind, params, seed)
        res = solve_opt(inst)
        _assert_feasible(inst, res)
        assert res.value == _assignment_value(inst)


def test_long_augmenting_chain_displaces_every_earlier_vertex():
    # u_i sees v_{i-1} and v_i, and one more online vertex sees only v_k.
    # v_1..v_k are heavier, so the greedy takes them first and v_i takes
    # u_i; v_0 comes last and gets in only along the path v_0 u_1 v_1 ...
    # u_k v_k u_{k+1}, which moves every earlier vertex. The path is longer
    # than Python's recursion limit.
    k = 3000
    off = [(f"v{i:05d}", 1.0 if i == 0 else 2.0) for i in range(k + 1)]
    on = [(f"u{i:05d}", [f"v{i - 1:05d}"] + ([f"v{i:05d}"] if i <= k else []))
          for i in range(1, k + 2)]
    inst = build_instance(off, on)
    res = solve_opt(inst)
    assert res.value == 2.0 * k + 1.0
    assert res.pairs == tuple((f"u{i:05d}", f"v{i - 1:05d}") for i in range(1, k + 2))


def test_equal_weights_give_a_maximum_cardinality_matching():
    # v1 comes first and takes u1, then gives it up so that v2 fits too
    inst = build_instance([("v1", 2.5), ("v2", 2.5)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1"])])
    assert solve_opt(inst).pairs == (("u1", "v2"), ("u2", "v1"))
    for seed in range(20):
        inst = generate_instance("random", {"n": 25, "p": 0.08}, seed)
        res = solve_opt(inst)
        _assert_feasible(inst, res)
        assert res.value == _assignment_value(inst)   # unit weights: a count


def test_zero_weight_and_isolated_offline_vertices_add_nothing():
    inst = build_instance([("v1", 0.0), ("v2", 3.0), ("v3", 7.0), ("v4", 0.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1", "v4"])])
    res = solve_opt(inst)
    assert res.pairs == (("u1", "v2"),)
    assert res.value == 3.0 == brute_force_opt(inst).value
    zeros = build_instance([("v1", 0.0), ("v2", 0.0)], [("u1", ["v1", "v2"])])
    isolated = build_instance([("v1", 1.0)], [])
    assert solve_opt(zeros) == solve_opt(isolated) == OptResult(pairs=(), value=0.0)
