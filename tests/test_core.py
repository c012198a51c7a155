import json
import pickle

import numpy as np
import pytest

from rankmatch.core import (DualShares, InstanceError, RankAssignment, RankError,
                            _trial_states, build_instance, check_dual_shares,
                            matching_result, rank_draws, sample_ranks,
                            trial_rank_draws, validate_instance,
                            validate_rank_assignment)


def tiny():
    return build_instance([("v1", 1.0)], [("u1", ["v1"])])


def test_validate_smallest_instance():
    inst = validate_instance({"offline": [{"id": "v1", "weight": 1.0}],
                              "online": [{"id": "u1", "neighbors": ["v1"]}]})
    assert inst.adjacency.tolist() == [[True]]
    assert inst.weights == {"v1": 1.0}
    assert inst.neighbors == {"u1": ("v1",)}


def test_validate_negative_weight_names_vertex():
    with pytest.raises(InstanceError, match="negative weight v1"):
        build_instance([("v1", -2.0)], [])


def test_validate_unknown_neighbor_names_vertex():
    with pytest.raises(InstanceError, match="unknown neighbor v9"):
        build_instance([("v1", 1.0)], [("u1", ["v9"])])


def test_validate_duplicate_ids():
    with pytest.raises(InstanceError, match="duplicate id v1"):
        build_instance([("v1", 1.0), ("v1", 2.0)], [])
    with pytest.raises(InstanceError, match="duplicate id u1"):
        build_instance([("v1", 1.0)], [("u1", ["v1"]), ("u1", [])])
    # ids must also be unique across sides, or the rank map is ambiguous
    with pytest.raises(InstanceError, match="duplicate id x"):
        build_instance([("x", 1.0)], [("x", [])])


@pytest.mark.parametrize("key", ["onlin", "weights", "Offline"])
def test_validate_refuses_keys_it_does_not_read(key):
    # a misspelled side would otherwise read as an empty one
    raw = {"offline": [{"id": "v1", "weight": 1.0}], key: [{"id": "u1", "neighbors": ["v1"]}]}
    with pytest.raises(InstanceError,
                       match=f"an instance reads only offline and online, not '{key}'"):
        validate_instance(raw)


def test_validate_rejects_nan_weight():
    with pytest.raises(InstanceError):
        build_instance([("v1", float("nan"))], [])


def test_zero_weight_allowed():
    inst = build_instance([("v1", 0.0)], [("u1", ["v1"])])
    assert inst.weights["v1"] == 0.0


def test_neighbors_deduped_and_sorted():
    inst = build_instance([("v1", 1.0), ("v2", 1.0)],
                          [("u1", ["v2", "v1", "v2"])])
    assert inst.neighbors["u1"] == ("v1", "v2")


def test_instance_json_round_trip_bit_exact():
    weights = [0.1, 1e-300, 0.6065306597126334, 7.2e15, 1 / 3]
    inst = build_instance([(f"v{i}", w) for i, w in enumerate(weights)],
                          [("u1", [f"v{i}" for i in range(len(weights))])])
    back = validate_instance(json.loads(json.dumps(inst.to_json_dict())))
    assert back == inst
    for i, w in enumerate(weights):
        assert back.weights[f"v{i}"] == w  # bit-exact


def test_rank_assignment_json_round_trip_bit_exact():
    inst = tiny()
    ranks = validate_rank_assignment(inst, {"ranks": {"v1": 1 / 3, "u1": 0.7}})
    text = json.dumps({"ranks": dict(ranks.ranks)})
    back = validate_rank_assignment(inst, json.loads(text))
    assert back.ranks == ranks.ranks


def test_rank_validation_errors():
    inst = tiny()
    with pytest.raises(RankError, match="missing rank"):
        validate_rank_assignment(inst, {"ranks": {"v1": 0.5}})
    with pytest.raises(RankError, match="unknown vertex"):
        validate_rank_assignment(inst, {"ranks": {"v1": 0.5, "u1": 0.6, "zz": 0.1}})
    with pytest.raises(RankError, match="tied ranks"):
        validate_rank_assignment(inst, {"ranks": {"v1": 0.5, "u1": 0.5}})
    with pytest.raises(RankError, match="outside"):
        validate_rank_assignment(inst, {"ranks": {"v1": 1.5, "u1": 0.5}})


def test_rank_validation_names_malformed_entries():
    inst = tiny()
    with pytest.raises(RankError, match="ranks must map vertex ids"):
        validate_rank_assignment(inst, {"ranks": 5})
    with pytest.raises(RankError, match="malformed rank for u1: 'x'"):
        validate_rank_assignment(inst, {"ranks": {"v1": 0.5, "u1": "x"}})
    with pytest.raises(RankError, match="malformed rank for v1: None"):
        validate_rank_assignment(inst, {"ranks": {"v1": None, "u1": 0.5}})
    # numeric text and bools are not numbers; an int is
    with pytest.raises(RankError, match="malformed rank for u1: '0.5'"):
        validate_rank_assignment(inst, {"ranks": {"v1": 0.25, "u1": "0.5"}})
    with pytest.raises(RankError, match="malformed rank for v1: True"):
        validate_rank_assignment(inst, {"ranks": {"v1": True, "u1": 0.5}})
    ranks = validate_rank_assignment(inst, {"ranks": {"v1": 1, "u1": 0.5}})
    assert ranks.ranks == {"v1": 1.0, "u1": 0.5}


def test_rank_wrapper_is_read_only_where_it_can_be_one():
    # a vertex named "ranks" holds a number: the bare mapping, not a wrapper
    inst = build_instance([("ranks", 1.0)], [("u1", ["ranks"])])
    bare = validate_rank_assignment(inst, {"ranks": 0.3, "u1": 0.5})
    assert bare.ranks == {"ranks": 0.3, "u1": 0.5}
    assert validate_rank_assignment(inst, {"ranks": dict(bare.ranks)}) == bare
    # the wrapper holds nothing beside its mapping
    with pytest.raises(RankError, match="^a rank wrapper reads only ranks, not 'seed'$"):
        validate_rank_assignment(tiny(), {"ranks": {"v1": 0.5, "u1": 0.25}, "seed": 3})


def test_sample_ranks_deterministic():
    inst = build_instance([("v1", 1.0), ("v2", 2.0)],
                          [("u1", ["v1"]), ("u2", ["v2"])])
    a = sample_ranks(inst, 123)
    b = sample_ranks(inst, 123)
    assert a.ranks == b.ranks
    c = sample_ranks(inst, 124)
    assert a.ranks != c.ranks
    # a Generator is drawn from directly: the same stream as its seed
    assert sample_ranks(inst, np.random.default_rng(123)).ranks == a.ranks


def test_sample_ranks_assigns_rank_draws_by_id():
    # one stream contract: offline ids first, then online, in id order
    inst = build_instance([("v2", 1.0), ("v1", 2.0)],
                          [("u1", ["v1"]), ("u3", ["v2"]), ("u2", [])])
    for seed in (0, 7, (7, 0), (7, 41)):
        draws = rank_draws(inst, seed)
        assert draws.shape == (5,)
        ranks = sample_ranks(inst, seed).ranks
        assert [ranks[i].hex() for i in inst.all_ids()] == [x.hex() for x in draws.tolist()]


def seed_sequence_states(seed, trials):
    """numpy's own hash of every (seed, t): the reference of _trial_states."""
    return np.array([np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
                     for t in trials], dtype=np.uint64).reshape(-1, 4)


# one entropy word, the last one-word value, the first two-word one, two
# words with the top bit set, two seed words as a tuple, a 97-bit int
EDGE_SEEDS = {"0": 0, "5": 5, "2^32-1": 2**32 - 1, "2^32": 2**32, "2^63+12345": 2**63 + 12345,
              "(7,303)": (7, 303), "2^96+2^33+1": 2**96 + 2**33 + 1}
# one-word and two-word trials interleaved, so the two hash batches scatter
EDGE_TRIALS = (*range(300), 2**32 - 1, 2**32, 7, 2**32 + 5, 2**64 - 1, 2**40 + 7, 1)


@pytest.mark.parametrize("seed", EDGE_SEEDS.values(), ids=list(EDGE_SEEDS))
def test_batched_seed_hash_equals_seed_sequence(seed):
    states = _trial_states(seed, EDGE_TRIALS)
    assert states.dtype == np.uint64 and states.flags.c_contiguous
    assert states.tolist() == seed_sequence_states(seed, EDGE_TRIALS).tolist()


def test_batched_seed_hash_property():
    # any (seed, t) numpy's SeedSequence takes: seeds of 0 to 12 entropy
    # words, beyond the pool of 4, and trials of 1 or 2
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    word = st.integers(0, 2**160)
    seed = word | st.tuples(word, word) | st.lists(st.integers(0, 2**32 - 1), max_size=4)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(seed, st.lists(st.integers(0, 2**64 - 1), max_size=6))
    def check(seed, trials):
        assert (_trial_states(seed, trials).tolist()
                == seed_sequence_states(seed, trials).tolist())

    check()


def test_batched_seed_hash_raises_where_it_cannot_be_exact():
    # a trial beyond two words, a negative trial or seed, or a non-integer
    # raises; none is hashed as some other value
    for seed, trials, error in ((1, [2**64], OverflowError), (1, [-1], OverflowError),
                                (1, [1.5], TypeError), (1, [0, 2**70], OverflowError),
                                (-1, [0], ValueError), ((3, -2), [0], ValueError),
                                (1.5, [0], TypeError), ("7", [0], TypeError)):
        with pytest.raises(error):
            _trial_states(seed, trials)


def test_trial_rank_draws_rows_are_rank_draws():
    # row k is the reference stream rank_draws(instance, (seed, trials[k]))
    inst = build_instance([("v2", 1.0), ("v1", 2.0)],
                          [("u1", ["v1"]), ("u3", ["v2"]), ("u2", [])])
    for seed in (0, 9, 2**40 + 7):
        for trials in (range(3), range(650, 700), [2**32, 4, 2**32 - 1], []):
            draws = trial_rank_draws(inst, seed, trials)
            assert draws.shape == (len(trials), 5)
            assert [[x.hex() for x in row] for row in draws.tolist()] == [
                [x.hex() for x in rank_draws(inst, (seed, t)).tolist()] for t in trials]
    assert trial_rank_draws(build_instance([], []), 3, range(4)).shape == (4, 0)


def test_trial_rank_draws_serve_pcg64_only_its_four_words(monkeypatch):
    # a seed request other than PCG64's 4 uint64 words raises, as the
    # precomputed state answers no other
    monkeypatch.setattr(np.random, "PCG64", lambda seed: seed.generate_state(8, np.uint32))
    with pytest.raises(ValueError, match="^a preset seed holds 4 uint64 words, not 8 "):
        trial_rank_draws(tiny(), 3, range(2))


def test_sample_ranks_uniform_mean():
    # Monte-Carlo oracle: 1e5 draws of one vertex's rank
    inst = tiny()
    vals = [sample_ranks(inst, s).ranks["v1"] for s in range(100_000)]
    assert abs(np.mean(vals) - 0.5) < 0.01


def test_sample_ranks_independent_across_vertices():
    inst = build_instance([("v1", 1.0), ("v2", 1.0)], [])
    xs, ys = [], []
    for s in range(100_000):
        r = sample_ranks(inst, s).ranks
        xs.append(r["v1"])
        ys.append(r["v2"])
    rho = np.corrcoef(xs, ys)[0, 1]
    assert abs(rho) < 0.02


def test_matching_result_validation():
    inst = build_instance([("v1", 3.0), ("v2", 2.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1"])])
    res = matching_result(inst, [("u1", "v2"), ("u2", "v1")])
    assert res.total_weight == 5.0
    assert res.matched_online == {"u1", "u2"}
    with pytest.raises(InstanceError, match="matched twice"):
        matching_result(inst, [("u1", "v1"), ("u2", "v1")])
    with pytest.raises(InstanceError, match="not an edge"):
        matching_result(inst, [("u2", "v2")])


def test_has_edge_leaves_the_edge_set_unbuilt():
    inst = build_instance([("v1", 3.0), ("v2", 2.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1"])])
    assert inst.has_edge("u1", "v2") and inst.has_edge("u2", "v1")
    assert not inst.has_edge("u2", "v2") and not inst.has_edge("v1", "u1")
    assert not inst.has_edge("u9", "v1")
    matching_result(inst, [("u1", "v2"), ("u2", "v1")])
    assert "adjacency" not in vars(inst)
    assert inst.adjacency.tolist() == [[True, True], [True, False]]


def test_check_dual_shares_accepts_exact_split():
    inst = build_instance([("v1", 3.0)], [("u1", ["v1"])])
    res = matching_result(inst, [("u1", "v1")])
    good = DualShares(alpha={"v1": 1.2, "u1": 1.8})
    check_dual_shares(inst, res, good)
    bad = DualShares(alpha={"v1": 1.2, "u1": 1.9})
    with pytest.raises(AssertionError):
        check_dual_shares(inst, res, bad)


def test_check_dual_shares_rejects_nonzero_unmatched():
    inst = build_instance([("v1", 3.0), ("v2", 1.0)], [("u1", ["v1"])])
    res = matching_result(inst, [("u1", "v1")])
    bad = DualShares(alpha={"v1": 1.5, "u1": 1.5, "v2": 0.25})
    with pytest.raises(AssertionError, match="unmatched"):
        check_dual_shares(inst, res, bad)


def test_instances_hashable_and_frozen():
    a = tiny()
    b = tiny()
    assert a == b
    with pytest.raises(Exception):
        a.offline = ()


def test_instance_and_rank_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e300)
    rank = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        ids = data.draw(st.lists(st.text(min_size=1, max_size=4), max_size=8,
                                 unique=True))
        n_off = data.draw(st.integers(0, len(ids)))
        offline = [(v, data.draw(weight)) for v in ids[:n_off]]
        online = [(u, data.draw(st.lists(st.sampled_from(ids[:n_off]), max_size=4)
                                if n_off else st.just([])))
                  for u in ids[n_off:]]
        inst = build_instance(offline, online)
        assert validate_instance(json.loads(json.dumps(inst.to_json_dict()))) == inst
        values = data.draw(st.lists(rank, min_size=len(ids), max_size=len(ids),
                                     unique=True))
        ranks = validate_rank_assignment(inst, dict(zip(inst.all_ids(), values)))
        text = json.dumps({"ranks": dict(ranks.ranks)})
        assert validate_rank_assignment(inst, json.loads(text)) == ranks

    check()


def test_views_are_read_only():
    inst = build_instance([("v1", 1.0), ("v2", 2.0)], [("u1", ["v1", "v2"])])
    ranks = sample_ranks(inst, 3)
    shares = DualShares(alpha={"v1": 0.5, "v2": 0.0, "u1": 0.5})
    for view, key in ((inst.weights, "v1"), (inst.neighbors, "u1"),
                      (ranks.ranks, "v1"), (shares.alpha, "v1")):
        with pytest.raises(TypeError):
            view[key] = 5.0
        with pytest.raises(TypeError):
            del view[key]
    assert inst.weights == {"v1": 1.0, "v2": 2.0}


def test_caller_dicts_are_copied():
    given = {"v1": 0.25, "u1": 0.75}
    ranks = RankAssignment(given)
    alpha = {"v1": 1.2, "u1": 1.8}
    shares = DualShares(alpha=alpha)
    given["v1"] = 0.5
    alpha["u1"] = 0.0
    assert ranks.ranks == {"v1": 0.25, "u1": 0.75}
    assert shares.alpha == {"v1": 1.2, "u1": 1.8}


def test_pickle_round_trip():
    inst = build_instance([("v1", 1 / 3), ("v2", 2.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v2"])])
    assert inst.adjacency.any()         # builds the lazy edge matrix first
    assert inst.has_edge("u2", "v2")
    ranks = sample_ranks(inst, 8)
    shares = DualShares(alpha={"v1": 0.1, "v2": 0.0, "u1": 0.2, "u2": 0.0})
    for obj in (inst, ranks, shares):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and back is not obj
    back = pickle.loads(pickle.dumps(inst))
    assert back.weights == inst.weights and back.neighbors == inst.neighbors
    assert back.offline_ids == inst.offline_ids and back.online_ids == inst.online_ids
    assert back.adjacency.tolist() == inst.adjacency.tolist()


def test_adjacency_is_a_read_only_cached_edge_matrix():
    inst = build_instance([("v1", 1.0), ("v2", 0.0), ("v3", 2.0)],
                          [("u1", ["v3", "v1"]), ("u2", []), ("u3", ["v2"])])
    adj = inst.adjacency
    assert adj.dtype == bool and adj.shape == (3, 3)
    for i, u in enumerate(inst.online_ids):
        for j, v in enumerate(inst.offline_ids):
            assert adj[i, j] == (v in inst.neighbors[u])
    assert inst.adjacency is adj
    with pytest.raises(ValueError):
        adj[1, 1] = True
    assert not adj[1].any()
    back = pickle.loads(pickle.dumps(inst))
    assert np.array_equal(back.adjacency, adj) and not back.adjacency.flags.writeable
    assert build_instance([], [("u1", [])]).adjacency.shape == (1, 0)
