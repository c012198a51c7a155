import hashlib
import json

import numpy as np
import pytest

from rankmatch import generators
from rankmatch.core import validate_instance
from rankmatch.generators import (MAX_CELLS, GeneratorError, generate_instance,
                                  random_instance)


def test_complete_two_has_four_edges():
    inst = generate_instance("complete", {"n": 2}, 0)
    assert len(inst.edges) == 4
    assert all(w == 1.0 for _, w in inst.offline)


def test_upper_triangular_three():
    inst = generate_instance("upper_triangular", {"n": 3}, 0)
    assert len(inst.edges) == 6
    assert inst.neighbors["u1"] == ("v1", "v2", "v3")
    assert inst.neighbors["u2"] == ("v2", "v3")
    assert inst.neighbors["u3"] == ("v3",)


def test_random_deterministic_per_seed():
    a = generate_instance("random", {"n": 6, "p": 0.5}, 7)
    b = generate_instance("random", {"n": 6, "p": 0.5}, 7)
    assert a == b
    c = generate_instance("random", {"n": 6, "p": 0.5}, 8)
    assert a != c


def test_weighted_random_weights_in_range():
    inst = generate_instance("weighted_random", {"n": 20, "p": 0.3}, 1)
    for _, w in inst.offline:
        assert 0.1 <= w <= 10.0
    assert len({w for _, w in inst.offline}) > 1


def test_rectangular_sides():
    inst = generate_instance("random", {"n_online": 2, "n_offline": 5, "p": 1.0}, 0)
    assert len(inst.online) == 2
    assert len(inst.offline) == 5
    assert len(inst.edges) == 10


def test_id_padding_keeps_lexicographic_order():
    inst = generate_instance("upper_triangular", {"n": 12}, 0)
    ids = inst.online_ids
    assert ids == tuple(sorted(ids))
    assert ids[0] == "u01" and ids[-1] == "u12"


def test_invalid_params():
    with pytest.raises(GeneratorError):
        generate_instance("random", {"n": 0}, 0)
    with pytest.raises(GeneratorError):
        generate_instance("random", {"n": 3, "p": 1.5}, 0)
    with pytest.raises(GeneratorError):
        generate_instance("star", {"n": 3}, 0)
    with pytest.raises(GeneratorError):
        generate_instance("upper_triangular", {}, 0)


def test_random_instance_always_has_edges():
    rng = np.random.default_rng(0)
    for _ in range(50):
        inst = random_instance(rng)
        assert len(inst.edges) >= 1


def _digest(inst):
    text = json.dumps(inst.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_seeded_draws_are_pinned():
    # generate_instance and random_instance share one draw (weights, then
    # edges, then ids); these digests of the canonical JSON were taken
    # before the two were merged, so the same seeds give the same instances
    inst = generate_instance("weighted_random", {"n_online": 2, "n_offline": 2, "p": 0.5}, 3)
    assert inst.to_json_dict() == {
        "offline": [{"id": "v1", "weight": 0.14835368361121182},
                    {"id": "v2", "weight": 0.297591836269688}],
        "online": [{"id": "u1", "neighbors": []}, {"id": "u2", "neighbors": ["v1", "v2"]}]}
    assert [_digest(generate_instance("random", {"n": 5, "p": 0.5}, seed))
            for seed in (0, 1, 2)] == ["1f8eac30968844e6", "030db614747fb701",
                                       "05314f68c8a2735d"]
    params = {"n_online": 3, "n_offline": 6, "p": 0.4}
    assert [_digest(generate_instance("weighted_random", params, seed))
            for seed in (0, 1, 2)] == ["32b34f6df6d70118", "3ffb8b5695a16f5b",
                                       "0e24c253e097a1dd"]
    rng = np.random.default_rng(7)
    assert [_digest(random_instance(rng, weighted=w, min_edges=m))
            for w, m in ((True, 1), (False, 1), (True, 0), (False, 0), (True, 5))] == [
        "da01cf37d62270bf", "10221144f44230dd", "a026d57fb3357b37",
        "3c6e884e1d345006", "d1d4e2553b5f7f19"]
    # at most 9 possible edges, so most draws are redrawn
    assert _digest(random_instance(rng, max_side=3, min_edges=7)) == "08a745a7ff4dd135"


def _generated():
    """Instances of every generator kind and shape, with one- and two-digit
    ids, and many random_instance draws, weighted and unweighted."""
    for n in (1, 3, 9, 10, 12, 23):
        yield generate_instance("complete", {"n": n}, 0)
        yield generate_instance("upper_triangular", {"n": n}, 0)
    for kind in ("random", "weighted_random"):
        for params in ({"n": 4}, {"n": 11, "p": 0.3}, {"n_online": 2, "n_offline": 12},
                       {"n_online": 13, "n_offline": 3, "p": 0.8}, {"n": 10, "p": 0.0}):
            for seed in range(3):
                yield generate_instance(kind, params, seed)
    yield generate_instance("complete", {"n_online": 3, "n_offline": 10}, 0)
    rng = np.random.default_rng(11)
    for i in range(300):
        yield random_instance(rng, max_side=12 if i % 4 == 0 else 6,
                              weighted=i % 2 == 0)


def test_generated_instances_are_canonical():
    # generators build Instance directly; the result must be exactly what
    # validate_instance makes of the same data, views included
    for inst in _generated():
        assert validate_instance(json.loads(json.dumps(inst.to_json_dict()))) == inst
        assert all(type(v) is str and type(w) is float for v, w in inst.offline)
        assert inst.offline_ids == tuple(v for v, _ in inst.offline)
        assert inst.online_ids == tuple(u for u, _ in inst.online)
        assert inst.weights == dict(inst.offline)
        assert inst.neighbors == dict(inst.online)
        assert inst.edges == {(u, v) for u, nbs in inst.online for v in nbs}


class _NoDraws:
    """An rng stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the rng ({name}) before checking arguments")


def test_random_instance_rejects_impossible_edge_counts():
    # one cell cannot hold two edges: without the check this redraws forever
    with pytest.raises(GeneratorError, match="min_edges = 2.*max_side = 1"):
        random_instance(_NoDraws(), max_side=1, min_edges=2)
    with pytest.raises(GeneratorError, match="min_edges = 10"):
        random_instance(_NoDraws(), max_side=3, min_edges=10)


def test_random_instance_gives_up_on_an_improbable_edge_count():
    # 36 edges are reachable at max_side = 6, but a draw has them with
    # probability 2^-36 / 36; without the cap this redraws for months
    rng = np.random.default_rng(0)
    with pytest.raises(GeneratorError, match=f"min_edges = 36 with max_side = 6 "
                                             f"in {generators.MAX_DRAWS} draws"):
        random_instance(rng, max_side=6, min_edges=36)


def test_random_instance_rejects_empty_sides():
    for side in (0, -2):
        with pytest.raises(GeneratorError, match=f"max_side >= 1, got {side}"):
            random_instance(_NoDraws(), max_side=side)


def test_size_cap_fails_before_allocating(monkeypatch):
    # any id list or random draw means the cap was checked too late
    def allocated(*args):
        raise AssertionError("allocated before checking the size cap")
    monkeypatch.setattr(generators, "_ids", allocated)
    monkeypatch.setattr(generators.np.random, "default_rng", allocated)
    for kind in ("complete", "upper_triangular", "random", "weighted_random"):
        with pytest.raises(GeneratorError, match="MAX_CELLS"):
            generate_instance(kind, {"n": 100_000}, 0)
    with pytest.raises(GeneratorError, match="MAX_CELLS"):
        generate_instance("random", {"n_online": 2, "n_offline": MAX_CELLS // 2 + 1}, 0)
    with pytest.raises(GeneratorError, match="MAX_CELLS"):
        random_instance(_NoDraws(), max_side=10**4)

