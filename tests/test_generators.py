import hashlib
import json

import numpy as np
import pytest

from rankmatch.generators import GeneratorError, generate_instance, random_instance


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
