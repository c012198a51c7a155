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
