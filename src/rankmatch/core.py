"""Core domain types: instances, rank assignments, matchings, dual shares.

No algorithmic logic lives here, only validated immutable data, its JSON
round-trips and the rank streams of a seed (rank_draws, and its batched
form trial_rank_draws, which runs numpy's SeedSequence hash itself). Ids
are opaque strings; every deterministic iteration in the package walks
vertices in lexicographic id order so downstream tie-breaking is
reproducible. The mappings these types expose (`Instance.weights`,
`Instance.neighbors`, `RankAssignment.ranks`, `DualShares.alpha`) are
read-only views built at construction, and every type pickles.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .numerics import as_array, as_entry, as_id, as_object, as_real, is_object


# relative accounting slack of check_dual_shares
DUAL_SHARE_TOL = 1e-12


class InstanceError(ValueError):
    """Malformed instance description."""


class RankError(ValueError):
    """Malformed rank assignment."""


@dataclass(frozen=True)
class Instance:
    """A bipartite instance: weighted offline vertices, online adjacency.

    offline: ((id, weight), ...) sorted by id; weights are finite and
    non-negative. online: ((id, neighbor_ids), ...) sorted by id; neighbor
    tuples are sorted, unique and only reference offline ids, so the edge
    set is bipartite by construction. The constructor trusts its caller to
    pass this canonical form; `validate_instance` and `build_instance`
    produce it from outside data.

    The views offline_ids, online_ids, weights (id -> weight) and neighbors
    (online id -> neighbor tuple) are built once, at construction; weights
    and neighbors are read-only mappings. adjacency is built on first use.
    Instances are immutable, pickle, and are safe to share across workers.
    """

    offline: tuple[tuple[str, float], ...]
    online: tuple[tuple[str, tuple[str, ...]], ...]
    offline_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    online_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    weights: Mapping[str, float] = field(init=False, repr=False, compare=False)
    neighbors: Mapping[str, tuple[str, ...]] = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self):
        set_view = object.__setattr__
        set_view(self, "offline_ids", tuple([v for v, _ in self.offline]))
        set_view(self, "online_ids", tuple([u for u, _ in self.online]))
        set_view(self, "weights", MappingProxyType(dict(self.offline)))
        set_view(self, "neighbors", MappingProxyType(dict(self.online)))

    def __reduce__(self):
        # a mappingproxy does not pickle; the views are rebuilt on load
        return Instance, (self.offline, self.online)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only bool (online x offline) edge matrix, both in id order."""
        col = {v: i for i, v in enumerate(self.offline_ids)}
        nbrs = self.neighbors.values()
        adj = np.zeros((len(nbrs), len(col)), dtype=bool)
        # one flat index per edge: its column, plus its row's start
        flat = np.fromiter(map(col.__getitem__, chain.from_iterable(nbrs)), dtype=np.intp)
        flat += np.repeat(np.arange(len(nbrs)) * len(col), [len(nbs) for nbs in nbrs])
        adj.ravel()[flat] = True
        adj.flags.writeable = False
        return adj

    def has_edge(self, online_id: str, offline_id: str) -> bool:
        return offline_id in self.neighbors.get(online_id, ())

    def all_ids(self) -> tuple[str, ...]:
        return self.offline_ids + self.online_ids

    def to_json_dict(self) -> dict:
        return {
            "offline": [{"id": v, "weight": w} for v, w in self.offline],
            "online": [{"id": u, "neighbors": list(nbs)} for u, nbs in self.online],
        }


def validate_instance(raw: Mapping) -> Instance:
    """Build an Instance from {"offline": [...], "online": [...]} data.

    Raises InstanceError naming the offending id on duplicate ids, unknown
    neighbor ids, or negative weights, naming the entry when one is
    malformed, and naming any key the instance or an entry does not read.
    Zero weights are allowed; a zero weight vertex contributes nothing but
    may still absorb a match.
    """
    raw = as_object(raw, ("offline", "online"), InstanceError, "an instance")
    sides = {}
    for key in ("offline", "online"):
        try:
            sides[key] = as_array(raw.get(key, []))
        except TypeError:
            raise InstanceError(f"{key} must be a list of entries, got {raw[key]!r}") from None

    seen: set[str] = set()
    offline = []
    for entry in sides["offline"]:
        vid, weight = as_entry(entry, "weight", as_real, InstanceError, "offline entry")
        if vid in seen:
            raise InstanceError(f"duplicate id {vid}")
        seen.add(vid)
        if not math.isfinite(weight):
            raise InstanceError(f"non-finite weight {vid}")
        if weight < 0.0:
            raise InstanceError(f"negative weight {vid}")
        offline.append((vid, weight))
    offline.sort(key=lambda p: p[0])
    offline_ids = {v for v, _ in offline}

    online = []
    for entry in sides["online"]:
        uid, nbs = as_entry(entry, "neighbors", lambda ns: [as_id(n) for n in as_array(ns)],
                            InstanceError, "online entry")
        if uid in seen:
            raise InstanceError(f"duplicate id {uid}")
        seen.add(uid)
        for n in nbs:
            if n not in offline_ids:
                raise InstanceError(f"unknown neighbor {n}")
        online.append((uid, tuple(sorted(set(nbs)))))
    online.sort(key=lambda p: p[0])

    return Instance(offline=tuple(offline), online=tuple(online))


def build_instance(offline: Iterable[tuple[str, float]],
                   online: Iterable[tuple[str, Iterable[str]]]) -> Instance:
    """Convenience constructor from (id, weight) and (id, neighbors) pairs."""
    return validate_instance({"offline": [(v, w) for v, w in offline],
                              "online": [(u, list(nbs)) for u, nbs in online]})


@dataclass(frozen=True)
class RankAssignment:
    """Rank (offline) or arrival time (online) for every vertex, in [0, 1].

    ranks is a read-only copy of the mapping passed in, so the assignment
    is immutable and pickles. Construction only range-checks; coverage and
    distinctness are enforced by validate_rank_assignment, the entry point
    for user-supplied assignments. Internally derived assignments (grid
    sweeps overriding two ranks) skip the distinctness check because equal
    ranks across the two sides are harmless: arrival order ties break by id
    and offer ties break by (rank, id).
    """

    ranks: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "ranks", MappingProxyType(dict(self.ranks)))
        for vid, r in self.ranks.items():
            if not (0.0 <= r <= 1.0):
                raise RankError(f"rank of {vid} outside [0, 1]: {r}")

    def __reduce__(self):
        return RankAssignment, (dict(self.ranks),)

    def override(self, changes: Mapping[str, float]) -> "RankAssignment":
        """New assignment with some ranks replaced (no distinctness check)."""
        ranks = dict(self.ranks)
        ranks.update(changes)
        return RankAssignment(ranks)


def validate_rank_assignment(instance: Instance, raw: Mapping) -> RankAssignment:
    """Validate coverage, range and pairwise distinctness of user ranks.

    raw maps ids to ranks, or is {"ranks": <that mapping>} and no other key:
    a "ranks" key is the wrapper unless it is a vertex id holding no object.
    Raises RankError naming the entry when ranks is not a mapping or a rank
    is not a number.
    """
    ids = instance.all_ids()
    ranks = raw
    if is_object(raw) and "ranks" in raw and (is_object(raw["ranks"]) or "ranks" not in ids):
        ranks = as_object(raw, ("ranks",), RankError, "a rank wrapper")["ranks"]
    if not is_object(ranks):
        raise RankError(f"ranks must map vertex ids to numbers, got {ranks!r}")
    missing = [i for i in ids if i not in ranks]
    if missing:
        raise RankError(f"missing rank for {missing[0]}")
    known = set(ids)
    extra = [i for i in ranks if i not in known]
    if extra:
        raise RankError(f"rank for unknown vertex {sorted(extra)[0]}")
    by_value: dict[float, str] = {}
    for vid in ids:
        try:
            r = as_real(ranks[vid])
        except TypeError:
            raise RankError(f"malformed rank for {vid}: {ranks[vid]!r}") from None
        if r in by_value:
            raise RankError(f"tied ranks for {by_value[r]} and {vid}: {r}")
        by_value[r] = vid
    return RankAssignment({vid: r for r, vid in by_value.items()})


def rank_draws(instance: Instance, seed) -> np.ndarray:
    """The rank stream of (instance, seed): one uniform [0, 1) draw per
    vertex, in all_ids() order (offline first), from a PCG64 stream seeded
    with seed. seed may be an int or a tuple of ints (stream splitting for
    trials), or a numpy Generator, which is drawn from (and advanced)
    directly. Draws carry 53 bits, so ties effectively never occur.

    This is the reference form, one stream per call, through numpy's own
    SeedSequence; trial_rank_draws is the batched form of the per-trial
    streams (seed, t).
    """
    return np.random.default_rng(seed).random(len(instance.offline) + len(instance.online))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the pool size, the
# hash constants and the shift of its 32-bit hash and mix steps
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _entropy_words(seed) -> list[int]:
    """The uint32 entropy words SeedSequence reads from seed, an int or an
    array of ints: an int's 32-bit words, least significant first (0 is one
    word); an array's in order. ValueError on a negative int, TypeError on
    anything else."""
    try:
        n = operator.index(seed)
    except TypeError:
        return [w for part in as_array(seed) for w in _entropy_words(part)]
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for every column e of the
    (words, T) uint32 entropy, as a C-contiguous (T, 4) array.

    numpy's algorithm, run over the column axis: the hash constants step as
    Python ints, which do not depend on the data, and the data are uint32
    arrays, whose arithmetic wraps mod 2**32 as numpy's C code does.
    """
    const = _INIT_A

    def hashmix(x):
        nonlocal const
        x = x ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        x *= np.uint32(const)
        x ^= x >> _XSHIFT
        return x

    def mix(x, y):
        x = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        x ^= x >> _XSHIFT
        return x

    # the pool takes the first 4 words, padded with zeros, then mixes
    # every word into every other, then folds in any further words
    start = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    start[:len(entropy)] = entropy[:_POOL]
    pool = [hashmix(word) for word in start]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 words from the cycled pool, each hashed with its
    # own step of the constant, paired low word first
    consts = [_INIT_B]
    for _ in range(8):
        consts.append(consts[-1] * _MULT_B & _MASK32)
    consts = np.array(consts, np.uint32)[:, None]
    words = np.array(pool * 2)
    words ^= consts[:-1]
    words *= consts[1:]
    words ^= words >> _XSHIFT
    wide = words.astype(np.uint64)
    return (wide[0::2] | wide[1::2] << 32).T.copy()


def _trial_states(seed, trials) -> np.ndarray:
    """Row k is np.random.SeedSequence((seed, trials[k])).generate_state(4,
    np.uint64), the state PCG64 takes from default_rng((seed, trials[k])),
    bit for bit. seed is as for _entropy_words; a trial is an int in
    [0, 2**64), one or two entropy words, and any other trial raises
    TypeError or OverflowError."""
    head = _entropy_words(seed)
    t = np.array([operator.index(x) for x in trials], dtype=np.uint64)
    lo, hi = t & _MASK32, t >> 32
    states = np.empty((len(t), 4), np.uint64)
    # a trial's word count sets its entropy's length and so the hash's
    # steps: one-word and two-word trials hash as two batches
    for rows, tail in ((hi == 0, (lo,)), (hi != 0, (lo, hi))):
        if rows.any():
            entropy = np.empty((len(head) + len(tail), np.count_nonzero(rows)), np.uint32)
            entropy[:len(head)] = np.array(head, np.uint32)[:, None]
            entropy[len(head):] = [words[rows] for words in tail]
            states[rows] = _seed_states(entropy)
    return states


def trial_rank_draws(instance: Instance, seed, trials) -> np.ndarray:
    """The rank streams of a block of trials: a (len(trials), n) array whose
    row k is rank_draws(instance, (seed, trials[k])), bit for bit.

    This is the batched form of rank_draws: the SeedSequence hash of every
    stream runs at once (_trial_states), and each trial still gets its
    own PCG64 generator, seeded and drawn by numpy, so any trial replays
    alone through rank_draws or sample_ranks.
    """
    # numpy.random loads on first use, as under default_rng: importing it
    # with core would cost every process about 6 MB, bounds runs included
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        """Hands PCG64 one stream's state, computed ahead, in place of the
        SeedSequence it would otherwise build and hash."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads 4 uint64 words at construction; any other request
            # would get words no SeedSequence gives
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a preset seed holds 4 uint64 words, not {n_words} {dtype}")
            return self.state

    states = _trial_states(seed, trials)
    draws = np.empty((len(states), len(instance.offline) + len(instance.online)))
    for row, state in zip(draws, states):
        np.random.Generator(np.random.PCG64(PresetSeed(state))).random(out=row)
    return draws


def sample_ranks(instance: Instance, seed) -> RankAssignment:
    """Independent uniform [0, 1] ranks for every vertex: rank_draws(instance,
    seed) by id. The Monte-Carlo trials draw the same streams as arrays."""
    return RankAssignment(dict(zip(instance.all_ids(), rank_draws(instance, seed).tolist())))


@dataclass(frozen=True)
class MatchingResult:
    """A matching in arrival order plus per-side matched sets.

    total_weight is the sum of matched offline weights; every online and
    offline id occurs at most once across pairs.
    """

    pairs: tuple[tuple[str, str], ...]
    matched_online: frozenset[str]
    matched_offline: frozenset[str]
    total_weight: float


def matching_result(instance: Instance, pairs: Iterable[tuple[str, str]]) -> MatchingResult:
    """Validated MatchingResult from (online, offline) pairs."""
    pairs = tuple(pairs)
    m_on = [u for u, _ in pairs]
    m_off = [v for _, v in pairs]
    if len(set(m_on)) != len(m_on):
        raise InstanceError("online vertex matched twice")
    if len(set(m_off)) != len(m_off):
        raise InstanceError("offline vertex matched twice")
    weights = instance.weights
    for u, v in pairs:
        if not instance.has_edge(u, v):
            raise InstanceError(f"pair ({u}, {v}) is not an edge")
    total = math.fsum(weights[v] for v in m_off)
    return MatchingResult(pairs=pairs, matched_online=frozenset(m_on),
                          matched_offline=frozenset(m_off), total_weight=total)


@dataclass(frozen=True)
class DualShares:
    """Per-vertex gain split of a matching: alpha[id] for every vertex.

    Unmatched vertices hold exactly zero; within each matched pair the two
    shares sum to the full edge weight. alpha is a read-only copy of the
    mapping passed in.
    """

    alpha: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "alpha", MappingProxyType(dict(self.alpha)))

    def __reduce__(self):
        return DualShares, (dict(self.alpha),)

    def total(self) -> float:
        return math.fsum(self.alpha.values())


def check_dual_shares(instance: Instance, result: MatchingResult,
                      shares: DualShares) -> None:
    """Assert the accounting identities of a DualShares against its matching.

    Raises AssertionError on: a missing vertex, a nonzero share on an
    unmatched vertex, a pair whose shares do not sum to its weight (within
    DUAL_SHARE_TOL relative to the weight scale), or a grand total drifting
    from the matching's total weight by more than DUAL_SHARE_TOL.
    """
    alpha = shares.alpha
    matched = result.matched_online | result.matched_offline
    for vid in instance.all_ids():
        assert vid in alpha, f"missing dual share for {vid}"
        if vid not in matched:
            assert alpha[vid] == 0.0, f"unmatched {vid} has nonzero share"
        else:
            assert alpha[vid] >= 0.0, f"negative share for {vid}"
    weights = instance.weights
    for u, v in result.pairs:
        w = weights[v]
        assert abs((alpha[u] + alpha[v]) - w) <= DUAL_SHARE_TOL * max(1.0, w), \
            f"pair ({u}, {v}) shares {alpha[u]} + {alpha[v]} != weight {w}"
    assert (abs(shares.total() - result.total_weight)
            <= DUAL_SHARE_TOL * max(1.0, result.total_weight)), \
        f"share total {shares.total()} != matching weight {result.total_weight}"
