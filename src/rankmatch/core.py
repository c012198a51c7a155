"""Core domain types: instances, rank assignments, matchings, dual shares.

No algorithmic logic lives here, only validated immutable data and its JSON
round-trips. Ids are opaque strings; every deterministic iteration in the
package walks vertices in lexicographic id order so downstream tie-breaking
is reproducible. The mappings these types expose (`Instance.weights`,
`Instance.neighbors`, `RankAssignment.ranks`, `DualShares.alpha`) are
read-only views built at construction, and every type pickles.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .numerics import as_real


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
    malformed, and naming any top-level key besides offline and online.
    Zero weights are allowed; a zero weight vertex contributes nothing but
    may still absorb a match.
    """
    if not isinstance(raw, Mapping):
        raise InstanceError("instance description must be a mapping")
    for key in raw:
        if key not in ("offline", "online"):
            raise InstanceError(f"an instance reads only offline and online, not {key!r}")
    offline_raw = raw.get("offline", [])
    online_raw = raw.get("online", [])
    for key, entries in (("offline", offline_raw), ("online", online_raw)):
        if not isinstance(entries, (list, tuple)):
            raise InstanceError(f"{key} must be a list of entries, got {entries!r}")

    seen: set[str] = set()
    offline = []
    for entry in offline_raw:
        vid, weight = _parse_offline(entry)
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
    for entry in online_raw:
        uid, nbs = _parse_online(entry)
        if uid in seen:
            raise InstanceError(f"duplicate id {uid}")
        seen.add(uid)
        for n in nbs:
            if n not in offline_ids:
                raise InstanceError(f"unknown neighbor {n}")
        online.append((uid, tuple(sorted(set(nbs)))))
    online.sort(key=lambda p: p[0])

    return Instance(offline=tuple(offline), online=tuple(online))


def _array(value) -> list | tuple:
    """value itself if it is a JSON array; a string is not read as one."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"not an array: {value!r}")
    return value


def _id(value) -> str:
    """value itself if it is a string; an id is never a number."""
    if not isinstance(value, str):
        raise TypeError(f"not an id: {value!r}")
    return value


def _parse_offline(entry) -> tuple[str, float]:
    try:
        vid, weight = ((entry["id"], entry["weight"]) if isinstance(entry, Mapping)
                       else _array(entry))
        return _id(vid), as_real(weight)
    except (KeyError, TypeError, ValueError):
        raise InstanceError(f"malformed offline entry {entry!r}: want "
                            '{"id": ..., "weight": ...} or [id, weight]') from None


def _parse_online(entry) -> tuple[str, list[str]]:
    try:
        uid, nbs = ((entry["id"], entry["neighbors"]) if isinstance(entry, Mapping)
                    else _array(entry))
        return _id(uid), [_id(n) for n in _array(nbs)]
    except (KeyError, TypeError, ValueError):
        raise InstanceError(f"malformed online entry {entry!r}: want "
                            '{"id": ..., "neighbors": [...]} or [id, neighbors]') from None


def build_instance(offline: Iterable[tuple[str, float]],
                   online: Iterable[tuple[str, Iterable[str]]]) -> Instance:
    """Convenience constructor from (id, weight) and (id, neighbors) pairs."""
    return validate_instance({
        "offline": [{"id": v, "weight": w} for v, w in offline],
        "online": [{"id": u, "neighbors": list(nbs)} for u, nbs in online],
    })


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

    Raises RankError naming the entry when ranks is not a mapping or a
    rank is not a number.
    """
    ranks = raw.get("ranks", raw) if isinstance(raw, Mapping) else raw
    if not isinstance(ranks, Mapping):
        raise RankError(f"ranks must map vertex ids to numbers, got {ranks!r}")
    ids = instance.all_ids()
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
    """
    return np.random.default_rng(seed).random(len(instance.offline) + len(instance.online))


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
