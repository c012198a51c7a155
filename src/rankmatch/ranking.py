"""Deterministic simulation of weighted ranking for one rank assignment.

Online vertices are processed in increasing arrival time. Each arrival u
sees an offer w_v * (a(y_v) + b(y_u)) = w_v * (1 - share(y_v, y_u)) from
every still-unmatched neighbor v (the spec's additive offer split) and
takes the highest offer; offers never go negative, so an arrival with at
least one unmatched neighbor always matches. Offer ties
(measure zero under continuous ranks, but reachable once a share curve
saturates) break toward the smaller offline rank, then the smaller id.

run_ranking is the scalar engine: one run, with an optional arrival trace.
run_lanes runs the same rules over many rank assignments at once, one
lane per assignment, in lockstep with numpy; it takes the spec, as
run_ranking does, and its callers hand it blocks of at most
lane_block(rows) lanes. run_lanes puts each lane's offline vertices in
rank order once (stable_argsort: numpy's stable argsort, by its faster
default sort when no two ranks in a row tie), so that every choice is the
first maximum. On equal weights, under a spec whose a never rises with y
(GainSpec.rank_offer_non_increasing), every lane is plain Ranking, the
first free neighbour by rank, and run_lanes evaluates no offer part at
all. PairSweep in analysis applies the rule to u's single step itself,
over rows in id order.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .core import DualShares, Instance, MatchingResult, RankAssignment, matching_result
from .gains import GainSpec

UNMATCHED = math.inf

# lanes per block of a run_lanes caller, and array cells (lanes x instance
# rows) per block: they bound a block's working set
LANE_BLOCK = 8192
CELL_BLOCK = 8 * LANE_BLOCK


@dataclass(frozen=True)
class ArrivalRecord:
    """One arrival: the offers it saw and the neighbor it took."""

    online_id: str
    arrival_rank: float
    offers: tuple[tuple[str, float], ...]  # (offline id, offered value), id order
    chosen: str | None


@dataclass(frozen=True)
class SimulationTrace:
    """Arrival-by-arrival record of one ranking run.

    match_time maps every offline id to the arrival rank of its partner
    (math.inf when it ends unmatched); it is a read-only copy of the
    mapping passed in. arrivals is empty when the run was made with
    collect_offers=False.
    """

    arrivals: tuple[ArrivalRecord, ...]
    match_time: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "match_time", MappingProxyType(dict(self.match_time)))

    def __reduce__(self):
        return SimulationTrace, (self.arrivals, dict(self.match_time))

    def to_json_lines(self) -> str:
        """One JSON object per arrival: online id, rank, offers, choice."""
        lines = []
        for rec in self.arrivals:
            lines.append(json.dumps({
                "online": rec.online_id,
                "arrival_rank": rec.arrival_rank,
                "offers": [[v, o] for v, o in rec.offers],
                "chosen": rec.chosen,
            }, sort_keys=True))
        return "\n".join(lines)


def run_ranking(instance: Instance, spec: GainSpec, ranks: RankAssignment,
                collect_offers: bool = True) -> tuple[MatchingResult, SimulationTrace]:
    """Simulate one run; pure function of its inputs.

    The per-arrival scan over unmatched neighbors is linear; at desk scale
    no priority structure is worth the bookkeeping.
    """
    rank_of = ranks.ranks
    offline_ids = instance.offline_ids
    weights = instance.weights
    parts = spec.offer_parts_scalar
    # the offline part of every offer is fixed for the whole run
    a_of = {v: parts(rank_of[v])[0] for v in offline_ids}

    order = sorted(instance.online_ids, key=lambda u: (rank_of[u], u))
    unmatched = set(offline_ids)
    pairs: list[tuple[str, str]] = []
    match_time = {v: UNMATCHED for v in offline_ids}
    records: list[ArrivalRecord] = []

    for u in order:
        y_u = rank_of[u]
        b_u = parts(y_u)[1]
        best_v: str | None = None
        best_o = -1.0
        best_r = math.inf
        offers: list[tuple[str, float]] = []
        for v in instance.neighbors[u]:
            if v not in unmatched:
                continue
            o = weights[v] * (a_of[v] + b_u)
            if collect_offers:
                offers.append((v, o))
            # maximize the offer, then prefer the smaller offline rank, then id
            if (best_v is None or o > best_o
                    or (o == best_o and (rank_of[v], v) < (best_r, best_v))):
                best_v, best_o, best_r = v, o, rank_of[v]
        if best_v is not None:
            unmatched.discard(best_v)
            pairs.append((u, best_v))
            match_time[best_v] = y_u
        if collect_offers:
            records.append(ArrivalRecord(online_id=u, arrival_rank=y_u,
                                         offers=tuple(offers), chosen=best_v))

    result = matching_result(instance, pairs)
    return result, SimulationTrace(arrivals=tuple(records), match_time=match_time)


def run_lanes(instance: Instance, spec: GainSpec, ranks: np.ndarray,
              order: np.ndarray, free: np.ndarray) -> np.ndarray:
    """run_ranking over T lanes at once; lanes are columns.

    ranks is the (offline + online, T) array of every vertex's rank or
    arrival time, rows in instance.all_ids() order (offline first), as
    rank_draws lays out one lane. order is the (k, T) arrival order:
    order[i, t] is the online index arriving i-th in lane t, by arrival
    time, then id (a stable argsort of the id-ordered arrival times gives
    it). It may leave online vertices out; those never arrive. free is the
    (offline, T) mask of offline vertices still free at the start (copied,
    never written back). Each lane follows run_ranking's rules: offer ties
    go to the smaller offline rank, then the smaller id. Returns the
    (online, T) array of the offline index each online vertex took, -1 if
    none.

    Inside, a lane is a row and its offline vertices are columns in rank
    order (stable_argsort, so equal ranks stay in id order), so the rule's
    choice is the first maximum of the offers. Each step gathers the
    arrivals' rows of instance.adjacency and puts them in rank order with
    one index, fixed per call; and'ed with free, they are the candidates.
    When every offline weight is equal and the spec's a never rises with y
    (spec.rank_offer_non_increasing), the choice is the first candidate,
    and no offer part is evaluated: float + b and * w (w >= 0) are
    monotone, so no later candidate offers more, and the tie rule picks
    the first. Otherwise one spec.offer_parts call over ranks gives a from
    the offline rows and b from the online rows, bit for bit run_ranking's
    parts, and a non-candidate (not adjacent, or gone) offers -1: below
    every candidate, even one offering 0 (no GainSpec offers less), so the
    first maximum is a candidate whenever there is one.
    """
    n_on, n_lanes = len(instance.online), order.shape[1]
    n_off = len(instance.offline)
    partner = np.full((n_on, n_lanes), -1, dtype=np.intp)
    if n_off == 0:
        return partner
    adjacency = instance.adjacency
    lanes = np.arange(n_lanes)
    # (T, n_off) arrays in each lane's rank order; at holds each cell's
    # flat index into the (n_off, T) inputs, cells into a step's rows
    by_rank = stable_argsort(ranks[:n_off].T)
    at = by_rank * n_lanes
    at += lanes[:, None]
    free = np.take(free, at)
    row_start = lanes * n_off
    cells = by_rank + row_start[:, None]
    weights = [w for _, w in instance.offline]
    by_order = spec.rank_offer_non_increasing and len(set(weights)) == 1
    if by_order:
        arriving = repeat(None)
    else:
        a, b = spec.offer_parts(ranks)
        a = np.take(a[:n_off], at)
        w = np.array(weights, dtype=float)[by_rank]
        arriving = b[n_off:][order, lanes][:, :, None]
        offers = np.empty((n_lanes, n_off))
        not_cand = np.empty((n_lanes, n_off), dtype=bool)
    rows = np.empty((n_lanes, n_off), dtype=bool)
    cand = np.empty((n_lanes, n_off), dtype=bool)
    for j, b in zip(order, arriving):
        # take gathers two to three times faster than fancy indexing here
        adjacency.take(j, axis=0, out=rows)
        rows.take(cells, out=cand)
        cand &= free
        if by_order:
            top = cand.argmax(axis=1)
        else:
            np.add(a, b, out=offers)
            offers *= w
            offers *= cand
            offers -= np.logical_not(cand, out=not_cand)
            top = offers.argmax(axis=1)
        top += row_start
        hit = np.flatnonzero(cand.take(top))
        cell = top[hit]
        partner[j[hit], hit] = by_rank.take(cell)
        free.flat[cell] = False
    return partner


def stable_argsort(x: np.ndarray) -> np.ndarray:
    """np.argsort(x, axis=1, kind="stable"), exactly. When every sorted row
    is strictly increasing, no two keys tie and every sort orders them
    alike, so numpy's default sort, about five times faster on 53-bit
    random keys, gives it; ties, -0.0 against 0.0 and NaN all fail that
    check and take the stable sort."""
    s = np.sort(x, axis=1)
    if (s[:, 1:] > s[:, :-1]).all():
        return np.argsort(x, axis=1)
    return np.argsort(x, axis=1, kind="stable")


def lane_block(rows: int) -> int:
    """Lanes per block for an instance whose larger side has `rows` >= 1
    rows: at most LANE_BLOCK lanes and CELL_BLOCK cells, and at least one
    lane."""
    return max(1, min(LANE_BLOCK, CELL_BLOCK // rows))


def assign_duals(instance: Instance, result: MatchingResult, spec: GainSpec,
                 ranks: RankAssignment) -> DualShares:
    """Split each matched edge's weight into the two endpoint gains.

    The offline endpoint keeps w_v * share(y_v, y_u); the online endpoint
    gets the complement w_v - that, which equals w_v * share(y_u, y_v) for
    weight-splitting specs and is the static-price utility for the
    adversarial baseline. Computing the online share as the complement keeps
    every pair's accounting identity exact. Unmatched vertices get zero.
    """
    rank_of = ranks.ranks
    weights = instance.weights
    alpha = {vid: 0.0 for vid in instance.all_ids()}
    for u, v in result.pairs:
        w = weights[v]
        share_v = w * spec.share_scalar(rank_of[v], rank_of[u])
        alpha[v] = share_v
        alpha[u] = w - share_v
    return DualShares(alpha=alpha)
