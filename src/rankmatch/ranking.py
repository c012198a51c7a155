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
lane per assignment, in lockstep with numpy; its callers hand it blocks of
at most lane_block(rows) lanes. run_lanes puts each lane's offline vertices
in rank order once, so that every choice is the first maximum; PairSweep
in analysis applies the rule to u's single step itself, over rows in id
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    (math.inf when it ends unmatched). arrivals is empty when the run was
    made with collect_offers=False.
    """

    arrivals: tuple[ArrivalRecord, ...]
    match_time: dict[str, float]

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


def run_lanes(instance: Instance, order: np.ndarray, off_ranks: np.ndarray,
              on_offer: np.ndarray, off_offer: np.ndarray,
              free: np.ndarray) -> np.ndarray:
    """run_ranking over T lanes at once; lanes are columns.

    order is the (k, T) arrival order: order[i, t] is the online index
    arriving i-th in lane t, by arrival time, then id (a stable argsort of
    the id-ordered arrival times gives it). It may leave online vertices
    out; those never arrive. on_offer is the (online, T) array of the
    arrivals' offer parts b(y_u); off_ranks and off_offer are (offline, T)
    arrays of offline ranks and their offer parts a(y_v), and free is
    the (offline, T) mask of offline vertices still free at the start
    (copied, never written back). Rows follow the instance's id order.
    Every offer w_v * (a + b) must be >= 0, as it is for every GainSpec.
    Each lane follows run_ranking's rules: offer ties go to the smaller
    offline rank, then the smaller id. Returns the (online, T) array of
    the offline index each online vertex took, -1 if none.

    Inside, a lane is a row and its offline vertices are columns in rank
    order (a stable argsort, so equal ranks stay in id order), so the rule's
    choice is the first maximum of the offers. Each step gathers the
    arrivals' rows of instance.adjacency and puts them in rank order with
    one index, fixed per call; and'ed with free, they are the candidates.
    When every offline weight is equal and a is non-increasing along every
    lane's rank order, the choice is the first candidate, and no offer is
    computed: float + b and * w (w >= 0) are monotone, so no later
    candidate offers more, and the tie rule picks the first. The flag is
    read off the data, not off the spec. Otherwise a non-candidate (not
    adjacent, or gone) offers -1: below every candidate, even one offering
    0, so the first maximum is a candidate whenever there is one.
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
    by_rank = np.argsort(off_ranks.T, axis=1, kind="stable")
    at = by_rank * n_lanes
    at += lanes[:, None]
    a = np.take(off_offer, at)
    free = np.take(free, at)
    row_start = lanes * n_off
    cells = by_rank + row_start[:, None]
    weights = [w for _, w in instance.offline]
    by_order = len(set(weights)) == 1 and (a[:, 1:] <= a[:, :-1]).all()
    w = np.array(weights, dtype=float)[by_rank]
    arriving = on_offer[order, lanes][:, :, None]
    rows = np.empty((n_lanes, n_off), dtype=bool)
    cand = np.empty((n_lanes, n_off), dtype=bool)
    not_cand = np.empty((n_lanes, n_off), dtype=bool)
    offers = np.empty((n_lanes, n_off))
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
