"""Per-edge analysis: vary one edge's two ranks with everything else fixed.

Fixing all ranks except those of one online vertex u and one offline
neighbor v, the run outcome as a function of (y_u, y_v) has a rigid
structure: for each arrival time y_u, the offline rank axis splits into
three intervals (v already matched when u arrives / v matched to u /
v unmatched right after u's arrival) delimited by thresholds beta(y_u) and
theta(y_u); (tau, gamma) is the corner of that split. Along either axis,
with the other rank fixed, the run changes only where two offers cross, at
a tie-breaking rank or arrival time, or at a curve kink, so the four
thresholds are piece ends read off one status per piece.
This module locates those thresholds and estimates the expected combined
gain of the pair over uniformly random (y_u, y_v) by midpoint quadrature.

Re-running the scalar simulation per grid cell would dominate everything,
so PairSweep lays the (y_u, y_v) values out as lanes. Once u has taken p,
the other arrivals run as they would without u and with p gone from the
start, and y_v moves that run only at the edge's shared cuts, so one table
of runs through ranking.run_lanes, keyed by the shared piece holding y_v
and the vertex gone (none, or one of u's neighbors other than v), answers
every lane. u's choice other than v depends on y_u and the key alone, so
it is made once per (y_u, key); only v's own offer and the split of the
gains are per lane. PairSweep.run takes lanes in any shape its inputs
broadcast to, and reads a zero-stride axis (a np.broadcast_to view) as one
value, so what depends on y_u or y_v alone costs one evaluation per value.
pair_gain makes one run over its grid_n x grid_n cells, passing full-shape
views of one midpoint column and one row: run does per-axis work on grid_n
values, and a caller that counts lanes by the inputs' size still sees one
per cell. PairSweep also hands out the edge's pieces: v_pieces along y_v
per arrival time (the shared cuts and u's own crossings), u_pieces along
y_u with v at rank one. compute_thresholds makes one run over flat lanes,
one per v piece of its grid; tau_gamma classifies the u pieces and the
shared ones with edge_status. Every lane follows run_ranking's rules,
ties included; the scalar path (vary_two_ranks, edge_status) stays the
reference, and tests cross-check the two.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .core import DualShares, Instance, MatchingResult, RankAssignment
from .gains import GainSpec
from .generators import MAX_CELLS
from .ranking import assign_duals, lane_block, run_lanes, run_ranking

MATCHED_BEFORE = 0
MATCHED_TO_U = 1
UNMATCHED_AFTER = 2


class AnalysisError(ValueError):
    """Bad analysis request (e.g. the probed pair is not an edge)."""


class ThreeIntervalError(AssertionError):
    """The matched-before / matched-to / unmatched-after pattern broke.

    Raised when the pieces of an axis do not split into contiguous intervals;
    this signals an engine bug (or a falsified structural property), so it
    is an assertion-level failure rather than an input error.
    """


def _rerun(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
           online_id: str, offline_id: str, y_u: float, y_v: float):
    """The scalar re-run behind both probes: only the edge's two ranks move."""
    if not instance.has_edge(online_id, offline_id):
        raise AnalysisError(f"({online_id}, {offline_id}) is not an edge")
    ranks = base_ranks.override({online_id: float(y_u), offline_id: float(y_v)})
    result, trace = run_ranking(instance, spec, ranks, collect_offers=False)
    return ranks, result, trace


def vary_two_ranks(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                   online_id: str, offline_id: str, y_u: float, y_v: float,
                   ) -> tuple[MatchingResult, DualShares]:
    """Re-run ranking with only the two edge ranks overridden (scalar path)."""
    ranks, result, _ = _rerun(instance, spec, base_ranks, online_id, offline_id, y_u, y_v)
    return result, assign_duals(instance, result, spec, ranks)


def edge_status(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                online_id: str, offline_id: str, y_u: float, y_v: float) -> int:
    """v's status around u's arrival for one (y_u, y_v): scalar reference."""
    _, result, trace = _rerun(instance, spec, base_ranks, online_id, offline_id, y_u, y_v)
    if (online_id, offline_id) in result.pairs:
        return MATCHED_TO_U
    if trace.match_time[offline_id] < y_u:
        return MATCHED_BEFORE
    return UNMATCHED_AFTER


@dataclass(frozen=True)
class SweepResult:
    """Per-lane outcome of a batched two-rank sweep, in the lane shape;
    PairSweep.run returns read-only arrays."""

    alpha_u: np.ndarray    # online endpoint's gain
    alpha_v: np.ndarray    # offline endpoint's gain
    status: np.ndarray     # MATCHED_BEFORE / MATCHED_TO_U / UNMATCHED_AFTER


class PairSweep:
    """Batched ranking runs where only one edge's two ranks vary.

    __init__ evaluates the spec once on the base ranks: a column of
    arrival times with their offer parts b, and a column of offline ranks
    with their offer parts a; it sorts the other online vertices into
    their arrival order and computes the shared pieces (ends, mids), the
    one cut list of the edge, which v_pieces, u_pieces and tau_gamma build
    on. A lane is one (y_u, y_v). run() rests on one fact: once u has
    taken p, the run of the other arrivals is their run in base order
    with p gone from the start and u never arriving. Before u, no arrival took p, and removing
    a vertex an arrival does not take leaves its choice as it was; after
    u, the free sets are equal. So every run depends only on (y_v, gone),
    gone being none or one of u's neighbors other than v, and on y_v only
    through the piece of the shared cuts that holds it: without u, y_v
    moves the run only where v's offer to an arrival j crosses a rival's,
    w_v (a(y_v) + b(y_j)) = w_q (a(y_q) + b(y_j)), at the rivals' ranks
    y_q, where tied offers go to the smaller rank, and at the curve kinks.
    A lane's key is its piece's midpoint, or y_v itself on a piece end; a
    run costs deg(u) table runs per distinct key:

    1. Table. For every distinct key and every gone, one run of the other
       arrivals without u. The gone = none runs give the arrival position
       at which each of u's neighbors is taken; every run gives v's
       partner.
    2. u's step, in two stages. Stage 1, per (y_u, key), v left out: u's
       choice r (the first top offer among u's neighbors free on arrival,
       by rank, then index; or none), u's gain from r, and v's partner
       (the table's at (key, r)) and status. Stage 2, per lane: u takes v
       instead where v is free and beats r's offer, or ties it and has
       (y_v, v) < (y_r, r). The gains come off the two partners, split
       exactly as assign_duals splits them.

    So every lane is the run vary_two_ranks makes. Lanes may form any
    shape (see run); what depends on one axis alone (the offer parts b(y_u)
    and a(y_v), u's arrival position, the key) is computed on that axis and
    broadcast, and stage 1 runs per y_u value and key, not per lane, where
    y_v varies along an axis on which y_u does not. A block (one run_lanes
    call, or a slice of stage 1's entries or of the lanes) has
    ranking.lane_block(rows) lanes at most.
    """

    def __init__(self, instance: Instance, spec: GainSpec,
                 base_ranks: RankAssignment, online_id: str, offline_id: str):
        if not instance.has_edge(online_id, offline_id):
            raise AnalysisError(f"({online_id}, {offline_id}) is not an edge")
        self.instance, self.spec, self.base_ranks = instance, spec, base_ranks
        self.u_idx = instance.online_ids.index(online_id)
        self.v_idx = instance.offline_ids.index(offline_id)
        self.w = np.array([w for _, w in instance.offline], dtype=float)
        rank_of = base_ranks.ranks
        self.y_on = np.array([rank_of[u] for u in instance.online_ids], dtype=float)
        self.y_off = np.array([rank_of[v] for v in instance.offline_ids], dtype=float)
        self.b_on = spec.offer_parts(self.y_on)[1]
        self.a_off = spec.offer_parts(self.y_off)[0]
        # the arrival order of the other online vertices, by rank then id
        rest = np.argsort(self.y_on, kind="stable")
        self.rest = rest[rest != self.u_idx]
        self.ranks_before = np.sort(self.y_on[:self.u_idx])
        self.ranks_after = np.sort(self.y_on[self.u_idx + 1:])
        # u's choices besides v: none, then u's other neighbors by base
        # rank, then index, so the first top offer is u's choice by the tie
        # rule; with offer part a, weight (0 for none) and the rank below
        # which v wins a tie, (y_v, v) < (y_r, r). v, whose rank varies, is
        # left out of this one sort: sorting by rank once per y_v value, as
        # run_lanes sorts each lane, cut pair-gain-corpus from 220 and 214
        # to 133 and 131 estimates/s (two paired 9-s runs, 2-vCPU host)
        adj = instance.adjacency
        r = np.array([-1] + sorted((q for q in np.flatnonzero(adj[self.u_idx]).tolist()
                                    if q != self.v_idx), key=lambda q: (self.y_off[q], q)))
        y_r = self.y_off[r]
        self.choices = (r, np.where(r >= 0, self.a_off[r], 0.0), np.where(r >= 0, self.w[r], 0.0),
                        np.where(r > self.v_idx, np.nextafter(y_r, np.inf), y_r))
        self.nbrs = np.append(r[1:], self.v_idx)     # table rows: the others, then v
        self.block = lane_block(max(self.y_on.size, self.w.size))
        # the shared cuts: the ranks of v's rivals (its other neighbors at
        # each arrival v neighbors, u included) and, at the others, v's
        # crossings with the rivals whose weight differs from v's (equal
        # weights cross at the rival's rank); u's crossings are its own cuts
        w_v = self.w[self.v_idx]
        rivals = adj & adj[:, [self.v_idx]]
        rivals[:, self.v_idx] = False
        q = np.nonzero(rivals)[1]
        rivals &= (self.w != w_v) & (w_v > 0.0)
        self.u_rivals = np.flatnonzero(rivals[self.u_idx])
        rivals[self.u_idx] = False
        j_x, q_x = np.nonzero(rivals)
        cuts = self.y_off[q].tolist() + self._crossings(self.b_on[j_x], q_x).tolist()
        self.ends, self.mids = map(np.array, _pieces(spec, cuts))

    def _crossings(self, b, q):
        """The y_v at which v's offer to an arrival of time part b crosses
        that of its rival q, w_v (a(y_v) + b) = w_q (a(y_q) + b), inverted
        at once; b and q broadcast."""
        return self.spec.offer_inverse(
            self.w[q] * (self.a_off[q] + b) / self.w[self.v_idx] - b, 0)

    def v_pieces(self, y_us) -> list[tuple[list[float], list[float]]]:
        """Per arrival time y in y_us, (ends, mids) of the pieces along
        y_v: the shared pieces, cut again where v's offer to u crosses a
        rival's."""
        b = self.spec.offer_parts(np.asarray(y_us, dtype=float))[1]
        ends = self.ends.tolist()
        return [_pieces(self.spec, ends + cuts)
                for cuts in self._crossings(b[:, None], self.u_rivals).tolist()]

    def u_pieces(self) -> tuple[list[float], list[float]]:
        """(ends, mids) of the pieces along y_u with v at rank one: y_u
        moves the run only where u passes another arrival, where the offers
        of two of u's neighbors q, s cross, w_q (a_q + b(y_u)) =
        w_s (a_s + b(y_u)), and at the curve kinks."""
        q = np.flatnonzero(self.instance.adjacency[self.u_idx])
        w = self.w[q]
        wa = w * np.where(q == self.v_idx, self.spec.offer_parts_scalar(1.0)[0], self.a_off[q])
        i, s = np.nonzero(np.triu(w[:, None] != w, 1))
        cuts = np.concatenate((self.ranks_before, self.ranks_after,
                               self.spec.offer_inverse((wa[s] - wa[i]) / (w[i] - w[s]), 1)))
        return _pieces(self.spec, cuts.tolist())

    def tau_gamma(self) -> tuple[float, float]:
        """(tau, gamma): the earliest arrival time whose theta is one (v at
        rank one no longer left unmatched), and beta at arrival time one,
        from one scalar edge_status call per piece. gamma reads the shared
        pieces alone: at arrival time one, whether v is matched before u is
        up to the others' run without u, which moves only at shared cuts."""
        edge = (self.instance, self.spec, self.base_ranks,
                self.instance.online_ids[self.u_idx], self.instance.offline_ids[self.v_idx])
        ends, mids = self.u_pieces()
        tau = _flip(ends, [edge_status(*edge, y, 1.0) == UNMATCHED_AFTER for y in mids],
                    "along y_u at y_v=1")
        gamma = _flip(self.ends.tolist(), [edge_status(*edge, 1.0, y) == MATCHED_BEFORE
                                           for y in self.mids.tolist()], "along y_v at y_u=1")
        return tau, gamma

    def _table(self, y_vs):
        """Step 1 over the distinct ranks y_vs of v: (taken, v_by).
        taken[j, d] is the arrival position among the others at which
        nbrs[j] is taken when v has rank y_vs[d], n_on - 1 if never;
        v_by[d, g + 1] is v's partner (an online index, -1 if none) when
        offline vertex g (one of u's other neighbors, never v) is gone, and
        v_by[d, 0] when none is."""
        n_on, n_off, n_vs = self.y_on.size, self.w.size, y_vs.size
        gone = np.append(self.nbrs[:-1], -1)
        taken = np.empty((self.nbrs.size, n_vs), dtype=np.intp)
        v_by = np.empty((n_vs, n_off + 1), dtype=np.intp)
        ranks = np.concatenate((self.y_off, self.y_on))
        for start in range(0, gone.size * n_vs, self.block):
            keys = np.arange(start, min(start + self.block, gone.size * n_vs))
            g, d = gone[keys // n_vs], keys % n_vs
            lanes = np.arange(keys.size)
            free = np.ones((n_off, keys.size), dtype=bool)
            free[g[g >= 0], lanes[g >= 0]] = False
            lane_ranks, order = (np.repeat(col[:, None], keys.size, axis=1)
                                 for col in (ranks, self.rest))
            lane_ranks[self.v_idx] = y_vs[d]
            partner = run_lanes(self.instance, self.spec, lane_ranks, order, free)
            # v has at most one partner per lane: a column of took_v is
            # one-hot or empty, and argmax finds the one
            took_v = partner == self.v_idx
            v_by[d, g + 1] = np.where(took_v.any(axis=0), took_v.argmax(axis=0), -1)
            none = np.flatnonzero(g < 0)
            at = np.full((n_off + 1, none.size), n_on - 1, dtype=np.intp)
            # a -1 partner (none) lands in the spare last row
            at[partner[self.rest][:, none], np.arange(none.size)] = np.arange(n_on - 1)[:, None]
            taken[:, d[none]] = at[self.nbrs]
        return taken, v_by

    def _choose(self, out, y_u, b_u, pos, key, taken, v_by):
        """Stage 1 on a block of entries (y_u, key): u's choice r among
        self.choices, into out's six fields in the block's shape: the offer
        v must beat (r's; -1 without r; inf where v is taken before u
        arrives), the rank below which v wins a tie with r, u's gain from
        r, and, on a last axis for u taking r and for u taking v: v's
        weight where v has a partner (else 0), its time part b (else 0),
        and v's status."""
        thr, bar, alpha_r, scale, b_by, status = out
        r, a_r, w_r, bar_r = self.choices
        free = taken.take(key, axis=1) >= pos
        # offers by choice, -1 (below every offer) for none and for those
        # taken before u arrives; free's last row is v's
        offers = np.full(free.shape, -1.0)
        col = (slice(1, None),) + (None,) * b_u.ndim
        np.copyto(offers[1:], np.add.outer(a_r[1:], b_u) * w_r[col], where=free[:-1])
        top = offers.argmax(axis=0)
        thr[...] = np.where(free[-1], offers.max(axis=0), np.inf)
        bar[...] = bar_r.take(top)
        w_top = w_r.take(top)
        alpha_r[...] = w_top - w_top * (1.0 - a_r.take(top) - b_u)
        # v's partner: the table's row key, column r + 1 (0: u took nothing)
        by = v_by.take(key * v_by.shape[1] + (r.take(top) + 1))
        matched = by >= 0
        np.multiply(matched, self.w[self.v_idx], out=scale[..., 0])
        scale[..., 1] = self.w[self.v_idx]
        b_by[..., 0] = np.where(matched, self.b_on.take(by), 0.0)
        b_by[..., 1] = b_u
        before = matched & (self.y_on.take(by) < y_u)
        status[..., 0] = np.where(before, MATCHED_BEFORE, UNMATCHED_AFTER)
        status[..., 1] = MATCHED_TO_U

    def _settle(self, y_v, a_v, b_u, at, chosen):
        """Stage 2 on a block of lanes, at their entries in stage 1's flat
        fields chosen: u takes v where v beats r's offer, or ties it with
        (y_v, v) < (y_r, r); the gains split as assign_duals splits them."""
        thr, bar, alpha_r, scale, b_by, status = chosen
        w_v = self.w[self.v_idx]
        offer = (a_v + b_u) * w_v
        thr = thr.take(at)
        to_v = offer > thr
        tie = offer == thr
        if tie.any():
            to_v |= tie & (y_v < bar.take(at))
        pick = 2 * at + to_v
        # without a partner, 0 * (1 - a_v) is +0.0, as 1 - a_v > 0
        alpha_v = scale.take(pick) * (1.0 - a_v - b_by.take(pick))
        return np.where(to_v, w_v - alpha_v, alpha_r.take(at)), alpha_v, status.take(pick)

    def run(self, y_u, y_v) -> SweepResult:
        """Simulate every lane of the shape that y_u and y_v broadcast to,
        and return results in that shape; a scalar is one lane of shape
        (1,). Shapes that do not broadcast raise AnalysisError.

        Each input is first cut back to the values it holds: an axis of
        stride zero, as in a np.broadcast_to view, is read as length one.
        So a (n, m) view of an (n, 1) column costs n offer-part
        evaluations and n arrival positions, not n * m. Blocks tile the
        lane shape with whole trailing axes where they fit, slicing axis 0
        (and further axes only when one row exceeds a block)."""
        y_u, y_v = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (y_u, y_v))
        try:
            shape = np.broadcast(y_u, y_v).shape
        except ValueError:
            raise AnalysisError(f"y_u and y_v have shapes {y_u.shape} and {y_v.shape}, "
                                "which do not broadcast") from None
        y_u, y_v = (_compact(x, len(shape)) for x in (y_u, y_v))
        a_v, b_u = self.spec.offer_parts(y_v)[0], self.spec.offer_parts(y_u)[1]
        # the table key: the midpoint of y_v's shared piece, or y_v on a
        # piece end, where the run can differ from both sides'
        end = np.searchsorted(self.ends, y_v)
        key = np.where(self.ends[end] == y_v, y_v, self.mids[end - 1])
        # not np.unique: without an index output it loads numpy.ma on its
        # first call, about 14 ms and 1.7 MB of peak RSS per process
        y_vs = np.sort(key, axis=None)
        y_vs = np.concatenate((y_vs[:1], y_vs[1:][y_vs[1:] != y_vs[:-1]]))
        yv_of = np.searchsorted(y_vs, key)
        taken, v_by = self._table(y_vs)
        # u arrives after the lower-index others of rank <= y_u and the
        # higher-index others of rank < y_u: a stable argsort's order
        pos = (np.searchsorted(self.ranks_before, y_u, "right")
               + np.searchsorted(self.ranks_after, y_u, "left"))

        # stage 1 pairs each y_u value with every key, or with its lanes'
        # one key if y_v varies only where y_u does; slot: a lane's pair
        if any(nu == 1 < nv for nu, nv in zip(y_u.shape, y_v.shape)):
            keys, slot = np.arange(y_vs.size).reshape((1,) * y_u.ndim + (-1,)), yv_of
        else:
            keys, slot = yv_of[..., None], np.zeros((1,) * y_u.ndim, dtype=np.intp)
        table = (*np.broadcast_shapes(y_u.shape, keys.shape[:-1]), keys.shape[-1])
        chosen = (np.empty(table), np.empty(table), np.empty(table),
                  np.empty((*table, 2)), np.empty((*table, 2)), np.empty((*table, 2), np.int8))
        for blk in _blocks(table, self.block):
            self._choose(tuple(x[blk] for x in chosen), *(_part(x, blk) for x in (
                y_u[..., None], b_u[..., None], pos[..., None], keys)), taken, v_by)
        row = np.arange(y_u.size).reshape(y_u.shape) * table[-1]

        out = SweepResult(alpha_u=np.empty(shape), alpha_v=np.empty(shape),
                          status=np.empty(shape, dtype=np.int8))
        for blk in _blocks(shape, self.block):
            yv, av, bu, r, d = (_part(x, blk) for x in (y_v, a_v, b_u, row, slot))
            out.alpha_u[blk], out.alpha_v[blk], out.status[blk] = self._settle(
                yv, av, bu, r + d, chosen)
        for x in (out.alpha_u, out.alpha_v, out.status):
            x.flags.writeable = False
        return out


def _part(x: np.ndarray, blk: tuple[slice, ...]) -> np.ndarray:
    """x's share of the block blk: an axis of length one is taken whole."""
    return x[tuple([s if n > 1 else slice(None) for s, n in zip(blk, x.shape)])]


def _compact(x: np.ndarray, ndim: int) -> np.ndarray:
    """x with ndim axes, leading ones added, and every zero-stride axis
    cut to length one: the values of a np.broadcast_to view, once."""
    if x.ndim == ndim and all(x.strides):
        return x
    x = x.reshape((1,) * (ndim - x.ndim) + x.shape)
    return x[tuple(slice(None) if s else slice(0, 1) for s in x.strides)]


def _blocks(shape: tuple[int, ...], block: int):
    """Index tuples that tile `shape` with blocks of at most `block`
    lanes: whole trailing axes first, then slices along the next one."""
    lengths = []
    for n in reversed(shape):
        lengths.append(max(1, min(n, block)))
        block //= lengths[-1]
    lengths.reverse()
    starts = [range(0, n, k) for n, k in zip(shape, lengths)]
    for corner in itertools.product(*starts):
        yield tuple(slice(i, i + k) for i, k in zip(corner, lengths))


# -- thresholds -----------------------------------------------------------


@dataclass(frozen=True)
class ThresholdProfile:
    """beta/theta thresholds of one edge over a grid of arrival times.

    For each y_u in the grid: v is matched before u's arrival iff
    y_v < beta, matched to u iff beta < y_v < theta, and unmatched right
    after u's arrival iff y_v > theta. tau is the earliest arrival time
    whose theta equals one (1.0 if none); gamma is beta evaluated at
    arrival time one.
    """

    online_id: str
    offline_id: str
    y_u_grid: tuple[float, ...]
    beta: tuple[float, ...]
    theta: tuple[float, ...]
    tau: float
    gamma: float

    def to_csv(self) -> str:
        lines = ["y_u,beta,theta"]
        for y, b, t in zip(self.y_u_grid, self.beta, self.theta):
            lines.append(f"{y!r},{b!r},{t!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "online": self.online_id,
            "offline": self.offline_id,
            "y_u": list(self.y_u_grid),
            "beta": list(self.beta),
            "theta": list(self.theta),
            "tau": self.tau,
            "gamma": self.gamma,
        }


def _pieces(spec: GainSpec, cuts) -> tuple[list[float], list[float]]:
    """Piece ends (0, 1, the curve kinks and the cuts inside) and midpoints."""
    ends = sorted({0.0, 1.0, *spec.curve_breakpoints, *(y for y in cuts if 0.0 < y < 1.0)})
    return ends, [0.5 * (lo + hi) for lo, hi in zip(ends, ends[1:])]


def _flip(ends: list[float], left: list[bool], where: str) -> float:
    """The piece end where the per-piece flags turn from True to False;
    a True after a False breaks the three intervals."""
    k = sum(left)
    if not all(left[:k]):
        raise ThreeIntervalError(f"status interleaving {where}, before {ends[k]:.6f}")
    return ends[k]


def compute_thresholds(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                       online_id: str, offline_id: str, y_u_grid) -> ThresholdProfile:
    """Locate beta(y_u) and theta(y_u) on a grid of arrival times.

    At each grid point the run is constant on each of PairSweep.v_pieces,
    so one lane per piece, at its midpoint, classifies the whole y_v axis,
    and beta and theta are piece ends; one
    run takes every lane of the grid. Raises ThreeIntervalError when the
    pieces interleave statuses, and AnalysisError when beta decreases or
    theta leaves one after saturating; theta itself need not be monotone.
    """
    grid = [float(y) for y in y_u_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise AnalysisError("y_u grid must be strictly increasing")
    if not grid or not all(0.0 <= y <= 1.0 for y in grid):   # NaN fails too
        raise AnalysisError("y_u grid must be nonempty and inside [0, 1]")
    sweeper = PairSweep(instance, spec, base_ranks, online_id, offline_id)  # checks the edge
    pieces = sweeper.v_pieces(grid)
    sizes = [len(mids) for _, mids in pieces]
    statuses = sweeper.run(np.repeat(grid, sizes),
                           [y for _, mids in pieces for y in mids]).status
    betas: list[float] = []
    thetas: list[float] = []
    for y_u, (ends, _), s in zip(grid, pieces, np.split(statuses, np.cumsum(sizes)[:-1])):
        where = f"along y_v at y_u={y_u}"
        betas.append(_flip(ends, (s == MATCHED_BEFORE).tolist(), where))
        thetas.append(_flip(ends, (s != UNMATCHED_AFTER).tolist(), where))

    for (y0, b0), (y1, b1) in zip(zip(grid, betas), zip(grid[1:], betas[1:])):
        if b1 < b0:
            raise AnalysisError(f"beta decreased from {b0} (y_u={y0}) to {b1} (y_u={y1})")
    saturated = False
    for y, t in zip(grid, thetas):
        if saturated and t != 1.0:
            raise AnalysisError(f"theta left 1.0 at y_u={y} after saturating")
        saturated = saturated or t == 1.0

    tau, gamma = sweeper.tau_gamma()
    return ThresholdProfile(online_id=online_id, offline_id=offline_id,
                            y_u_grid=tuple(grid), beta=tuple(betas),
                            theta=tuple(thetas), tau=tau, gamma=gamma)


# -- pair gain ------------------------------------------------------------


@dataclass(frozen=True)
class PairGainEstimate:
    """Midpoint-quadrature estimate of E[alpha_u + alpha_v] / w_v.

    The estimate decomposes exactly into the three regions delimited by
    (tau, gamma): corner (y_u > tau, y_v > gamma, where the pair matches
    each other), v_side (y_v <= gamma: v's gain, plus u's gain when
    y_u > tau) and u_side (y_u <= tau: u's gain, plus v's gain when
    y_v > gamma). The estimate is nonnegative but need not stay below one:
    u's gain can come from heavier neighbors than v.
    """

    online_id: str
    offline_id: str
    grid_n: int
    estimate: float
    corner: float
    v_side: float
    u_side: float
    tau: float
    gamma: float

    def to_json_dict(self) -> dict:
        """The fields in their order, the two ids as online and offline."""
        d = asdict(self)
        return {"online": d.pop("online_id"), "offline": d.pop("offline_id"), **d}

    def to_text(self) -> str:
        """One "key value" line per to_json_dict field, in its order."""
        return "".join(f"{k:<10} {v}\n" for k, v in self.to_json_dict().items())


def pair_gain(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
              online_id: str, offline_id: str, grid_n: int) -> PairGainEstimate:
    """Estimate the pair's expected combined gain over uniform (y_u, y_v).

    Midpoint rule on a grid_n x grid_n grid of full re-simulations; the gain
    surface is piecewise smooth, so the quadrature error decays like
    1/grid_n along the status boundaries; tau and gamma are exact piece
    ends. Requires w_v > 0 (the estimate is normalized by the offline
    weight) and grid_n**2 <= generators.MAX_CELLS; an estimate that
    overflows raises AnalysisError.
    """
    if grid_n < 2:
        raise AnalysisError("grid_n must be >= 2")
    if grid_n * grid_n > MAX_CELLS:
        raise AnalysisError(f"grid_n = {grid_n} makes {grid_n * grid_n} cells, "
                            f"more than MAX_CELLS = {MAX_CELLS}")
    sweeper = PairSweep(instance, spec, base_ranks, online_id, offline_id)
    w_v = instance.weights[offline_id]
    if w_v == 0.0:
        raise AnalysisError(f"pair gain of zero-weight vertex {offline_id} is undefined")

    mids = (np.arange(grid_n) + 0.5) / grid_n
    # full-shape views of one column and one row: run reads them once per
    # grid value, and they still have grid_n**2 elements, one per lane
    cells = (grid_n, grid_n)
    res = sweeper.run(np.broadcast_to(mids[:, None], cells), np.broadcast_to(mids, cells))

    tau, gamma = sweeper.tau_gamma()

    cu = mids[:, None] > tau
    cv = mids > gamma
    norm = 1.0 / (grid_n * grid_n * w_v)
    with np.errstate(over="ignore", invalid="ignore"):   # huge weights: refused below
        both = res.alpha_u + res.alpha_v
        corner = float(np.sum(both * (cu & cv))) * norm
        v_side = float(np.sum(res.alpha_v * ~cv) + np.sum(res.alpha_u * (~cv & cu))) * norm
        u_side = float(np.sum(res.alpha_u * ~cu) + np.sum(res.alpha_v * (~cu & cv))) * norm
        estimate = float(np.sum(both)) * norm
    if not np.isfinite([estimate, corner, v_side, u_side]).all():
        raise AnalysisError(f"pair gain of ({online_id}, {offline_id}) overflows")
    return PairGainEstimate(online_id=online_id, offline_id=offline_id,
                            grid_n=grid_n, estimate=estimate, corner=corner,
                            v_side=v_side, u_side=u_side, tau=tau, gamma=gamma)
