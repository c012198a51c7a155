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
start, so one table of runs through ranking.run_lanes, keyed by y_v and
the vertex gone (none, or one of u's neighbors other than v), answers
every lane; u's own choice and the split of the pair's gains are then
per-lane arithmetic. PairSweep.run takes lanes in any shape its inputs
broadcast to, and reads a zero-stride axis (a np.broadcast_to view) as one
value, so what depends on y_u or y_v alone costs one evaluation per value.
pair_gain makes one run over its grid_n x grid_n cells, passing full-shape
views of one midpoint column and one row: run does per-axis work on grid_n
values, and a caller that counts lanes by the inputs' size still sees one
per cell. compute_thresholds makes one run over flat lanes, one per piece
of its grid; tau and gamma classify their pieces with edge_status. Every
lane follows run_ranking's rules, ties included; the scalar path
(vary_two_ranks, edge_status) stays the reference, and tests cross-check
the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    """Per-lane outcome of a batched two-rank sweep, in the lane shape."""

    alpha_u: np.ndarray    # online endpoint's gain
    alpha_v: np.ndarray    # offline endpoint's gain
    status: np.ndarray     # MATCHED_BEFORE / MATCHED_TO_U / UNMATCHED_AFTER


class PairSweep:
    """Batched ranking runs where only one edge's two ranks vary.

    __init__ evaluates the spec once on the base ranks: a column of
    arrival times with their offer parts b, and a column of offline ranks
    with their offer parts a, and sorts the other online vertices into
    their arrival order. A lane is one (y_u, y_v). run() rests on one
    fact: once u has taken p, the run of the other arrivals is their run
    in base order with p gone from the start and u never arriving. Before
    u, no arrival took p, and removing a vertex an arrival does not take
    leaves its choice as it was; after u, the free sets are equal. So
    every run depends only on (y_v, gone), gone being none or one of u's
    neighbors other than v. A run costs deg(u) table runs per distinct
    key, a rank of v at which those runs are the lane's (y_v itself by
    default), which suits its callers, whose keys take few values:

    1. Table. For every distinct key and every gone, one run of the other
       arrivals without u. The gone = none runs give the arrival position
       at which each of u's neighbors is taken; every run gives v's
       partner.
    2. Per lane, one block of lanes at a time: u's step over u's neighbor
       rows gives p. v's partner is the table's at (key, p): u where p is
       v, and otherwise v's partner with p, or none where u took nothing,
       gone. The gains of u and v come off the two partners, split exactly
       as assign_duals splits them.

    So every lane is the run vary_two_ranks makes. Lanes may form any
    shape (see run); what depends on one axis alone (the offer parts b(y_u)
    and a(y_v), u's arrival position, the key's table column, the offers
    of u's other neighbors) is computed on that axis and broadcast. A block
    (one run_lanes call, or a slice of step 2) has ranking.lane_block(rows)
    lanes at most.
    """

    def __init__(self, instance: Instance, spec: GainSpec,
                 base_ranks: RankAssignment, online_id: str, offline_id: str):
        if not instance.has_edge(online_id, offline_id):
            raise AnalysisError(f"({online_id}, {offline_id}) is not an edge")
        self.instance = instance
        self.spec = spec
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
        # u's neighbor rows, increasing, and v's place among them
        self.nbrs = np.array(sorted(instance.offline_ids.index(x)
                                    for x in instance.neighbors[online_id]))
        self.v_row = int(np.searchsorted(self.nbrs, self.v_idx))
        self.block = lane_block(max(self.y_on.size, self.w.size))

    def _table(self, y_vs, small):
        """Step 1 over the distinct ranks y_vs of v: (taken, v_by).
        taken[j, d] is the arrival position among the others at which u's
        j-th neighbor is taken when v has rank y_vs[d], n_on - 1 if never;
        v_by[d, g + 1] is v's partner (an online index, -1 if none) when
        offline vertex g is gone, v_by[d, 0] when none is, and u where g
        is v, which only u takes."""
        n_on, n_off, n_vs = self.y_on.size, self.w.size, y_vs.size
        gone = np.append(self.nbrs[self.nbrs != self.v_idx], -1)
        taken = np.empty((self.nbrs.size, n_vs), dtype=small)
        v_by = np.empty((n_vs, n_off + 1), dtype=np.intp)
        v_by[:, self.v_idx + 1] = self.u_idx
        a_vs = self.spec.offer_parts(y_vs)[0]
        k = np.arange(n_on)[:, None]
        for start in range(0, gone.size * n_vs, self.block):
            keys = np.arange(start, min(start + self.block, gone.size * n_vs))
            g, d = gone[keys // n_vs], keys % n_vs
            lanes = np.arange(keys.size)
            free = np.ones((n_off, keys.size), dtype=bool)
            free[g[g >= 0], lanes[g >= 0]] = False
            off_ranks, on_offer, off_offer = (
                np.repeat(col[:, None], keys.size, axis=1)
                for col in (self.y_off, self.b_on, self.a_off))
            off_ranks[self.v_idx] = y_vs[d]
            off_offer[self.v_idx] = a_vs[d]
            order = np.repeat(self.rest[:, None], keys.size, axis=1)
            partner = run_lanes(self.instance, order, off_ranks, on_offer, off_offer, free)
            # v has at most one partner per lane, so the row sum of the
            # one-hot took_v is that partner's index
            took_v = partner == self.v_idx
            v_by[d, g + 1] = np.where(took_v.any(axis=0), (took_v * k).sum(axis=0), -1)
            none = np.flatnonzero(g < 0)
            at = np.full((n_off + 1, none.size), n_on - 1, dtype=small)
            # a -1 partner (none) lands in the spare last row
            at[partner[self.rest][:, none], np.arange(none.size)] = np.arange(n_on - 1)[:, None]
            taken[:, d[none]] = at[self.nbrs]
        return taken, v_by

    def _u_step(self, a_v, b_u, y_v, pos, seen):
        """u's step on one block of lanes, given when each of u's
        neighbors is taken: p, u's partner (an offline index, -1 if
        none). The arguments broadcast to the block's lane shape (seen
        after its leading neighbor axis), and so does p. The offers of
        u's other neighbors vary with b_u alone, so they are made on its
        shape and broadcast; ranks enter only where offers tie.

        The tie rule runs over rows in index order: sorting u's neighbors
        by rank once per y_v value, as run_lanes sorts each lane, cut
        pair-gain-corpus from 220 and 214 to 133 and 131 estimates/s (two
        paired 9-s runs, 2-vCPU host)."""
        shape = np.broadcast(a_v, b_u, y_v, pos, seen[0]).shape
        rows = self.nbrs.reshape((-1,) + (1,) * len(shape))
        w = self.w[rows]
        cand = np.greater_equal(seen, pos, out=np.empty((rows.size, *shape), dtype=bool))
        offers = np.multiply(self.a_off[rows] + b_u, w, out=np.empty(cand.shape))
        np.multiply(a_v + b_u, w[self.v_row], out=offers[self.v_row])
        offers *= cand
        # one column per lane; offers are >= 0, so a non-candidate's 0
        # never beats a candidate, and a lane matches iff some candidate
        # ties for the top offer
        offers = offers.reshape(rows.size, -1)
        tied = offers == offers.max(axis=0)
        tied &= cand.reshape(rows.size, -1)
        # the 0/1 bytes of tied sum and weigh without a cast; on a lane with
        # one tied row, the weighted sum is that row's index
        ones = tied.view(np.uint8)
        n_tied = ones.sum(axis=0, dtype=np.min_scalar_type(rows.size))
        col = self.nbrs[:, None]
        narrow = col.astype(np.min_scalar_type(int(self.nbrs[-1])))
        p = np.where(n_tied > 0, (ones * narrow).sum(axis=0, dtype=narrow.dtype),
                     np.intp(-1))
        # two or more ties: the smaller rank, then the smaller row
        multi = np.flatnonzero(n_tied > 1)
        if multi.size:
            t = tied[:, multi]
            r = np.repeat(self.y_off[col], multi.size, axis=1)
            r[self.v_row] = np.broadcast_to(y_v, shape)[np.unravel_index(multi, shape)]
            low = np.where(t, r, np.inf).min(axis=0)
            p[multi] = np.where(t & (r == low), col, np.iinfo(np.intp).max).min(axis=0)
        return p.reshape(shape)

    def _split(self, y_u, a_v, b_u, p, by):
        """The gains on one block of lanes: (alpha_u, alpha_v,
        status). Each matched offline endpoint q keeps w_q * (1 - a - b);
        the online side gets the complement, exactly as in assign_duals.
        p and by hold a -1 where there is no partner, which take reads as
        the last entry, and np.where then masks."""
        u, v, w = self.u_idx, self.v_idx, self.w
        w_p, to_v, v_matched = w.take(p), p == v, by >= 0
        kept = w_p * (1.0 - np.where(to_v, a_v, self.a_off.take(p)) - b_u)
        alpha_u = np.where(p >= 0, w_p - kept, 0.0)
        b_by = np.where(by == u, b_u, self.b_on.take(by))
        alpha_v = np.where(v_matched, w[v] * (1.0 - a_v - b_by), 0.0)
        before = v_matched & (self.y_on.take(by) < y_u)
        status = np.where(to_v, np.int8(MATCHED_TO_U), np.where(
            before, np.int8(MATCHED_BEFORE), np.int8(UNMATCHED_AFTER)))
        return alpha_u, alpha_v, status

    def run(self, y_u, y_v, key=None) -> SweepResult:
        """Simulate every lane of the shape that y_u, y_v and key (y_v
        when None) broadcast to, and return results in that shape; a
        scalar is one lane of shape (1,). Shapes that do not broadcast
        raise AnalysisError.

        Each input is first cut back to the values it holds: an axis of
        stride zero, as in a np.broadcast_to view, is read as length one.
        So a (n, m) view of an (n, 1) column costs n offer-part
        evaluations and n arrival positions, not n * m. Flat 1-d inputs
        take one value per lane, as before. Blocks tile the lane shape
        with whole trailing axes where they fit, slicing axis 0 (and
        further axes only when one row exceeds a block)."""
        y_u, y_v = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (y_u, y_v))
        key = y_v if key is None else np.atleast_1d(np.asarray(key, dtype=float))
        try:
            shape = np.broadcast(y_u, y_v, key).shape
        except ValueError:
            raise AnalysisError(f"y_u, y_v and key have shapes {y_u.shape}, {y_v.shape} "
                                f"and {key.shape}, which do not broadcast") from None
        y_u, y_v, key = (_compact(x, len(shape)) for x in (y_u, y_v, key))
        # positions and indices, down to -1, fit this type
        small = np.min_scalar_type(-max(self.y_on.size, self.w.size))
        # not np.unique: without an index output it loads numpy.ma on its
        # first call, about 14 ms and 1.7 MB of peak RSS per process
        y_vs = np.sort(key, axis=None)
        y_vs = np.concatenate((y_vs[:1], y_vs[1:][y_vs[1:] != y_vs[:-1]]))
        # yv_of lives through the whole run, so in the narrowest type
        yv_of = np.searchsorted(y_vs, key).astype(np.min_scalar_type(y_vs.size))
        taken, v_by = self._table(y_vs, small)
        a_v, b_u = self.spec.offer_parts(y_v)[0], self.spec.offer_parts(y_u)[1]
        # u arrives after the lower-index others of rank <= y_u and the
        # higher-index others of rank < y_u: a stable argsort's order
        pos = (np.searchsorted(self.ranks_before, y_u, "right")
               + np.searchsorted(self.ranks_after, y_u, "left")).astype(small)

        out = SweepResult(alpha_u=np.empty(shape), alpha_v=np.empty(shape),
                          status=np.empty(shape, dtype=np.int8))
        for blk in _blocks(shape, self.block):
            # a compact axis of length one is taken whole, not sliced
            yu, yv, d, av, bu, at = (x[blk] if x.shape == shape else x[tuple(
                s if n > 1 else slice(None) for s, n in zip(blk, x.shape))]
                for x in (y_u, y_v, yv_of, a_v, b_u, pos))
            # take keeps the gather C-contiguous, and fast to compare
            p = self._u_step(av, bu, yv, at, taken.take(d, axis=1))
            # v's partner: the table's row d, column p + 1 (0: u took nothing)
            by = v_by.take(p + (d.astype(np.intp) * v_by.shape[1] + 1))
            out.alpha_u[blk], out.alpha_v[blk], out.status[blk] = self._split(
                yu, av, bu, p, by)
        return out


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


def _rank_cuts(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
               online_id: str, offline_id: str, y_us) -> tuple[list[float], list[list[float]]]:
    """The cuts along y_v: those shared by every arrival time, and per y_u
    in y_us the crossings of v's offer to u.

    y_v moves the run only where v's offer to one of its neighbors j
    crosses that of another neighbor q of j, w_v (a(y_v) + b(y_j)) =
    w_q (a(y_q) + b(y_j)); at y_q, where tied offers go to the smaller
    rank; and at the curve kinks. With w_q = w_v the offers cross at y_q.
    """
    rank_of, w, parts = base_ranks.ranks, instance.weights, spec.offer_parts_scalar
    w_v = w[offline_id]

    def crossings(j, b_j):
        return [w[q] * (parts(rank_of[q])[0] + b_j) / w_v - b_j for q in instance.neighbors[j]
                if q != offline_id and w[q] != w_v and w_v > 0.0]

    shared, targets = [], []
    for j, nbrs in instance.neighbors.items():
        if offline_id in nbrs:
            shared += [rank_of[q] for q in nbrs if q != offline_id]
            targets += crossings(j, parts(rank_of[j])[1]) if j != online_id else []
    # one inverse for all: u's rows are equally long, one per y_u
    own = [z for y in y_us for z in crossings(online_id, parts(y)[1])]
    inverse = spec.offer_inverse(targets + own, 0)
    return (shared + inverse[:len(targets)].tolist(),
            inverse[len(targets):].reshape(len(y_us), -1).tolist())


def _time_pieces(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                 online_id: str, offline_id: str):
    """_pieces along y_u with v at rank one.

    y_u moves the run only where u passes another arrival, where the
    offers of two of u's neighbors q, s cross, w_q (a_q + b(y_u)) =
    w_s (a_s + b(y_u)), and at the curve kinks.
    """
    rank_of = base_ranks.override({offline_id: 1.0}).ranks
    w, nbrs = instance.weights, instance.neighbors[online_id]
    a = {q: spec.offer_parts_scalar(rank_of[q])[0] for q in nbrs}
    targets = [(w[s] * a[s] - w[q] * a[q]) / (w[q] - w[s])
               for i, q in enumerate(nbrs) for s in nbrs[i + 1:] if w[q] != w[s]]
    cuts = [rank_of[j] for j in instance.online_ids if j != online_id]
    return _pieces(spec, cuts + spec.offer_inverse(targets, 1).tolist())


def _tau_gamma(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
               online_id: str, offline_id: str) -> tuple[float, float]:
    """(tau, gamma): the earliest arrival time whose theta is one (v at rank
    one no longer left unmatched), and beta at arrival time one, from one
    scalar edge_status call per piece."""
    edge = (instance, spec, base_ranks, online_id, offline_id)
    ends, mids = _time_pieces(*edge)
    tau = _flip(ends, [edge_status(*edge, y, 1.0) == UNMATCHED_AFTER for y in mids],
                "along y_u at y_v=1")
    shared, (own,) = _rank_cuts(*edge, [1.0])
    ends, mids = _pieces(spec, shared + own)
    gamma = _flip(ends, [edge_status(*edge, 1.0, y) == MATCHED_BEFORE for y in mids],
                  "along y_v at y_u=1")
    return tau, gamma


def compute_thresholds(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                       online_id: str, offline_id: str, y_u_grid) -> ThresholdProfile:
    """Locate beta(y_u) and theta(y_u) on a grid of arrival times.

    At each grid point the run is constant between the exact cuts of
    _rank_cuts, so one PairSweep lane per piece, at its midpoint,
    classifies the whole y_v axis, and beta and theta are piece ends. One
    run takes every lane of the grid; without u, the other arrivals change
    only at the shared cuts, so a lane is tabled at the midpoint of the
    shared piece it lies in. Raises ThreeIntervalError when the pieces
    interleave statuses, and AnalysisError when beta decreases or theta
    leaves one after saturating; theta itself need not be monotone.
    """
    grid = [float(y) for y in y_u_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise AnalysisError("y_u grid must be strictly increasing")
    if not grid or not all(0.0 <= y <= 1.0 for y in grid):   # NaN fails too
        raise AnalysisError("y_u grid must be nonempty and inside [0, 1]")
    sweeper = PairSweep(instance, spec, base_ranks, online_id, offline_id)  # checks the edge
    shared, own = _rank_cuts(instance, spec, base_ranks, online_id, offline_id, grid)
    pieces = [_pieces(spec, shared + cuts) for cuts in own]
    keys, key_mids = _pieces(spec, shared)
    sizes = [len(mids) for _, mids in pieces]
    at = np.searchsorted(keys, [lo for ends, _ in pieces for lo in ends[:-1]], "right") - 1
    statuses = sweeper.run(np.repeat(grid, sizes), [y for _, mids in pieces for y in mids],
                           np.take(key_mids, at)).status
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

    tau, gamma = _tau_gamma(instance, spec, base_ranks, online_id, offline_id)
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
        return {
            "online": self.online_id,
            "offline": self.offline_id,
            "grid_n": self.grid_n,
            "estimate": self.estimate,
            "corner": self.corner,
            "v_side": self.v_side,
            "u_side": self.u_side,
            "tau": self.tau,
            "gamma": self.gamma,
        }


def pair_gain(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
              online_id: str, offline_id: str, grid_n: int) -> PairGainEstimate:
    """Estimate the pair's expected combined gain over uniform (y_u, y_v).

    Midpoint rule on a grid_n x grid_n grid of full re-simulations; the gain
    surface is piecewise smooth, so the quadrature error decays like
    1/grid_n along the status boundaries; tau and gamma are exact piece
    ends. Requires w_v > 0 (the estimate is normalized by the offline
    weight) and grid_n**2 <= generators.MAX_CELLS.
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

    tau, gamma = _tau_gamma(instance, spec, base_ranks, online_id, offline_id)

    cu = mids[:, None] > tau
    cv = mids > gamma
    norm = 1.0 / (grid_n * grid_n * w_v)
    both = res.alpha_u + res.alpha_v
    corner = float(np.sum(both * (cu & cv))) * norm
    v_side = float(np.sum(res.alpha_v * ~cv) + np.sum(res.alpha_u * (~cv & cu))) * norm
    u_side = float(np.sum(res.alpha_u * ~cu) + np.sum(res.alpha_v * (~cu & cv))) * norm
    estimate = float(np.sum(both)) * norm
    return PairGainEstimate(online_id=online_id, offline_id=offline_id,
                            grid_n=grid_n, estimate=estimate, corner=corner,
                            v_side=v_side, u_side=u_side, tau=tau, gamma=gamma)
