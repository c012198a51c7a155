"""Per-edge analysis: vary one edge's two ranks with everything else fixed.

Fixing all ranks except those of one online vertex u and one offline
neighbor v, the run outcome as a function of (y_u, y_v) has a rigid
structure: for each arrival time y_u, the offline rank axis splits into
three intervals (v already matched when u arrives / v matched to u /
v unmatched right after u's arrival) delimited by thresholds beta(y_u) and
theta(y_u); (tau, gamma) is the corner of that split. Each of the four is
where a monotone status flips, and one search (_boundary) finds them all.
This module locates those thresholds numerically and estimates the
expected combined gain of the pair over uniformly random (y_u, y_v) by
midpoint quadrature.

Re-running the scalar simulation per grid cell would dominate everything,
so PairSweep lays the (y_u, y_v) values out as lanes. Once u has taken p,
the other arrivals run as they would without u and with p gone from the
start, so one table of runs through ranking.run_lanes, keyed by y_v and
the vertex gone (none, or one of u's neighbors other than v), answers
every lane; u's own choice and the split of the pair's gains are then
per-lane arithmetic. compute_thresholds makes one PairSweep run per
LANE_BLOCK lanes of its grid, and pair_gain one for its grid cells.
Every lane follows run_ranking's rules, ties included; the scalar path
(vary_two_ranks, edge_status) stays the reference, and tests cross-check
the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DualShares, Instance, MatchingResult, RankAssignment
from .gains import GainSpec
from .numerics import bisect_boundary
from .ranking import _top_offer, assign_duals, run_lanes, run_ranking

MATCHED_BEFORE = 0
MATCHED_TO_U = 1
UNMATCHED_AFTER = 2

# lanes per run_lanes call, per slice of PairSweep.run's per-lane pass and
# per compute_thresholds run: bounds their working sets
LANE_BLOCK = 8192
# bisection tolerance of pair_gain's (tau, gamma) and compute_thresholds' default
REFINE_TOL = 1e-9


class AnalysisError(ValueError):
    """Bad analysis request (e.g. the probed pair is not an edge)."""


class ThreeIntervalError(AssertionError):
    """The matched-before / matched-to / unmatched-after pattern broke.

    Raised when a rank sweep does not split into three contiguous intervals;
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
    """Per-lane outcome of a batched two-rank sweep."""

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
    y_v, which suits its callers' grids, whose y_v take few values:

    1. Table. For every distinct y_v and every gone, one run of the other
       arrivals without u. The gone = none runs give the arrival position
       at which each of u's neighbors is taken; every run gives v's
       partner.
    2. Per lane, LANE_BLOCK lanes at a time: u's step over u's neighbor
       rows (the tie rule is ranking._top_offer's) gives p. v's partner
       is u where p is v, and otherwise the table's at (y_v, gone = p, or
       none where u took nothing). The gains of u and v come off the two
       partners, split exactly as assign_duals splits them.

    So every lane is the run vary_two_ranks makes. Each ranking.run_lanes
    call takes at most LANE_BLOCK lanes.
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
        self.b_on = np.asarray(spec.offer_parts(self.y_on)[1], dtype=float)
        self.a_off = np.asarray(spec.offer_parts(self.y_off)[0], dtype=float)
        # the arrival order of the other online vertices, by rank then id
        rest = np.argsort(self.y_on, kind="stable")
        self.rest = rest[rest != self.u_idx]
        self.ranks_before = np.sort(self.y_on[:self.u_idx])
        self.ranks_after = np.sort(self.y_on[self.u_idx + 1:])
        # u's neighbor rows, increasing, and v's place among them
        self.nbrs = np.array(sorted(instance.offline_ids.index(x)
                                    for x in instance.neighbors[online_id]))
        self.v_row = int(np.searchsorted(self.nbrs, self.v_idx))

    def _table(self, y_vs, small):
        """Step 1 over the distinct ranks y_vs of v: (taken, v_by).
        taken[j, d] is the arrival position among the others at which u's
        j-th neighbor is taken when v has rank y_vs[d], n_on - 1 if never;
        v_by[g, d] is v's partner (an online index, -1 if none) when
        offline vertex g is gone, and v_by[-1, d] when none is."""
        n_on, n_off, n_vs = self.y_on.size, self.w.size, y_vs.size
        gone = np.append(self.nbrs[self.nbrs != self.v_idx], -1)
        taken = np.empty((self.nbrs.size, n_vs), dtype=small)
        v_by = np.empty((n_off + 1, n_vs), dtype=small)
        a_vs = self.spec.offer_parts(y_vs)[0]
        k = np.arange(n_on)[:, None]
        for start in range(0, gone.size * n_vs, LANE_BLOCK):
            keys = np.arange(start, min(start + LANE_BLOCK, gone.size * n_vs))
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
            v_by[g, d] = np.where(took_v.any(axis=0), (took_v * k).sum(axis=0), -1)
            none = np.flatnonzero(g < 0)
            at = np.full((n_off + 1, none.size), n_on - 1, dtype=small)
            # a -1 partner (none) lands in the spare last row
            at[partner[self.rest][:, none], np.arange(none.size)] = np.arange(n_on - 1)[:, None]
            taken[:, d[none]] = at[self.nbrs]
        return taken, v_by

    def _u_step(self, a_v, b_u, y_v, pos, seen):
        """u's step on at most LANE_BLOCK lanes, given when each of u's
        neighbors is taken: p, u's partner (an offline index, -1 if
        none)."""
        rows = self.nbrs[:, None]
        cand = seen >= pos
        offers = np.repeat(self.a_off[rows], y_v.size, axis=1)
        offers[self.v_row] = a_v
        offers += b_u
        offers *= self.w[rows]
        offers *= cand
        ranks = np.repeat(self.y_off[rows], y_v.size, axis=1)
        ranks[self.v_row] = y_v
        hit, took = _top_offer(offers, cand, ranks, rows)
        p = np.full(y_v.size, -1, dtype=pos.dtype)
        p[hit] = took
        return p

    def _split(self, y_u, a_v, b_u, p, by):
        """The gains on at most LANE_BLOCK lanes: (alpha_u, alpha_v,
        status). Each matched offline endpoint q keeps w_q * (1 - a - b);
        the online side gets the complement, exactly as in assign_duals."""
        u, v, w = self.u_idx, self.v_idx, self.w
        kept = w[p] * (1.0 - np.where(p == v, a_v, self.a_off[p]) - b_u)
        alpha_u = np.where(p >= 0, w[p] - kept, 0.0)
        b_by = np.where(by == u, b_u, self.b_on[by])
        alpha_v = np.where(by >= 0, w[v] * (1.0 - a_v - b_by), 0.0)
        before = (by >= 0) & (self.y_on[by] < y_u)
        status = np.where(p == v, MATCHED_TO_U, np.where(
            before, MATCHED_BEFORE, UNMATCHED_AFTER))
        return alpha_u, alpha_v, status

    def run(self, y_u, y_v) -> SweepResult:
        """Simulate all lanes; y_u and y_v are equal-length 1-d arrays."""
        y_u = np.atleast_1d(np.asarray(y_u, dtype=float))
        y_v = np.atleast_1d(np.asarray(y_v, dtype=float))
        if y_u.shape != y_v.shape:
            raise AnalysisError("y_u and y_v must have equal shapes")
        n = y_u.size
        # positions and indices, down to -1, fit this type
        small = np.min_scalar_type(-max(self.y_on.size, self.w.size))
        # not np.unique: without an index output it loads numpy.ma on its
        # first call, about 14 ms and 1.7 MB of peak RSS per process
        y_vs = np.sort(y_v)
        y_vs = np.append(y_vs[:1], y_vs[1:][y_vs[1:] != y_vs[:-1]])
        # yv_of lives through the whole run, so in the narrowest type
        yv_of = np.searchsorted(y_vs, y_v).astype(np.min_scalar_type(y_vs.size))
        taken, v_by = self._table(y_vs, small)

        out = SweepResult(alpha_u=np.empty(n), alpha_v=np.empty(n),
                          status=np.empty(n, dtype=np.int8))
        for start in range(0, n, LANE_BLOCK):
            blk = slice(start, start + LANE_BLOCK)
            yu, yv, d = y_u[blk], y_v[blk], yv_of[blk]
            a_v, b_u = self.spec.offer_parts(yv)[0], self.spec.offer_parts(yu)[1]
            # u arrives after the lower-index others of rank <= y_u and the
            # higher-index others of rank < y_u: a stable argsort's order
            pos = (np.searchsorted(self.ranks_before, yu, "right")
                   + np.searchsorted(self.ranks_after, yu, "left")).astype(small)
            # np.take keeps the gather C-contiguous, and fast to compare
            p = self._u_step(a_v, b_u, yv, pos, np.take(taken, d, axis=1))
            by = np.where(p == self.v_idx, self.u_idx, v_by[p, d])
            out.alpha_u[blk], out.alpha_v[blk], out.status[blk] = self._split(
                yu, a_v, b_u, p, by)
        return out


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


def _boundary(statuses: np.ndarray, pts: np.ndarray, is_left_side, status_at,
              refine_tol: float) -> float:
    """Refine the point in [0, 1] where is_left_side(status) flips to False.

    The one flip-point search here: beta and theta start from a coarse
    sweep, tau and gamma from an empty one. statuses/pts are the sweep,
    left-side lanes first; status_at(y) is the scalar probe. An end of
    [0, 1] the sweep does not bracket is probed, then bisection runs
    between the nearest bracketing points or domain ends.
    """
    k = int(np.count_nonzero(is_left_side(statuses)))
    if k == len(pts) and is_left_side(status_at(1.0)):
        return 1.0
    if k == 0 and not is_left_side(status_at(0.0)):
        return 0.0
    lo = float(pts[k - 1]) if k else 0.0
    hi = float(pts[k]) if k < len(pts) else 1.0
    return bisect_boundary(lambda y: is_left_side(status_at(y)), lo, hi, refine_tol)


def _tau_gamma(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
               online_id: str, offline_id: str, refine_tol: float) -> tuple[float, float]:
    """(tau, gamma): the earliest arrival time whose theta is one (v at rank
    one no longer left unmatched), and beta at arrival time one."""
    def status(y_u, y_v):
        return edge_status(instance, spec, base_ranks, online_id, offline_id, y_u, y_v)

    none = np.empty(0)
    return (_boundary(none, none, lambda s: s == UNMATCHED_AFTER,
                      lambda y: status(y, 1.0), refine_tol),
            _boundary(none, none, lambda s: s == MATCHED_BEFORE,
                      lambda y: status(1.0, y), refine_tol))


def compute_thresholds(instance: Instance, spec: GainSpec, base_ranks: RankAssignment,
                       online_id: str, offline_id: str, y_u_grid,
                       refine_tol: float = REFINE_TOL, sweep_points: int = 1000,
                       ) -> ThresholdProfile:
    """Locate beta(y_u) and theta(y_u) on a grid of arrival times.

    PairSweep runs of at most LANE_BLOCK lanes classify v's status on a
    coarse sweep of y_v at every grid point. Per grid point, the sweep is
    checked to split into the three contiguous intervals, and each
    boundary is refined by bisection down to refine_tol. Raises
    ThreeIntervalError when a sweep interleaves statuses, and AnalysisError
    when a profile invariant (beta <= theta, beta non-decreasing, theta
    absorbing at one) fails; theta itself need not be monotone.
    """
    grid = [float(y) for y in y_u_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise AnalysisError("y_u grid must be strictly increasing")
    if not grid or grid[0] < 0.0 or grid[-1] > 1.0:
        raise AnalysisError("y_u grid must be nonempty and inside [0, 1]")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise AnalysisError("refine_tol must be positive")
    if sweep_points < 1:
        raise AnalysisError("sweep_points must be >= 1")
    sweeper = PairSweep(instance, spec, base_ranks, online_id, offline_id)
    pts = (np.arange(sweep_points) + 0.5) / sweep_points

    # sweep-major lanes, at most LANE_BLOCK per run (or one sweep point
    # across the grid), so each run tables only its own y_v
    per_run = max(1, LANE_BLOCK // len(grid))
    sweeps = np.concatenate([
        sweeper.run(np.tile(grid, chunk.size), np.repeat(chunk, len(grid))).status
        for chunk in (pts[i:i + per_run] for i in range(0, pts.size, per_run))
    ]).reshape(pts.size, len(grid)).T
    betas: list[float] = []
    thetas: list[float] = []
    for y_u, statuses in zip(grid, sweeps):
        if np.any(np.diff(statuses) < 0):
            bad = int(np.nonzero(np.diff(statuses) < 0)[0][0])
            raise ThreeIntervalError(
                f"status interleaving at y_u={y_u}: status {statuses[bad]} then "
                f"{statuses[bad + 1]} around y_v={pts[bad]:.6f}")

        def probe(y_v, _y=y_u):
            return edge_status(instance, spec, base_ranks, online_id, offline_id, _y, y_v)

        beta = _boundary(statuses, pts, lambda s: s == MATCHED_BEFORE, probe, refine_tol)
        theta = _boundary(statuses, pts, lambda s: s != UNMATCHED_AFTER, probe, refine_tol)
        betas.append(beta)
        thetas.append(theta)

    slack = 4.0 * refine_tol
    for y, b, t in zip(grid, betas, thetas):
        if not (0.0 <= b <= t + slack and t <= 1.0):
            raise AnalysisError(f"threshold order violated at y_u={y}: beta={b}, theta={t}")
    for (y0, b0), (y1, b1) in zip(zip(grid, betas), zip(grid[1:], betas[1:])):
        if b1 < b0 - slack:
            raise AnalysisError(f"beta decreased from {b0} (y_u={y0}) to {b1} (y_u={y1})")
    saturated = False
    for y, t in zip(grid, thetas):
        if saturated and t != 1.0:
            raise AnalysisError(f"theta left 1.0 at y_u={y} after saturating")
        saturated = saturated or t == 1.0

    tau, gamma = _tau_gamma(instance, spec, base_ranks, online_id, offline_id, refine_tol)
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
    1/grid_n along the status boundaries; tau and gamma are bisected down
    to REFINE_TOL. Requires w_v > 0 (the estimate is normalized by the
    offline weight).
    """
    if grid_n < 2:
        raise AnalysisError("grid_n must be >= 2")
    sweeper = PairSweep(instance, spec, base_ranks, online_id, offline_id)
    w_v = instance.weights[offline_id]
    if w_v == 0.0:
        raise AnalysisError(f"pair gain of zero-weight vertex {offline_id} is undefined")

    mids = (np.arange(grid_n) + 0.5) / grid_n
    y_u = np.repeat(mids, grid_n)
    y_v = np.tile(mids, grid_n)
    res = sweeper.run(y_u, y_v)

    tau, gamma = _tau_gamma(instance, spec, base_ranks, online_id, offline_id, REFINE_TOL)

    cu = y_u > tau
    cv = y_v > gamma
    norm = 1.0 / (grid_n * grid_n * w_v)
    corner = float(np.sum((res.alpha_u + res.alpha_v) * (cu & cv))) * norm
    v_side = float(np.sum(res.alpha_v * ~cv) + np.sum(res.alpha_u * (~cv & cu))) * norm
    u_side = float(np.sum(res.alpha_u * ~cu) + np.sum(res.alpha_v * (~cu & cv))) * norm
    estimate = float(np.sum(res.alpha_u + res.alpha_v)) * norm
    return PairGainEstimate(online_id=online_id, offline_id=offline_id,
                            grid_n=grid_n, estimate=estimate, corner=corner,
                            v_side=v_side, u_side=u_side, tau=tau, gamma=gamma)
