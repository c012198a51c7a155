import math

import numpy as np
import pytest

from rankmatch.analysis import (MATCHED_BEFORE, MATCHED_TO_U, UNMATCHED_AFTER,
                                AnalysisError, PairSweep, SweepResult,
                                ThreeIntervalError,
                                compute_thresholds, edge_status, pair_gain,
                                vary_two_ranks)
from rankmatch.core import RankAssignment, build_instance, sample_ranks
from rankmatch.gains import (LN2, adversarial_baseline, half_exp, piecewise_table,
                             simple_exp)
from rankmatch.generators import generate_instance, random_instance

SPECS = (half_exp(), simple_exp(), adversarial_baseline())


def test_vary_two_ranks_requires_edge():
    inst = build_instance([("v1", 1.0), ("v2", 1.0)], [("u1", ["v1"])])
    with pytest.raises(AnalysisError, match="not an edge"):
        vary_two_ranks(inst, half_exp(), sample_ranks(inst, 0), "u1", "v2", 0.5, 0.5)


def test_single_edge_pair_always_whole():
    inst = build_instance([("v1", 2.5)], [("u1", ["v1"])])
    base = sample_ranks(inst, 1)
    for y_u, y_v in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.01)]:
        _, duals = vary_two_ranks(inst, half_exp(), base, "u1", "v1", y_u, y_v)
        assert duals.alpha["u1"] + duals.alpha["v1"] == 2.5


def test_sweep_matches_scalar_engine():
    rng = np.random.default_rng(20)
    for trial in range(40):
        inst = random_instance(rng, weighted=(trial % 3 != 2))
        spec = SPECS[trial % 3]
        base = sample_ranks(inst, (20, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, spec, base, u, v)
        y_u = rng.random(25)
        y_v = rng.random(25)
        res = sweep.run(y_u, y_v)
        for i in range(25):
            _, duals = vary_two_ranks(inst, spec, base, u, v, y_u[i], y_v[i])
            assert duals.alpha[u] == res.alpha_u[i]
            assert duals.alpha[v] == res.alpha_v[i]
            st = edge_status(inst, spec, base, u, v, y_u[i], y_v[i])
            assert st == res.status[i]


def test_sweep_handles_equal_rank_pairs_on_diagonal():
    # grid sweeps hit y_u == y_v exactly; the unchecked override path must
    # stay deterministic and agree with the scalar engine
    rng = np.random.default_rng(21)
    inst = random_instance(rng, weighted=True)
    base = sample_ranks(inst, 21)
    edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
    u, v = edges[0]
    pts = np.array([0.25, 0.5, 0.75])
    res = PairSweep(inst, half_exp(), base, u, v).run(pts, pts)
    for i, y in enumerate(pts):
        _, duals = vary_two_ranks(inst, half_exp(), base, u, v, y, y)
        assert duals.alpha[u] == res.alpha_u[i]


def test_sweep_matches_scalar_engine_with_zero_weight_vertex():
    # zero-weight vertices absorb matches without contributing gain
    inst = build_instance([("v1", 0.0), ("v2", 2.0), ("v3", 1.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v1", "v3"])])
    base = RankAssignment({"v1": 0.2, "v2": 0.6, "v3": 0.8,
                           "u1": 0.3, "u2": 0.7})
    sweep = PairSweep(inst, half_exp(), base, "u2", "v3")
    rng = np.random.default_rng(29)
    y_u = rng.random(30)
    y_v = rng.random(30)
    res = sweep.run(y_u, y_v)
    for i in range(30):
        _, duals = vary_two_ranks(inst, half_exp(), base, "u2", "v3",
                                  y_u[i], y_v[i])
        assert duals.alpha["u2"] == res.alpha_u[i]
        assert duals.alpha["v3"] == res.alpha_v[i]


def test_sweep_orders_arrival_ties_by_id_like_the_scalar_engine():
    # u1 and u2 both arrive at 0.5: u1 goes first by id and takes the
    # heavier v2, so u2 finds v2 gone and v2 counts as unmatched after u2
    inst = build_instance([("v1", 1.0), ("v2", 2.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v2"])])
    base = RankAssignment({"v1": 0.3, "v2": 0.9, "u1": 0.5, "u2": 0.1})
    res = PairSweep(inst, half_exp(), base, "u2", "v2").run([0.5], [0.4])
    _, duals = vary_two_ranks(inst, half_exp(), base, "u2", "v2", 0.5, 0.4)
    status = edge_status(inst, half_exp(), base, "u2", "v2", 0.5, 0.4)
    assert status == UNMATCHED_AFTER
    assert res.status[0] == status
    assert res.alpha_u[0] == duals.alpha["u2"] == 0.0
    assert res.alpha_v[0] == duals.alpha["v2"]


def test_sweep_inserts_u_into_arrival_ties_like_a_stable_sort(monkeypatch):
    # every table run is the others' base order, u1 (0.3), u3 (0.6), u4
    # (1.0), without u2; u's step places u2 among them as a stable sort
    # does: at an equal arrival time the smaller id goes first, so u2
    # follows u1 at 0.3 and precedes u3 at 0.6 and u4 at 1.0. On flat
    # lanes, stage 1 takes one entry per lane, in lane order
    from rankmatch import analysis

    orders, places = [], []
    run_lanes, choose = analysis.run_lanes, PairSweep._choose

    def spy(instance, spec, ranks, order, free):
        orders.append(order.copy())
        return run_lanes(instance, spec, ranks, order, free)

    def spy_choose(self, out, y_u, b_u, pos, key, taken, v_by):
        places.append(np.broadcast_to(pos, out[0].shape).ravel())
        return choose(self, out, y_u, b_u, pos, key, taken, v_by)

    monkeypatch.setattr(analysis, "run_lanes", spy)
    monkeypatch.setattr(PairSweep, "_choose", spy_choose)
    inst = build_instance([("v1", 2.0), ("v2", 1.0)],
                          [("u1", ["v1"]), ("u2", ["v1", "v2"]), ("u3", ["v2"]),
                           ("u4", ["v2"])])
    base = RankAssignment({"v1": 0.5, "v2": 0.5, "u1": 0.3, "u2": 0.8,
                           "u3": 0.6, "u4": 1.0})
    y_u = np.repeat([0.0, 0.3, 0.45, 0.6, 1.0], 4)
    y_v = np.tile([0.0, 0.3, 0.6, 1.0], 5)
    on = np.repeat([[0.3], [0.8], [0.6], [1.0]], y_u.size, axis=1)
    on[1] = y_u
    place = np.argmax(np.argsort(on, axis=0, kind="stable") == 1, axis=0)
    for spec in SPECS:
        for offline_id in ("v1", "v2"):
            orders.clear()
            places.clear()
            res = PairSweep(inst, spec, base, "u2", offline_id).run(y_u, y_v)
            assert np.array_equal(np.concatenate(places), place)
            assert orders
            for order in orders:
                assert np.array_equal(order, np.repeat([[0], [2], [3]], order.shape[1], axis=1))
            for i in range(y_u.size):
                _, duals = vary_two_ranks(inst, spec, base, "u2", offline_id,
                                          y_u[i], y_v[i])
                assert res.alpha_u[i] == duals.alpha["u2"]
                assert res.alpha_v[i] == duals.alpha[offline_id]
                assert res.status[i] == edge_status(inst, spec, base, "u2",
                                                    offline_id, y_u[i], y_v[i])
    # the ties decide the run: at 0.3, u1 goes first and takes v1; at 0.6,
    # u2 goes before u3 and takes v2
    _, duals = vary_two_ranks(inst, half_exp(), base, "u2", "v1", 0.3, 0.5)
    assert duals.alpha["u1"] > 0.0
    _, duals = vary_two_ranks(inst, half_exp(), base, "u2", "v1", 0.6, 0.5)
    assert duals.alpha["u3"] == 0.0 and duals.alpha["u2"] > 0.0


def all_lanes_sweep(sweep, y_u, y_v):
    """Reference PairSweep.run without the shared runs: u inserted into
    every lane's arrival order, and every lane through run_lanes."""
    from rankmatch.analysis import SweepResult
    from rankmatch.ranking import LANE_BLOCK
    from rankmatch.ranking import run_lanes

    y_u = np.atleast_1d(np.asarray(y_u, dtype=float))
    y_v = np.atleast_1d(np.asarray(y_v, dtype=float))
    n = y_u.size
    out = SweepResult(alpha_u=np.empty(n), alpha_v=np.empty(n),
                      status=np.empty(n, dtype=np.int8))
    b_u = sweep.spec.offer_parts(y_u)[1]
    a_v = sweep.spec.offer_parts(y_v)[0]
    u, v, w = sweep.u_idx, sweep.v_idx, sweep.w
    n_off = w.size
    k = np.arange(sweep.y_on.size)[:, None]
    for start in range(0, n, LANE_BLOCK):
        blk = slice(start, start + LANE_BLOCK)
        lanes = np.arange(y_u[blk].size)
        pos = (np.searchsorted(sweep.ranks_before, y_u[blk], "right")
               + np.searchsorted(sweep.ranks_after, y_u[blk], "left"))
        order = np.append(sweep.rest, u)[k - (k > pos)]
        order[pos, lanes] = u
        ranks = np.repeat(np.concatenate((sweep.y_off, sweep.y_on))[:, None], lanes.size,
                          axis=1)
        ranks[v], ranks[n_off + u] = y_v[blk], y_u[blk]
        off_offer, on_offer = sweep.spec.offer_parts(ranks)
        off_offer, on_offer = off_offer[:n_off], on_offer[n_off:]
        partner = run_lanes(sweep.instance, sweep.spec, ranks, order,
                            np.ones((n_off, lanes.size), dtype=bool))
        p = partner[u]
        kept = w[p] * (1.0 - off_offer[p, lanes] - b_u[blk])
        out.alpha_u[blk] = np.where(p >= 0, w[p] - kept, 0.0)
        took_v = partner == v
        v_matched = took_v.any(axis=0)
        by = (took_v * k).sum(axis=0)
        b_by = np.take(on_offer.ravel(), by * lanes.size + lanes)
        out.alpha_v[blk] = np.where(v_matched, w[v] * (1.0 - a_v[blk] - b_by), 0.0)
        before = v_matched & (sweep.y_on[by] < y_u[blk])
        out.status[blk] = np.where(took_v[u], MATCHED_TO_U, np.where(
            before, MATCHED_BEFORE, UNMATCHED_AFTER))
    return out


def assert_sweeps_equal(got, want):
    for field in ("alpha_u", "alpha_v", "status"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


ORACLE_SPECS = SPECS + (piecewise_table((0.0, 0.5, 1.0), (0.5, 0.5, 0.7)),)
# slope-valid: each segment climbs at most its left-knot value
STEEP_TABLE = piecewise_table((0.0, 0.3, 0.7, 1.0), (0.4, 0.5, 0.7, 0.9))


def oracle_lanes(rng, sweep, base, kind, n):
    """(y_u, y_v): uniform, on {0, 1/2, 1}, or also at the base ranks and
    on every end of the sweep's shared pieces, offer crossings included."""
    if kind == "uniform":
        return rng.random(n), rng.random(n)
    pool = [0.0, 0.5, 1.0]
    if kind == "base-ranks":
        pool += [*base.ranks.values(), *sweep.ends]
    return rng.choice(pool, n), rng.choice(pool, n)


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit-weights"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["half-exp", "simple-exp",
                                                    "adversarial", "table"])
def test_sweep_matches_all_lanes_oracle_bit_for_bit(spec, weighted):
    # unit weights with simple-exp (saturated) and the table's flat part
    # make offer ties; lanes on {0, 1/2, 1} or at base ranks tie arrivals,
    # and lanes on a shared piece end are tabled there, not at a midpoint.
    # The first base-rank lanes are also re-run through the scalar engine,
    # which must give the same alpha_u, alpha_v and status bit for bit
    rng = np.random.default_rng(30)
    for trial in range(30):
        inst = random_instance(rng, weighted=weighted)
        base = sample_ranks(inst, (30, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, spec, base, u, v)
        for kind in ("uniform", "halves", "base-ranks"):
            y_u, y_v = oracle_lanes(rng, sweep, base, kind, int(rng.integers(1, 300)))
            res = sweep.run(y_u, y_v)
            assert_sweeps_equal(res, all_lanes_sweep(sweep, y_u, y_v))
        for i in range(min(12, y_u.size)):
            _, duals = vary_two_ranks(inst, spec, base, u, v, y_u[i], y_v[i])
            assert (res.alpha_u[i], res.alpha_v[i]) == (duals.alpha[u], duals.alpha[v])
            assert res.status[i] == edge_status(inst, spec, base, u, v, y_u[i], y_v[i])


@pytest.mark.parametrize("gen", ["upper_triangular", "random"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["half-exp", "simple-exp",
                                                    "adversarial", "table"])
def test_unit_weight_sweeps_run_their_table_by_rank_order(branches, monkeypatch, spec, gen):
    # unit weights under a spec whose a never rises: every table run of
    # pair_gain and compute_thresholds takes run_lanes' by-order branch,
    # which evaluates no offer part, and the lanes are the scalar engine's
    from rankmatch import analysis

    seen, run_lanes = [], analysis.run_lanes

    def spy(instance, lane_spec, ranks, order, free):
        partner, branch = branches(lambda: run_lanes(instance, lane_spec, ranks, order, free),
                                   order.shape[1])
        seen.append(branch)
        return partner

    monkeypatch.setattr(analysis, "run_lanes", spy)
    inst = generate_instance(gen, {"n": 6}, 4)
    base = sample_ranks(inst, (4, 0))
    grid = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    y_u, y_v = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    for u in inst.online_ids:
        for v in inst.neighbors[u]:
            pair_gain(inst, spec, base, u, v, 8)
            compute_thresholds(inst, spec, base, u, v, [0.125, 0.375, 0.625, 0.875])
            res = PairSweep(inst, spec, base, u, v).run(y_u, y_v)
            for i in range(y_u.size):
                _, duals = vary_two_ranks(inst, spec, base, u, v, y_u[i], y_v[i])
                assert (res.alpha_u[i], res.alpha_v[i]) == (duals.alpha[u], duals.alpha[v])
                assert res.status[i] == edge_status(inst, spec, base, u, v, y_u[i], y_v[i])
    assert seen and set(seen) == {"by-order"}


def test_sweep_matches_all_lanes_oracle_at_the_edges():
    rng = np.random.default_rng(31)
    # beyond LANE_BLOCK lanes, the lanes of one class sit in several slices
    for trial in range(6):
        inst = random_instance(rng, weighted=trial % 2 == 0)
        base = sample_ranks(inst, (31, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, ORACLE_SPECS[trial % 4], base, u, v)
        pool = np.array([0.0, 0.5, 1.0, *base.ranks.values(), *sweep.ends, *rng.random(4)])
        y_u, y_v = rng.choice(pool, 20000), rng.choice(pool, 20000)
        assert_sweeps_equal(sweep.run(y_u, y_v), all_lanes_sweep(sweep, y_u, y_v))
    # no lanes; one online vertex; one offline vertex
    one_online = build_instance([("v1", 1.0), ("v2", 3.0), ("v3", 1.0)],
                                [("u1", ["v1", "v2", "v3"])])
    one_offline = build_instance([("v1", 2.0)], [("u1", ["v1"]), ("u2", ["v1"]),
                                                 ("u3", ["v1"])])
    for inst, u, v in ((one_online, "u1", "v2"), (one_offline, "u2", "v1")):
        base = sample_ranks(inst, 31)
        for spec in ORACLE_SPECS:
            sweep = PairSweep(inst, spec, base, u, v)
            for n in (0, 1, 500):
                y_u, y_v = oracle_lanes(rng, sweep, base, "base-ranks", n)
                assert_sweeps_equal(sweep.run(y_u, y_v), all_lanes_sweep(sweep, y_u, y_v))


def test_sweep_reads_v_partner_by_y_v_and_u_partner():
    # u1 takes y below y_u ~ 0.336 and x above; u2 (0.95) then takes x, or
    # v when x is gone. Lanes that share y_v and u1's position but not its
    # partner end differently, so they must not share a table run
    inst = build_instance([("v", 0.1), ("x", 2.46), ("y", 1.5)],
                          [("u1", ["v", "x", "y"]), ("u2", ["v", "x"])])
    base = RankAssignment({"v": 0.5, "x": 0.9, "y": 0.1, "u1": 0.2, "u2": 0.95})
    y_u = np.repeat([0.1, 0.2, 0.5, 0.6, 0.97], 3)
    y_v = np.tile([0.2, 0.5, 0.7], 5)
    sweep = PairSweep(inst, half_exp(), base, "u1", "v")
    res = sweep.run(y_u, y_v)
    assert_sweeps_equal(res, all_lanes_sweep(sweep, y_u, y_v))
    matched = res.alpha_v > 0.0
    assert matched.tolist() == [False] * 6 + [True] * 6 + [False] * 3
    for i in range(y_u.size):
        _, duals = vary_two_ranks(inst, half_exp(), base, "u1", "v", y_u[i], y_v[i])
        assert res.alpha_v[i] == duals.alpha["v"]


def test_sweep_breaks_wide_ties_like_the_scalar_engine():
    # u has 256 unit-weight neighbors of base rank >= 1/2, where simple-exp's
    # a is 0, so their offers tie; v is the highest-index one. u0 (0.2)
    # takes another, so a y_u = 0.05 lane sees 256 ties, a count that
    # wraps a byte; y_v < 1/2 lanes see v alone on top, at a row index
    # wider than a byte
    rng = np.random.default_rng(41)
    ids = [f"v{i:03d}" for i in range(400)]
    nbrs = [ids[i] for i in np.sort(rng.choice(400, 256, replace=False))]
    inst = build_instance([(x, 1.0) for x in ids], [("u0", [nbrs[0]]), ("u", nbrs)])
    ranks = dict(zip(ids, rng.random(400)))
    ranks.update({x: 0.5 + rng.random() / 2 for x in nbrs}, u0=0.2, u=0.6)
    base, v = RankAssignment(ranks), nbrs[-1]
    grid = np.array([0.05, 0.3, 0.55, 0.7, 0.95, 1.0])
    y_u, y_v = np.repeat(grid, 6), np.tile(grid, 6)
    sweep = PairSweep(inst, simple_exp(), base, "u", v)
    # flat lanes, and 6 x 6 views of one column and one row, whose stage 1
    # breaks the ties once per (y_u, key)
    cells = (6, 6)
    for res in (sweep.run(y_u, y_v), sweep.run(np.broadcast_to(grid[:, None], cells),
                                                np.broadcast_to(grid, cells))):
        res = SweepResult(*(x.ravel() for x in (res.alpha_u, res.alpha_v, res.status)))
        for i in range(y_u.size):
            _, duals = vary_two_ranks(inst, simple_exp(), base, "u", v, y_u[i], y_v[i])
            assert (res.alpha_u[i], res.alpha_v[i]) == (duals.alpha["u"], duals.alpha[v])
            assert res.status[i] == edge_status(inst, simple_exp(), base, "u", v,
                                                y_u[i], y_v[i])


@pytest.fixture
def lane_counts(monkeypatch):
    """Lane count of every run_lanes call PairSweep makes."""
    from rankmatch import analysis

    counts = []
    run_lanes = analysis.run_lanes

    def spy(instance, spec, ranks, order, free):
        counts.append(order.shape[1])
        return run_lanes(instance, spec, ranks, order, free)

    monkeypatch.setattr(analysis, "run_lanes", spy)
    return counts


def table_keys(sweep, y_v):
    """The distinct table keys of y_v: one per shared piece that holds a
    value inside it, and one per value on a piece end."""
    on_end = np.isin(y_v, sweep.ends)
    return (np.unique(np.searchsorted(sweep.ends, y_v[~on_end])).size
            + np.unique(y_v[on_end]).size)


def test_sweep_hands_run_lanes_at_most_lane_block_lanes(lane_counts):
    from rankmatch.ranking import LANE_BLOCK

    # the table runs deg(u) lanes per distinct key, the shared piece that
    # holds y_v: none gone, and each of u's neighbors other than v. A
    # table of 10,001 knots makes 10,000 shared pieces, so 20,000 random
    # y_v with deg(u1) = 2 need more than LANE_BLOCK table lanes
    inst = build_instance([("v1", 1.0), ("v2", 1.0)],
                          [("u1", ["v1", "v2"]), ("u2", ["v2"])])
    base = RankAssignment({"v1": 0.5, "v2": 0.5, "u1": 0.4, "u2": 0.9})
    rng = np.random.default_rng(32)
    y_u, y_v = rng.random(20000), rng.random(20000)
    knots = np.linspace(0.0, 1.0, 10001)
    sweep = PairSweep(inst, piecewise_table(knots, 0.5 + 0.1 * knots), base, "u1", "v2")
    assert_sweeps_equal(sweep.run(y_u, y_v), all_lanes_sweep(sweep, y_u, y_v))
    lanes = 2 * table_keys(sweep, y_v)
    assert lanes > LANE_BLOCK
    assert max(lane_counts) == LANE_BLOCK and len(lane_counts) == -(-lanes // LANE_BLOCK)
    assert sum(lane_counts) == lanes
    # the pair_gain grid has 200 distinct y_v, but fewer shared pieces
    mids = (np.arange(200) + 0.5) / 200
    for trial in range(8):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (32, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        lane_counts.clear()
        pair_gain(inst, SPECS[trial % 2], base, u, v, 200)
        keys = table_keys(PairSweep(inst, SPECS[trial % 2], base, u, v), mids)
        assert max(lane_counts) <= LANE_BLOCK
        assert keys < 200
        assert sum(lane_counts) == len(inst.neighbors[u]) * keys


def assert_grid_equals_flat(sweep, col, row):
    """run on full-shape views of a column and a row equals run on the
    repeated column and tiled row, bit for bit, in the views' shape."""
    cells = (col.size, row.size)
    got = sweep.run(np.broadcast_to(col[:, None], cells), np.broadcast_to(row, cells))
    want = sweep.run(np.repeat(col, row.size), np.tile(row, col.size))
    for field in ("alpha_u", "alpha_v", "status"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == cells and g.dtype == w.dtype, field
        assert np.array_equal(g.ravel(), w), field


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit-weights"])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["half-exp", "simple-exp",
                                                    "adversarial", "table"])
def test_sweep_on_broadcast_views_matches_repeat_and_tile(spec, weighted):
    # axis values at 0, 1/2, 1 and the base ranks tie arrivals and ranks;
    # unit weights with simple-exp and the table's flat part tie offers;
    # y_v on a shared piece end is keyed at itself, not at a midpoint
    rng = np.random.default_rng(33)
    for trial in range(12):
        inst = random_instance(rng, weighted=weighted)
        base = sample_ranks(inst, (33, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, spec, base, u, v)
        pool = np.array([0.0, 0.5, 1.0, *base.ranks.values(), *sweep.ends])
        col = np.concatenate([pool, rng.random(int(rng.integers(1, 20)))])
        row = np.concatenate([rng.permutation(pool), rng.random(int(rng.integers(1, 20)))])
        assert_grid_equals_flat(sweep, col, row)


def test_sweep_on_broadcast_views_spans_blocks(monkeypatch):
    # (300, 200) and (3, 20000) grids exceed one block; the second also
    # exceeds it along a row, so blocks slice both axes. Stage 1 takes
    # each y_u value by each distinct key, and stage 2 every lane once
    entries, shapes = [], []
    choose, settle = PairSweep._choose, PairSweep._settle

    def spy_choose(self, out, *args):
        entries.append(out[0].shape)
        assert np.broadcast(*args[:4]).shape == out[0].shape
        return choose(self, out, *args)

    def spy_settle(self, y_v, a_v, b_u, at, chosen):
        shapes.append(np.broadcast(y_v, a_v, b_u, at).shape)
        return settle(self, y_v, a_v, b_u, at, chosen)

    monkeypatch.setattr(PairSweep, "_choose", spy_choose)
    monkeypatch.setattr(PairSweep, "_settle", spy_settle)
    rng = np.random.default_rng(34)
    for trial in range(4):
        inst = random_instance(rng, weighted=trial % 2 == 0)
        base = sample_ranks(inst, (34, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, ORACLE_SPECS[trial], base, u, v)
        pool = np.array([0.0, 0.5, 1.0, *base.ranks.values(), *sweep.ends, *rng.random(6)])
        for n_col, n_row in ((300, 200), (3, 20000)):
            col, row = rng.choice(pool, n_col), rng.choice(pool, n_row)
            assert_grid_equals_flat(sweep, col, row)
            entries.clear()
            shapes.clear()
            cells = (n_col, n_row)
            sweep.run(np.broadcast_to(col[:, None], cells), np.broadcast_to(row, cells))
            assert max(math.prod(s) for s in entries) <= sweep.block
            assert sum(math.prod(s) for s in entries) == n_col * table_keys(sweep, row)
            assert len(shapes) > 1
            assert max(math.prod(s) for s in shapes) <= sweep.block
            assert sum(math.prod(s) for s in shapes) == n_col * n_row
    # three axes fold the same way
    y_u, y_v = rng.random((4, 1, 1)), rng.random((1, 5, 6))
    res = sweep.run(np.broadcast_to(y_u, (4, 5, 6)), np.broadcast_to(y_v, (4, 5, 6)))
    flat = sweep.run(*(np.broadcast_to(y, (4, 5, 6)).ravel() for y in (y_u, y_v)))
    assert res.alpha_u.shape == (4, 5, 6)
    assert_sweeps_equal(SweepResult(*(x.ravel() for x in (res.alpha_u, res.alpha_v,
                                                         res.status))), flat)


def test_sweep_results_are_read_only():
    inst = random_instance(np.random.default_rng(5), weighted=True)
    u = inst.online_ids[0]
    sweep = PairSweep(inst, half_exp(), sample_ranks(inst, 5), u, inst.neighbors[u][0])
    res = sweep.run([0.2, 0.7], 0.4)
    for x in (res.alpha_u, res.alpha_v, res.status):
        with pytest.raises(ValueError):
            x[0] = 0


def test_sweep_rejects_lane_shapes_that_do_not_broadcast():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    sweep = PairSweep(inst, half_exp(), sample_ranks(inst, 0), "u1", "v1")
    for args in ((np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros((3, 2)))):
        with pytest.raises(AnalysisError, match="do not broadcast"):
            sweep.run(*args)
    # a scalar broadcasts against anything
    assert sweep.run(0.5, np.full((2, 3), 0.25)).status.shape == (2, 3)


def test_sweep_keeps_empty_and_scalar_lane_shapes():
    inst = build_instance([("v1", 1.0), ("v2", 2.0)], [("u1", ["v1", "v2"]), ("u2", ["v1"])])
    sweep = PairSweep(inst, half_exp(), sample_ranks(inst, 0), "u1", "v1")
    for args, shape in ((([], []), (0,)), ((np.zeros((0, 3)), 0.5), (0, 3)),
                        ((0.5, np.zeros((2, 0))), (2, 0)), ((np.float64(0.2), 0.7), (1,))):
        res = sweep.run(*args)
        for field, dtype in (("alpha_u", float), ("alpha_v", float), ("status", np.int8)):
            assert getattr(res, field).shape == shape and getattr(res, field).dtype == dtype
    assert_sweeps_equal(sweep.run(np.float64(0.2), 0.7), all_lanes_sweep(sweep, 0.2, 0.7))


def test_pair_gain_evaluates_offer_parts_once_per_axis_value(monkeypatch):
    from rankmatch import analysis
    from rankmatch.gains import GainSpec

    # b on the y_u column and a on the y_v row; the table's run_lanes calls
    # evaluate their lanes' ranks, deg(u) lanes per shared piece holding a
    # grid y_v, not the grid's y_v again
    shapes, tables = [], []
    offer_parts, run_lanes = GainSpec.offer_parts, analysis.run_lanes

    def spy(self, y):
        shapes.append(np.shape(y))
        return offer_parts(self, y)

    def spy_lanes(instance, spec, ranks, order, free):
        tables.append(ranks.shape)
        return run_lanes(instance, spec, ranks, order, free)

    monkeypatch.setattr(GainSpec, "offer_parts", spy)
    monkeypatch.setattr(analysis, "run_lanes", spy_lanes)
    rng = np.random.default_rng(35)
    for trial in range(6):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (35, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        spec = SPECS[trial % 3]
        pieces = PairSweep(inst, spec, base, u, v).mids.size
        shapes.clear()
        tables.clear()
        est = pair_gain(inst, spec, base, u, v, 120)
        assert est.estimate >= 0.0
        assert sorted(x for x in shapes if x not in tables and math.prod(x) >= 120) == [
            (1, 120), (120, 1)]
        assert sum(lanes for _, lanes in tables) <= len(inst.neighbors[u]) * pieces


def test_three_interval_structure_random_probes():
    rng = np.random.default_rng(22)
    pts = (np.arange(400) + 0.5) / 400
    for trial in range(60):
        inst = random_instance(rng, weighted=True)
        spec = SPECS[trial % 3]  # the static baseline obeys the structure too
        base = sample_ranks(inst, (22, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, spec, base, u, v)
        y_u = float(rng.random())
        statuses = sweep.run(np.full(400, y_u), pts).status
        assert np.all(np.diff(statuses) >= 0), "status interleaving detected"


def test_thresholds_single_edge():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    base = sample_ranks(inst, 2)
    prof = compute_thresholds(inst, half_exp(), base, "u1", "v1", [0.2, 0.5, 0.8])
    assert prof.beta == (0.0, 0.0, 0.0)
    assert prof.theta == (1.0, 1.0, 1.0)
    assert prof.tau == 0.0
    assert prof.gamma == 0.0


def _flip_point(left_at, tol=1e-10):
    """Reference flip point of a monotone predicate on [0, 1]: ends first."""
    from rankmatch.numerics import bisect_boundary

    if left_at(1.0):
        return 1.0
    if not left_at(0.0):
        return 0.0
    return bisect_boundary(left_at, 0.0, 1.0, tol)


@pytest.mark.parametrize("spec", SPECS, ids=["half-exp", "simple-exp", "adversarial"])
def test_tau_gamma_match_scalar_bisection_within_1e_9(spec):
    # tau: v at rank one flips from unmatched-after to not; gamma: beta at
    # arrival time one. The draws cover both at 0, at 1 and inside (0, 1).
    seen_tau, seen_gamma = set(), set()
    for i in (0, 2, 5, 23, 44):
        inst = random_instance(np.random.default_rng((9, i)), max_side=3, weighted=True)
        base = sample_ranks(inst, (9, i))
        for u in inst.online_ids:
            for v in inst.neighbors[u]:
                def status(y_u, y_v):
                    return edge_status(inst, spec, base, u, v, y_u, y_v)
                tau = _flip_point(lambda y: status(y, 1.0) == UNMATCHED_AFTER)
                gamma = _flip_point(lambda y: status(1.0, y) == MATCHED_BEFORE)
                prof = compute_thresholds(inst, spec, base, u, v, [0.5])
                est = pair_gain(inst, spec, base, u, v, grid_n=4)
                assert prof.tau == est.tau == pytest.approx(tau, abs=1e-9)
                assert prof.gamma == est.gamma == pytest.approx(gamma, abs=1e-9)
                seen_tau.add(tau if tau in (0.0, 1.0) else "inside")
                seen_gamma.add(gamma if gamma in (0.0, 1.0) else "inside")
    assert seen_tau == seen_gamma == {0.0, 1.0, "inside"}


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[s.kind for s in ORACLE_SPECS])
def test_thresholds_match_scalar_bisection_on_random_edges(spec):
    # 250 edges per kind, every other one on unit weights, where saturated
    # offers tie: beta, theta, tau and gamma within 1e-9 of the oracle
    rng = np.random.default_rng(30)
    for trial in range(250):
        inst = random_instance(rng, weighted=trial % 2 == 1)
        base = sample_ranks(inst, rng)
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        y_u = float(rng.random())

        def status(y_u, y_v):
            return edge_status(inst, spec, base, u, v, y_u, y_v)

        prof = compute_thresholds(inst, spec, base, u, v, [y_u])
        want = (_flip_point(lambda y: status(y_u, y) == MATCHED_BEFORE),
                _flip_point(lambda y: status(y_u, y) != UNMATCHED_AFTER),
                _flip_point(lambda y: status(y, 1.0) == UNMATCHED_AFTER),
                _flip_point(lambda y: status(1.0, y) == MATCHED_BEFORE))
        got = (prof.beta[0], prof.theta[0], prof.tau, prof.gamma)
        assert got == pytest.approx(want, abs=1e-9)


def assert_constant_inside_pieces(ends, status_at):
    """status_at at points strictly inside each piece equals its value at
    the piece's midpoint. Points that round onto a piece end are skipped:
    where offers of equal weights tie, the status flips within a few ulps
    of a rank."""
    for lo, hi in zip(ends, ends[1:]):
        want = status_at(0.5 * (lo + hi))
        for t in (0.01, 0.3, 0.7, 0.99):
            y = lo + t * (hi - lo)
            if lo < y < hi:
                assert status_at(y) == want, (lo, hi, y)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[s.kind for s in ORACLE_SPECS])
@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit-weights"])
def test_status_is_constant_inside_every_piece(spec, weighted):
    # the cuts are complete: along y_v at a random y_u, and along y_u with
    # v at rank one, nothing between two cuts changes v's status
    rng = np.random.default_rng(31)
    for _ in range(120):
        inst = random_instance(rng, weighted=weighted)
        base = sample_ranks(inst, rng)
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        y_u = float(rng.random())
        sweep = PairSweep(inst, spec, base, u, v)
        assert_constant_inside_pieces(
            sweep.v_pieces([y_u])[0][0],
            lambda y: edge_status(inst, spec, base, u, v, y_u, y))
        assert_constant_inside_pieces(
            sweep.u_pieces()[0],
            lambda y: edge_status(inst, spec, base, u, v, y, 1.0))


@pytest.mark.parametrize("spec", ORACLE_SPECS + (STEEP_TABLE,),
                         ids=[s.kind for s in ORACLE_SPECS] + ["steep-table"])
@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unit-weights"])
def test_gamma_reads_the_shared_pieces_alone(spec, weighted):
    # at arrival time one, u's own crossings never move beta: gamma from
    # the shared pieces equals gamma from them cut again at y_u = 1
    from rankmatch.analysis import _flip

    rng = np.random.default_rng(32)
    cut_again = 0
    for _ in range(40):
        inst = random_instance(rng, weighted=weighted)
        base = sample_ranks(inst, rng)
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        sweep = PairSweep(inst, spec, base, u, v)
        ends, mids = sweep.v_pieces([1.0])[0]
        cut_again += len(ends) > sweep.ends.size
        gamma = _flip(ends, [edge_status(inst, spec, base, u, v, 1.0, y) == MATCHED_BEFORE
                             for y in mids], "")
        assert sweep.tau_gamma()[1] == gamma
    # equal weights cross at the rival's rank, a shared cut already
    assert (cut_again > 0) == weighted


@pytest.mark.parametrize("spec", SPECS, ids=["half-exp", "simple-exp", "adversarial"])
def test_thresholds_hold_on_unit_weight_edges(spec):
    # equal weights cross at the rank itself; an inverted crossing lands a
    # few ulps off it, and beta then seems to fall between grid points
    # (draws 40 and 96 under half-exp, 68 under simple-exp)
    grid = [(i + 0.5) / 64 for i in range(64)]
    for trial in range(100):
        rng = np.random.default_rng((40, trial))
        inst = random_instance(rng, weighted=False)
        base = sample_ranks(inst, rng)
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        compute_thresholds(inst, spec, base, u, v, grid)


def test_tau_where_two_offers_to_u_cross():
    # with v at rank one, a(1) = 0, so u takes z until 1.5 b(y_u) reaches
    # a(y_z) + b(y_u): random edges rarely need this b^-1 cut
    inst = build_instance([("v", 1.5), ("z", 1.0)], [("u", ["v", "z"])])
    base = RankAssignment({"u": 0.5, "v": 0.5, "z": 0.3})
    spec = half_exp()
    assert_constant_inside_pieces(
        PairSweep(inst, spec, base, "u", "v").u_pieces()[0],
        lambda y: edge_status(inst, spec, base, "u", "v", y, 1.0))
    b_tau = spec.offer_parts_scalar(0.3)[0] / 0.5
    prof = compute_thresholds(inst, spec, base, "u", "v", [0.5])
    assert prof.tau == pytest.approx(math.log(4.0 * b_tau), abs=1e-12)
    assert 0.0 < prof.tau < LN2


def test_thresholds_refuse_interleaved_pieces(monkeypatch):
    # matched-to below y_z and matched-before above it: not three intervals
    from rankmatch import analysis

    inst = build_instance([("v", 1.0), ("z", 1.0)], [("u", ["v", "z"])])
    base = RankAssignment({"u": 0.5, "v": 0.5, "z": 0.3})
    monkeypatch.setattr(PairSweep, "run", lambda self, y_u, y_v: SweepResult(
        alpha_u=None, alpha_v=None,
        status=np.where(np.asarray(y_v) < 0.3, MATCHED_TO_U, MATCHED_BEFORE)))
    with pytest.raises(ThreeIntervalError, match="interleaving along y_v at y_u=0.5"):
        compute_thresholds(inst, half_exp(), base, "u", "v", [0.5])


def test_thresholds_make_one_sweep_run(monkeypatch):
    # one PairSweep.run takes one lane per piece of every grid point; its
    # profile is the one a scalar edge_status call per piece gives
    from rankmatch.analysis import _flip

    calls, run = [], PairSweep.run

    def spy(self, y_u, y_v):
        calls.append(np.size(y_u))
        return run(self, y_u, y_v)

    monkeypatch.setattr(PairSweep, "run", spy)
    rng = np.random.default_rng(24)
    grid = [0.0, 0.1, 0.35, 0.6, 0.85, 1.0]
    for trial in range(12):
        inst = random_instance(rng, weighted=True)
        spec = SPECS[trial % 3]
        base = sample_ranks(inst, (24, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        calls.clear()
        prof = compute_thresholds(inst, spec, base, u, v, grid)
        sweep = PairSweep(inst, spec, base, u, v)
        lanes, betas, thetas = 0, [], []
        for y_u, (ends, mids) in zip(grid, sweep.v_pieces(grid)):
            st = [edge_status(inst, spec, base, u, v, y_u, y) for y in mids]
            lanes += len(mids)
            betas.append(_flip(ends, [x == MATCHED_BEFORE for x in st], ""))
            thetas.append(_flip(ends, [x != UNMATCHED_AFTER for x in st], ""))
        assert calls == [lanes]
        assert (prof.beta, prof.theta) == (tuple(betas), tuple(thetas))


@pytest.mark.parametrize("grid, named", [
    ([], "nonempty and inside"), ([-0.1, 0.5], "nonempty and inside"),
    ([0.5, 1.5], "nonempty and inside"), ([0.2, math.nan], "nonempty and inside"),
    ([math.nan], "nonempty and inside"), ([0.5, 0.5], "strictly increasing"),
    ([0.6, 0.4], "strictly increasing"),
], ids=["empty", "below-0", "above-1", "trailing-nan", "nan", "repeat", "decreasing"])
def test_thresholds_reject_bad_grids(grid, named):
    inst = build_instance([("v1", 1.0), ("v2", 2.0)], [("u1", ["v1", "v2"])])
    with pytest.raises(AnalysisError, match=f"y_u grid must be {named}"):
        compute_thresholds(inst, half_exp(), sample_ranks(inst, 0), "u1", "v1", grid)


def test_thresholds_beta_jumps_at_competitor_arrival():
    # z grabs v whenever y_v < y_b, so beta jumps from 0 to y_b at y_z
    inst = build_instance([("v", 1.0), ("b", 1.0)],
                          [("z", ["v", "b"]), ("u", ["v"])])
    y_z, y_b = 0.4, 0.05
    base = RankAssignment({"z": y_z, "b": y_b, "u": 0.9, "v": 0.5})
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    prof = compute_thresholds(inst, half_exp(), base, "u", "v", grid)
    assert prof.theta == (1.0,) * 5          # u has no other option
    assert prof.beta[0] == 0.0               # u before z: v never pre-matched
    assert prof.beta[1] == 0.0
    # u after z: pre-matched iff y_v < y_b; equal weights cross at the rank
    assert prof.beta[2:] == (y_b,) * 3
    assert prof.gamma == y_b
    assert prof.tau == 0.0
    # spot-check the raw statuses against the profile's story
    assert edge_status(inst, half_exp(), base, "u", "v", 0.6, 0.02) == MATCHED_BEFORE
    assert edge_status(inst, half_exp(), base, "u", "v", 0.6, 0.3) == MATCHED_TO_U
    assert edge_status(inst, half_exp(), base, "u", "v", 0.2, 0.02) == MATCHED_TO_U


def test_thresholds_beta_monotone_on_random_probes():
    rng = np.random.default_rng(23)
    grid = [(i + 0.5) / 10 for i in range(10)]
    for trial in range(25):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (23, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        prof = compute_thresholds(inst, half_exp(), base, u, v, grid)
        assert all(b2 >= b1 - 1e-6 for b1, b2 in zip(prof.beta, prof.beta[1:]))
        assert all(0.0 <= b <= t + 1e-6 <= 1.0 + 1e-6
                   for b, t in zip(prof.beta, prof.theta))


def test_theta_need_not_be_monotone_regression():
    """Weighted fixture with strictly decreasing theta.

    One arrival u choosing between v (weight 1) and a heavier competitor
    (weight 1.2, curve value 0.9): equating offers gives
    curve(theta) = 0.88 - 0.2 * curve(y_u), so theta falls as u arrives
    later, then flattens once the curve saturates. The profiler must
    reproduce this without assuming monotonicity.
    """
    inst = build_instance([("v", 1.0), ("z", 1.2)], [("u", ["v", "z"])])
    y_z = math.log(1.8)  # curve value 0.9
    base = RankAssignment({"u": 0.5, "v": 0.5, "z": y_z})
    grid = [0.05, 0.25, 0.45, 0.65, 0.8, 0.95]
    prof = compute_thresholds(inst, half_exp(), base, "u", "v", grid)
    curve = half_exp().curve_scalar
    expected = [math.log(2 * (0.88 - 0.2 * curve(y))) for y in grid]
    for got, want in zip(prof.theta, expected):
        assert got == pytest.approx(want, abs=1e-7)
    # strictly decreasing until the curve saturates at ln 2, flat after
    assert prof.theta[0] > prof.theta[1] > prof.theta[2] > prof.theta[3]
    assert prof.theta[4] == pytest.approx(prof.theta[5], abs=1e-7)
    assert prof.beta == (0.0,) * 6
    assert prof.tau == 1.0


def test_thresholds_empty_middle_band():
    # a crushing competitor: u never takes v, so the matched-to band is
    # empty and beta meets theta
    inst = build_instance([("v", 0.01), ("z", 10.0)], [("u", ["v", "z"])])
    base = RankAssignment({"u": 0.5, "v": 0.5, "z": 0.9})
    prof = compute_thresholds(inst, half_exp(), base, "u", "v", [0.2, 0.5, 0.8])
    assert prof.beta == (0.0, 0.0, 0.0)
    assert prof.theta == (0.0, 0.0, 0.0)
    assert prof.tau == 1.0 and prof.gamma == 0.0
    assert edge_status(inst, half_exp(), base, "u", "v", 0.5, 0.3) == UNMATCHED_AFTER


def test_thresholds_csv_and_json():
    inst = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    prof = compute_thresholds(inst, half_exp(), sample_ranks(inst, 3), "u1", "v1", [0.5])
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "y_u,beta,theta"
    assert len(csv.splitlines()) == 2
    d = prof.to_json_dict()
    assert d["beta"] == [0.0] and d["theta"] == [1.0]


def test_pair_gain_single_edge_exact_one():
    inst = build_instance([("v1", 4.0)], [("u1", ["v1"])])
    base = sample_ranks(inst, 4)
    for grid_n in (3, 17, 50):
        est = pair_gain(inst, half_exp(), base, "u1", "v1", grid_n=grid_n)
        assert est.estimate == pytest.approx(1.0, abs=1e-15)
        assert est.corner + est.v_side + est.u_side == pytest.approx(
            est.estimate, abs=1e-12)


def test_pair_gain_decomposition_sums_exactly():
    rng = np.random.default_rng(24)
    for trial in range(10):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (24, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        est = pair_gain(inst, half_exp(), base, u, v, grid_n=60)
        assert est.corner + est.v_side + est.u_side == pytest.approx(
            est.estimate, abs=1e-9)
        assert est.estimate >= 0.0


def test_pair_gain_exceeds_floor_on_random_instances():
    # small-scale version of the worst-case guarantee check
    rng = np.random.default_rng(25)
    for trial in range(6):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (25, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        for u, v in edges[:3]:
            est = pair_gain(inst, half_exp(), base, u, v, grid_n=120)
            assert est.estimate >= 1.0 - math.log(2.0) / 2.0 - 0.01


def test_pair_gain_can_exceed_one_with_heavy_competitor():
    # u prefers the heavy neighbor, so the pair's normalized gain blows up
    inst = build_instance([("v", 0.05), ("big", 10.0)], [("u", ["v", "big"])])
    base = RankAssignment({"u": 0.5, "v": 0.5, "big": 0.5})
    est = pair_gain(inst, half_exp(), base, "u", "v", grid_n=80)
    assert est.estimate > 1.0


def test_corner_region_pairs_match_each_other():
    rng = np.random.default_rng(26)
    for trial in range(12):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (26, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        est = pair_gain(inst, half_exp(), base, u, v, grid_n=8)
        w_v = inst.weights[v]
        margin = 1e-4
        for _ in range(6):
            y_u = est.tau + (1.0 - est.tau) * rng.random()
            y_v = est.gamma + (1.0 - est.gamma) * rng.random()
            if y_u <= est.tau + margin or y_v <= est.gamma + margin:
                continue
            _, duals = vary_two_ranks(inst, half_exp(), base, u, v, y_u, y_v)
            assert duals.alpha[u] + duals.alpha[v] == pytest.approx(w_v, abs=1e-12)


def _beta_at(inst, spec, base, u, v, y_u, tol=1e-7):
    from rankmatch.numerics import bisect_boundary

    def pre(y_v):
        return edge_status(inst, spec, base, u, v, y_u, y_v) == MATCHED_BEFORE

    if not pre(0.0):
        return 0.0
    if pre(1.0):
        return 1.0
    return bisect_boundary(pre, 0.0, 1.0, tol)


def test_offline_gain_floor_via_beta_inverse():
    # for y_v = x below gamma, v's gain never falls under
    # w_v * share(x, beta^{-1}(x)), whatever the arrival time of u
    rng = np.random.default_rng(27)
    from rankmatch.numerics import bisect_boundary
    spec = half_exp()
    checked = 0
    for trial in range(40):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (27, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        est = pair_gain(inst, spec, base, u, v, grid_n=4)
        gamma = est.gamma
        if gamma < 0.05:
            continue
        x = gamma * 0.6
        binv = bisect_boundary(
            lambda y: _beta_at(inst, spec, base, u, v, y) <= x, 0.0, 1.0, 1e-6) \
            if _beta_at(inst, spec, base, u, v, 1.0) > x else 1.0
        floor = inst.weights[v] * spec.share_scalar(x, min(binv, 1.0))
        for y_u in (0.1, 0.35, 0.6, 0.85):
            _, duals = vary_two_ranks(inst, spec, base, u, v, y_u, x)
            assert duals.alpha[v] >= floor - 1e-4 * max(1.0, inst.weights[v])
        checked += 1
        if checked >= 8:
            break
    assert checked >= 3


def test_online_gain_floor_via_theta():
    # for y_u = x below tau, u's gain never falls under
    # w_v * (1 - share(theta(x), x)), whatever the rank of v
    rng = np.random.default_rng(28)
    from rankmatch.numerics import bisect_boundary
    spec = half_exp()
    checked = 0
    for trial in range(60):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (28, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        est = pair_gain(inst, spec, base, u, v, grid_n=4)
        if est.tau < 0.05:
            continue
        x = est.tau * 0.5

        def after(y_v):
            return edge_status(inst, spec, base, u, v, x, y_v) == UNMATCHED_AFTER

        theta_x = bisect_boundary(lambda y: not after(y), 0.0, 1.0, 1e-7) \
            if after(1.0) else 1.0
        floor = inst.weights[v] * (1.0 - spec.share_scalar(theta_x, x))
        for y_v in (0.05, 0.3, 0.55, 0.8, 0.99):
            _, duals = vary_two_ranks(inst, spec, base, u, v, x, y_v)
            assert duals.alpha[u] >= floor - 1e-4 * max(1.0, inst.weights[v])
        checked += 1
        if checked >= 6:
            break
    assert checked >= 2


def test_pair_gain_rejects_zero_weight_and_bad_grid():
    inst = build_instance([("v1", 0.0)], [("u1", ["v1"])])
    base = sample_ranks(inst, 5)
    with pytest.raises(AnalysisError, match="zero-weight"):
        pair_gain(inst, half_exp(), base, "u1", "v1", grid_n=10)
    inst2 = build_instance([("v1", 1.0)], [("u1", ["v1"])])
    with pytest.raises(AnalysisError, match="grid_n"):
        pair_gain(inst2, half_exp(), sample_ranks(inst2, 0), "u1", "v1", grid_n=1)
