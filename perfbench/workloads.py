"""The four benchmark workloads: inputs from a seed, one operation, its gate.

Each workload drives one research path of rankmatch through its public entry
point. A workload builds a fixed list of operations from the workload seed
(`build`), runs one operation (`call`, the only code inside the timed region),
counts the units of work an operation completed (`units`), and checks an
outcome (`check`, run after the timed loop). `deep_check` recomputes a
deterministic sample of outcomes with the scalar reference. `inject_fault`
swaps in a deliberately broken component, so the gate can be shown to fail.

rankmatch is reached through its modules (`rm_cli.main`, `rm_analysis.pair_gain`)
at call time, so the tracer's re-bindings are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from rankmatch import analysis as rm_analysis
from rankmatch import bounds as rm_bounds
from rankmatch import cli as rm_cli
from rankmatch import core as rm_core
from rankmatch import experiments as rm_experiments
from rankmatch import gains as rm_gains
from rankmatch import generators as rm_generators
from rankmatch import numerics as rm_numerics
from rankmatch import offline as rm_offline
from rankmatch import ranking as rm_ranking

from tracing import rebind

SIMPLE_CONSTANT = 0.643469     # worst case of the simple surface, simple-exp
IMPROVED_CONSTANT = 0.653426   # worst case of the improved surface, half-exp
CONSTANT_TOL = 1e-4
# acceptance floors of the per-edge pair gain at grid 200
PAIR_GAIN_FLOORS = {"half-exp": 1.0 - rm_gains.LN2 / 2.0 - 0.005,
                    "simple-exp": 1.25 - math.exp(-0.5) - 0.005}


def cli_call(argv: list[str]) -> tuple[int, str]:
    """rankmatch.cli.main in-process, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rm_cli.main(argv)
    return code, out.getvalue()


def _op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def drop_last_match(engine):
    """Broken engine: the last match of every run is dropped from the
    matching and from the match times."""
    def broken(instance, spec, ranks, collect_offers=True):
        result, trace = engine(instance, spec, ranks, collect_offers=collect_offers)
        if not result.pairs:
            return result, trace
        _, v = result.pairs[-1]
        match_time = dict(trace.match_time)
        match_time[v] = math.inf
        return (rm_core.matching_result(instance, result.pairs[:-1]),
                rm_ranking.SimulationTrace(arrivals=trace.arrivals,
                                           match_time=match_time))
    return broken


class SimulateUT100:
    """`rankmatch simulate` on upper_triangular(100), 200 trials per op."""

    name = "simulate-ut100"
    n = 100
    trials = 200
    spec = "half-exp"
    trace_ops = 12
    deep_every = 16     # every 16th op is recomputed with the scalar oracle

    def build(self, seed: int) -> list[int]:
        return _op_seeds(seed, 4096)

    def argv(self, op_seed: int) -> list[str]:
        return ["simulate", "--gen", "upper_triangular", "--n", str(self.n),
                "--spec", self.spec, "--trials", str(self.trials),
                "--seed", str(op_seed)]

    def call(self, op_seed):
        return cli_call(self.argv(op_seed))

    def units(self, op_seed, outcome) -> int:
        return self.trials

    def check(self, op_seed, outcome) -> str | None:
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        rep = json.loads(text)
        if rep["trials"] != self.trials or rep["config"]["seed"] != op_seed:
            return "report echoes the wrong trials or seed"
        if not 0.0 < rep["mean_alg"] <= rep["opt_value"]:
            return f"mean ALG {rep['mean_alg']} outside (0, OPT]"
        return None

    def deep_check(self, index: int, op_seed, outcome) -> str | None:
        """Recompute every trial with sample_ranks + run_ranking + fsum."""
        if index % self.deep_every:
            return None
        rep = json.loads(outcome[1])
        instance = rm_generators.generate_instance(
            "upper_triangular", {"n": self.n}, op_seed)
        spec = rm_gains.named_spec(self.spec)
        opt = rm_offline.solve_opt(instance).value
        if rep["opt_value"] != opt:
            return f"OPT {rep['opt_value']} != {opt}"
        alg = [rm_ranking.run_ranking(instance, spec,
                                      rm_core.sample_ranks(instance, (op_seed, t)),
                                      collect_offers=False)[0].total_weight
               for t in range(self.trials)]
        if max(alg) > opt:
            return f"ALG {max(alg)} exceeds OPT {opt}"
        if rep["mean_alg"] != math.fsum(alg) / len(alg):
            return f"mean ALG {rep['mean_alg']} != oracle {math.fsum(alg) / len(alg)}"
        ratio = math.fsum(a / opt for a in alg) / len(alg)
        if rep["mean_ratio"] != ratio:
            return f"mean ratio {rep['mean_ratio']} != oracle {ratio}"
        return None

    def inject_fault(self) -> None:
        engine = rm_ranking.run_ranking
        rebind(engine, drop_last_match(engine), [rm_experiments])


class PairGainCorpus:
    """`analysis.pair_gain` at grid 200 over the criterion-3 corpus shape:
    random_instance(max_side=6, weighted=True), three base-rank draws per
    instance, every edge. The ops are shuffled, so that a run, which covers
    only part of the corpus, still draws from every instance: op cost grows
    with instance size, and 300 instances in shuffled order keep the mix of
    sizes in a run nearly the same from seed to seed. Specs alternate
    half-exp / simple-exp in run order."""

    name = "pair-gain-corpus"
    instances = 300
    draws = 3
    grid_n = 200
    specs = ("half-exp", "simple-exp")
    trace_ops = 240
    spot_lanes = 2      # lanes per op re-run with vary_two_ranks

    def build(self, seed: int) -> list[tuple]:
        pairs = []
        for i in range(self.instances):
            instance = rm_generators.random_instance(
                np.random.default_rng((seed, i)), max_side=6, weighted=True)
            edges = [(u, v) for u in instance.online_ids
                     for v in instance.neighbors[u]]
            for draw in range(self.draws):
                base = rm_core.sample_ranks(instance, (seed, i, draw))
                pairs += [(instance, base, u, v) for u, v in edges]
        order = np.random.default_rng(seed).permutation(len(pairs))
        specs = [(name, rm_gains.named_spec(name)) for name in self.specs]
        ops = []
        for k, j in enumerate(order):
            instance, base, u, v = pairs[j]
            name, spec = specs[k % len(specs)]
            ops.append((instance, spec, name, base, u, v))
        return ops

    def call(self, op):
        instance, spec, _, base, u, v = op
        return rm_analysis.pair_gain(instance, spec, base, u, v, grid_n=self.grid_n)

    def units(self, op, outcome) -> int:
        return 1

    def check(self, op, est) -> str | None:
        floor = PAIR_GAIN_FLOORS[op[2]]
        if not est.estimate >= floor:
            return f"estimate {est.estimate} below the {op[2]} floor {floor}"
        parts = est.corner + est.v_side + est.u_side
        if abs(parts - est.estimate) > 1e-12:
            return f"corner + v_side + u_side = {parts} != estimate {est.estimate}"
        return None

    def deep_check(self, index: int, op, est) -> str | None:
        """Re-run a few grid lanes of this op with the scalar vary_two_ranks."""
        instance, spec, _, base, u, v = op
        rng = np.random.default_rng(index)
        cells = rng.integers(0, self.grid_n, size=(self.spot_lanes, 2))
        y_u, y_v = (cells + 0.5) / self.grid_n
        lanes = rm_analysis.PairSweep(instance, spec, base, u, v).run(y_u, y_v)
        for k in range(self.spot_lanes):
            _, shares = rm_analysis.vary_two_ranks(instance, spec, base, u, v,
                                                   y_u[k], y_v[k])
            got = (lanes.alpha_u[k], lanes.alpha_v[k])
            want = (shares.alpha[u], shares.alpha[v])
            if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
                return (f"lane (y_u={y_u[k]}, y_v={y_v[k]}) gains {got} "
                        f"!= scalar {want}")
        return None

    def inject_fault(self) -> None:
        engine = rm_ranking.run_ranking
        rebind(engine, drop_last_match(engine), [rm_analysis])


class BoundsMinimize:
    """Both CLI bound minimizations of acceptance criterion 1."""

    name = "bounds-minimize"
    runs = (("simple-exp", "simple", SIMPLE_CONSTANT),
            ("half-exp", "improved", IMPROVED_CONSTANT))
    trace_ops = 1

    def build(self, seed: int) -> list[None]:
        return [None]   # deterministic: the seed is unused

    def call(self, op):
        return [cli_call(["bounds", "minimize", "--spec", spec, "--which", which])
                for spec, which, _ in self.runs]

    def units(self, op, outcome) -> int:
        return len(self.runs)

    def check(self, op, outcome) -> str | None:
        for (spec, which, constant), (code, text) in zip(self.runs, outcome):
            if code != 0:
                return f"{which}/{spec}: exit code {code}"
            value = json.loads(text)["value"]
            if abs(value - constant) > CONSTANT_TOL:
                return f"{which}/{spec}: minimum {value} not within {CONSTANT_TOL} of {constant}"
        return None

    def deep_check(self, index: int, op, outcome) -> str | None:
        return None

    def inject_fault(self) -> None:
        """Quadrature that loses 1% of every integral."""
        integrate = rm_numerics.integrate

        def lossy(*args, **kwargs):
            return 0.99 * integrate(*args, **kwargs)
        rebind(integrate, lossy, [rm_bounds])


class VerifySuite:
    """`rankmatch verify --scale 0.01`: the verify mix in small ops."""

    name = "verify-suite"
    scale = "0.01"
    trace_ops = 16

    def build(self, seed: int) -> list[int]:
        return _op_seeds(seed, 4096)

    def call(self, op_seed):
        return cli_call(["verify", "--seed", str(op_seed), "--scale", self.scale])

    def units(self, op_seed, outcome) -> int:
        return sum(s["trials"] for s in json.loads(outcome[1])["suites"])

    def check(self, op_seed, outcome) -> str | None:
        code, text = outcome
        rep = json.loads(text)
        bad = [f"{s['name']}: {s['violations']} ({s['first_violation']})"
               for s in rep["suites"] if s["violations"]]
        if code != 0 or bad:
            return f"exit code {code}, violations {bad}"
        return None

    def deep_check(self, index: int, op, outcome) -> str | None:
        return None

    def inject_fault(self) -> None:
        engine = rm_ranking.run_ranking
        rebind(engine, drop_last_match(engine), [rm_experiments])


WORKLOADS = {w.name: w for w in (SimulateUT100(), PairGainCorpus(),
                                 BoundsMinimize(), VerifySuite())}
