"""Monte-Carlo ratio experiments and the quantified property suite.

Per-trial randomness comes from numpy SeedSequence streams keyed by
(master seed, trial index) for ratio experiments and (master seed, suite
tag, trial index) for the suites, so any single trial reproduces in
isolation and parallel or serial execution order cannot change results.

A ratio experiment runs its trials as ranking.run_lanes lanes, blocks of
them at a time, with offer parts from GainSpec.offer_parts (bit for bit
the scalar ones), and re-runs trial 0 through the scalar run_ranking
as a check of its partners and its ALG; the property suites call
run_ranking trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .analysis import AnalysisError, ThreeIntervalError, compute_thresholds
from .core import Instance, check_dual_shares, rank_draws, sample_ranks
from .gains import GainSpec, simple_exp
from .generators import random_instance
from .offline import solve_opt
from .ranking import assign_duals, lane_block, run_lanes, run_ranking


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class DegenerateInstanceError(ValueError):
    """The offline optimum is zero, so the ratio is undefined."""


class LaneCheckError(AssertionError):
    """The lane engine and the scalar run_ranking disagree on trial 0.

    This signals an engine bug, not bad input, so it is an assertion-level
    failure."""


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class ExperimentConfig:
    """One ratio experiment: instance, gain spec, trial count, master seed."""

    instance: Instance
    spec: GainSpec
    trials: int
    seed: int
    label: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class RatioReport:
    """Per-trial values and the measured mean ratio of one experiment."""

    alg_values: tuple[float, ...]
    opt_value: float
    mean_ratio: float
    std_error: float
    config_echo: dict
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "opt_value": self.opt_value,
            "mean_ratio": self.mean_ratio,
            "std_error": self.std_error,
            "trials": len(self.alg_values),
            "mean_alg": math.fsum(self.alg_values) / len(self.alg_values),
            "timestamp": self.timestamp,
        }

    def to_text(self) -> str:
        d = self.to_json_dict()
        lines = [
            f"trials       {d['trials']}",
            f"opt value    {d['opt_value']:.6f}",
            f"mean alg     {d['mean_alg']:.6f}",
            f"mean ratio   {d['mean_ratio']:.6f}",
            f"std error    {d['std_error']:.6f}",
            f"timestamp    {d['timestamp']}",
        ]
        return "\n".join(lines) + "\n"


def _trial_partners(instance: Instance, spec: GainSpec, seed: int,
                    trials: range) -> np.ndarray:
    """run_lanes with one lane per trial: trial t's ranks are the
    rank_draws(instance, (seed, t)) sample_ranks assigns, and the offer
    parts come from offer_parts, bit for bit run_ranking's
    offer_parts_scalar values, so every lane makes run_ranking's choices.
    Returns the (online, T) partner indices."""
    n_off = len(instance.offline)
    ranks = np.empty((n_off + len(instance.online), len(trials)))
    for k, t in enumerate(trials):
        ranks[:, k] = rank_draws(instance, (seed, t))
    off, on = ranks[:n_off], ranks[n_off:]
    order = np.argsort(on, axis=0, kind="stable")
    return run_lanes(instance, order, off, spec.offer_parts(on)[1],
                     spec.offer_parts(off)[0], np.ones(off.shape, dtype=bool))


def _check_trial_zero(instance: Instance, spec: GainSpec, seed: int,
                      lane: list[int], alg: float) -> None:
    """Raise LaneCheckError unless run_ranking on trial 0 matches every
    online vertex to the partner lane 0 gave it and its total_weight is
    lane 0's ALG, exactly: both are fsums, so their order cannot matter."""
    result, _ = run_ranking(instance, spec, sample_ranks(instance, (seed, 0)),
                            collect_offers=False)
    took = dict(result.pairs)
    for u, p in zip(instance.online_ids, lane):
        lane_v = instance.offline_ids[p] if p >= 0 else None
        if took.get(u) != lane_v:
            raise LaneCheckError(
                f"trial 0 (seed={seed}): {u} took {lane_v} in run_lanes "
                f"but {took.get(u)} in run_ranking")
    if alg != result.total_weight:
        raise LaneCheckError(
            f"trial 0 (seed={seed}): ALG {alg!r} in run_lanes "
            f"but {result.total_weight!r} in run_ranking")


def run_ratio_experiment(config: ExperimentConfig) -> RatioReport:
    """Mean ALG/OPT over sampled rank assignments; OPT computed once.

    Trial t runs on sample_ranks(instance, (seed, t)) as one run_lanes
    lane, in blocks of lane_block(rows) lanes; its ALG is the fsum of its
    matched weights, as in matching_result. Trial 0 is also run through
    run_ranking, and LaneCheckError is raised if the two disagree on a
    partner or on ALG."""
    instance, spec, seed = config.instance, config.spec, config.seed
    opt = solve_opt(instance)
    if opt.value == 0.0:
        raise DegenerateInstanceError("optimal value is zero; ratio undefined")
    weights = [w for _, w in instance.offline]
    block = lane_block(max(len(instance.online), len(instance.offline)))
    alg = []
    for start in range(0, config.trials, block):
        partner = _trial_partners(instance, spec, seed,
                                  range(start, min(start + block, config.trials)))
        alg += [math.fsum([weights[p] for p in lane if p >= 0])
                for lane in partner.T.tolist()]
        if start == 0:
            _check_trial_zero(instance, spec, seed, partner[:, 0].tolist(), alg[0])
    ratios = [a / opt.value for a in alg]
    mean_ratio = math.fsum(ratios) / len(ratios)
    if len(ratios) > 1:
        var = math.fsum((r - mean_ratio) ** 2 for r in ratios) / (len(ratios) - 1)
        std_error = math.sqrt(var / len(ratios))
    else:
        std_error = 0.0
    echo = {"label": config.label, "trials": config.trials, "seed": seed,
            "spec": spec.to_json_dict()}
    return RatioReport(alg_values=tuple(alg), opt_value=opt.value,
                       mean_ratio=mean_ratio, std_error=std_error,
                       config_echo=echo, timestamp=_timestamp())


# -- property suite --------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    violations: int
    first_violation: str | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class PropertyReport:
    suites: tuple[SuiteResult, ...]
    seed: int
    timestamp: str

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "suites": [{"name": s.name, "trials": s.trials,
                        "violations": s.violations,
                        "first_violation": s.first_violation}
                       for s in self.suites],
            "timestamp": self.timestamp,
        }

    def to_text(self) -> str:
        lines = []
        for s in self.suites:
            status = "pass" if s.passed else "FAIL"
            lines.append(f"{s.name:<22} {s.trials:>7} trials  {status}")
            if s.first_violation:
                lines.append(f"    first violation: {s.first_violation}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        lines.append(f"timestamp: {self.timestamp}")
        return "\n".join(lines) + "\n"


def _trial_rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, trial))


def check_monotonicity_trial(seed: int, trial: int, spec: GainSpec) -> str | None:
    """One raise-the-offline-rank probe of the stays-unmatched property.

    Odd trials switch to unit weights with the saturating simple-exp curve,
    the regime where exact offer ties occur, so tie-break regressions are
    caught as well. Returns a reproduction hint on violation, else None.
    """
    rng = _trial_rng(seed, 101, trial)
    if trial % 2 == 0:
        trial_spec, weighted = spec, True
    else:
        trial_spec, weighted = simple_exp(), False
    instance = random_instance(rng, weighted=weighted)
    ranks = sample_ranks(instance, rng)
    _, trace = run_ranking(instance, trial_spec, ranks, collect_offers=False)
    u = instance.online_ids[int(rng.integers(len(instance.online_ids)))]
    y_u = ranks.ranks[u]
    free = [v for v in instance.offline_ids if trace.match_time[v] >= y_u]
    if not free:
        return None
    v = free[int(rng.integers(len(free)))]
    y_v = ranks.ranks[v]
    raised = y_v + (1.0 - y_v) * float(rng.random())
    _, trace2 = run_ranking(instance, trial_spec, ranks.override({v: raised}),
                            collect_offers=False)
    if trace2.match_time[v] < y_u:
        return (f"trial={trial}: raising rank of {v} from {y_v:.6f} to "
                f"{raised:.6f} matched it before {u} arrives (seed={seed})")
    return None


def check_arrival_trial(seed: int, trial: int, spec: GainSpec) -> str | None:
    """One lower-the-arrival-time probe of the no-delay property.

    Moving one online vertex u earlier never delays the match of an offline
    vertex that was originally matched strictly before u's original arrival
    time. Vertices matched at or after that moment carry no such guarantee:
    u's own late match is withdrawn (u may now prefer a neighbor that used
    to be gone by the time it arrived), and that substitution can cascade
    through later arrivals. Random cascades delaying a protected vertex
    would be caught here.
    """
    rng = _trial_rng(seed, 202, trial)
    instance = random_instance(rng, weighted=True)
    ranks = sample_ranks(instance, rng)
    _, trace = run_ranking(instance, spec, ranks, collect_offers=False)
    u = instance.online_ids[int(rng.integers(len(instance.online_ids)))]
    original = ranks.ranks[u]
    lowered = original * float(rng.random())
    _, trace2 = run_ranking(instance, spec, ranks.override({u: lowered}),
                            collect_offers=False)
    for v in instance.offline_ids:
        if trace.match_time[v] < original and \
                trace2.match_time[v] > trace.match_time[v]:
            return (f"trial={trial}: lowering arrival of {u} from "
                    f"{original:.6f} to {lowered:.6f} delayed {v}'s match "
                    f"(seed={seed})")
    return None


def check_accounting_trial(seed: int, trial: int, spec: GainSpec) -> str | None:
    """One exact-accounting probe: the dual shares must recompose ALG."""
    rng = _trial_rng(seed, 303, trial)
    instance = random_instance(rng, weighted=True)
    ranks = sample_ranks(instance, rng)
    result, _ = run_ranking(instance, spec, ranks, collect_offers=False)
    shares = assign_duals(instance, result, spec, ranks)
    try:
        check_dual_shares(instance, result, shares)
    except AssertionError as exc:
        return f"trial={trial}: {exc} (seed={seed})"
    return None


def check_structure_probe(seed: int, trial: int, spec: GainSpec) -> str | None:
    """One threshold-structure probe of a random edge.

    compute_thresholds itself enforces the three-interval pattern on every
    piece of the rank axis, beta's monotonicity and theta's absorbing
    saturation, so any structural break surfaces as an exception here.
    """
    rng = _trial_rng(seed, 404, trial)
    instance = random_instance(rng, weighted=True)
    ranks = sample_ranks(instance, rng)
    edges = [(u, v) for u in instance.online_ids
             for v in instance.neighbors[u]]
    u, v = edges[int(rng.integers(len(edges)))]
    grid = [(i + 0.5) / 12 for i in range(12)]
    try:
        compute_thresholds(instance, spec, ranks, u, v, grid)
    except (ThreeIntervalError, AnalysisError) as exc:
        return f"trial={trial}: {exc} (seed={seed})"
    return None


# (suite name, check, trials at scale 1)
_SUITES = (
    ("monotonicity", check_monotonicity_trial, 10_000),
    ("arrival-benignity", check_arrival_trial, 10_000),
    ("dual-accounting", check_accounting_trial, 100_000),
    ("threshold-structure", check_structure_probe, 1_000),
)


def _run_suite(name: str, trials: int, check, seed: int, spec: GainSpec) -> SuiteResult:
    violations = 0
    first = None
    for t in range(trials):
        hint = check(seed, t, spec)
        if hint is not None:
            violations += 1
            if first is None:
                first = hint
    return SuiteResult(name=name, trials=trials, violations=violations,
                       first_violation=first)


def run_property_suite(seed: int, spec: GainSpec, scale: float = 1.0) -> PropertyReport:
    """Run all quantified property suites, each at max(1, int(trials * scale))
    trials. The engine checks call this module's run_ranking, so a mutation
    test swaps in a deliberately broken engine by rebinding
    experiments.run_ranking."""
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    suites = tuple(_run_suite(name, max(1, int(trials * scale)), check, seed, spec)
                   for name, check, trials in _SUITES)
    return PropertyReport(suites=suites, seed=seed, timestamp=_timestamp())
