"""Command-line front end.

Subcommands: generate, simulate, pair-gain, thresholds, bounds, integral,
verify. Each cmd_* function returns its result: a report object, a dict,
or, for bounds heatmap, an iterator over the lines of its CSV text, so
that each row is written as soon as it is evaluated; main alone renders
it, writes it and sets the exit code. Every run is reproducible: the same
arguments and seed produce byte-identical output except for the timestamp
field of simulate/verify reports. Exit codes: 0 success, 1 property
violation or engine check failure, 2 configuration error or arithmetic
overflow.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .analysis import ThreeIntervalError, compute_thresholds, pair_gain
from .bounds import (bound_function, heatmap_rows, integral_bound,
                     minimize_bound, profiles_from_json)
from .core import sample_ranks, validate_instance
from .experiments import (ExperimentConfig, LaneCheckError, run_property_suite,
                          run_ratio_experiment)
from .gains import GainSpec, gain_spec_from_json, named_spec
from .generators import generate_instance


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, to the file out or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None


def _load_spec(name: str) -> GainSpec:
    if name.endswith(".json") or "/" in name:
        return gain_spec_from_json(_read_json(name, "gain spec"))
    return named_spec(name)


def _load_instance(args):
    if args.gen is None:
        if args.n is not None or args.p is not None:
            raise ValueError("--n and --p size a generated instance; "
                             "they do not go with --instance")
        return validate_instance(_read_json(args.instance, "instance"))
    params = {"n": 10 if args.n is None else args.n}
    if args.p is not None:
        params["p"] = args.p
    return generate_instance(args.gen, params, args.seed)


def _seed(text: str) -> int:
    """The --seed type: numpy seeds are non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="instance JSON file")
    source.add_argument("--gen", help="generator kind "
                        "(complete|upper_triangular|random|weighted_random)")
    p.add_argument("--n", type=int, default=None, help="generator size (10)")
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--seed", type=_seed, default=0)


def _add_spec_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default="half-exp",
                   help="simple-exp|half-exp|adversarial or a JSON file")


def _add_output_flags(p: argparse.ArgumentParser, fmt=()) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    if fmt:
        p.add_argument("--format", choices=fmt, default=fmt[0])


def _parse_edge(edge: str) -> tuple[str, str]:
    parts = edge.split(",")
    if len(parts) != 2:
        raise ValueError(f"--edge wants ONLINE,OFFLINE, got {edge!r}")
    return parts[0].strip(), parts[1].strip()


def cmd_generate(args):
    return _load_instance(args)


def cmd_simulate(args):
    return run_ratio_experiment(ExperimentConfig(
        instance=_load_instance(args), spec=_load_spec(args.spec), trials=args.trials,
        seed=args.seed, label=args.gen or args.instance))


def _first_edge(instance) -> tuple[str, str]:
    for u in instance.online_ids:
        for v in instance.neighbors[u]:
            return u, v
    raise ValueError("instance has no edges")


def _edge_inputs(args):
    """(instance, spec, base ranks, online id, offline id) of pair-gain and
    thresholds, loaded in this order, so the first bad input is the one
    reported."""
    instance = _load_instance(args)
    spec = _load_spec(args.spec)
    ranks = sample_ranks(instance, (args.seed, 0))
    u, v = _first_edge(instance) if args.edge is None else _parse_edge(args.edge)
    return instance, spec, ranks, u, v


def cmd_pair_gain(args):
    return pair_gain(*_edge_inputs(args), grid_n=args.grid)


def cmd_thresholds(args):
    return compute_thresholds(*_edge_inputs(args),
                              [(i + 0.5) / args.grid for i in range(args.grid)])


def cmd_bounds_evaluate(args):
    value = bound_function(args.which)(_load_spec(args.spec), args.tau, args.gamma)
    return {"which": args.which, "tau": args.tau, "gamma": args.gamma, "value": value}


def cmd_bounds_minimize(args):
    point = minimize_bound(_load_spec(args.spec), args.which)
    return {"which": args.which, "tau": point.tau, "gamma": point.gamma,
            "value": point.value}


def cmd_bounds_heatmap(args):
    rows = heatmap_rows(_load_spec(args.spec), args.which, args.grid)
    return itertools.chain(["tau,gamma,value\n"],
                           (f"{t!r},{g!r},{v!r}\n" for t, g, v in rows))


def cmd_integral(args):
    spec = _load_spec(args.spec)
    profiles = profiles_from_json(_read_json(args.profiles, "profiles"))
    return {"value": integral_bound(spec, profiles), "profiles": profiles.to_json_dict()}


def cmd_verify(args):
    return run_property_suite(args.seed, _load_spec(args.spec), args.scale)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; main reuses it.

    Each subcommand's func is a cmd_* function, which looks up the names it
    calls when it runs and returns its result for main to write."""
    parser = argparse.ArgumentParser(
        prog="rankmatch",
        description="Weighted online bipartite matching under random arrivals: "
                    "simulator, per-edge analysis, and bound calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit an instance as JSON")
    _add_instance_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="Monte-Carlo ratio experiment")
    _add_instance_flags(p)
    _add_spec_flag(p)
    _add_output_flags(p, fmt=("json", "text"))
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pair-gain", help="expected combined gain of one edge")
    _add_instance_flags(p)
    _add_spec_flag(p)
    _add_output_flags(p, fmt=("json", "text"))
    p.add_argument("--edge", help="ONLINE,OFFLINE ids (default: first edge)")
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(func=cmd_pair_gain)

    p = sub.add_parser("thresholds", help="beta/theta profile of one edge")
    _add_instance_flags(p)
    _add_spec_flag(p)
    _add_output_flags(p, fmt=("csv", "json"))
    p.add_argument("--edge", help="ONLINE,OFFLINE ids (default: first edge)")
    p.add_argument("--grid", type=int, default=16)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("bounds", help="evaluate/minimize/heatmap a bound surface "
                       "(evaluate and minimize print JSON, heatmap CSV)")
    actions = p.add_subparsers(dest="action", required=True)
    for action, func in (("evaluate", cmd_bounds_evaluate),
                         ("minimize", cmd_bounds_minimize),
                         ("heatmap", cmd_bounds_heatmap)):
        a = actions.add_parser(action)
        _add_spec_flag(a)
        _add_output_flags(a)
        a.add_argument("--which", choices=("simple", "improved"), default="improved")
        a.set_defaults(func=func)
    actions.choices["evaluate"].add_argument("--tau", type=float, default=0.0)
    actions.choices["evaluate"].add_argument("--gamma", type=float, default=0.0)
    actions.choices["heatmap"].add_argument("--grid", type=int, default=64)

    p = sub.add_parser("integral", help="ratio integral over threshold profiles")
    _add_spec_flag(p)
    _add_output_flags(p)
    p.add_argument("--profiles", required=True,
                   help='JSON file {"theta": {...}, "beta": {...}}')
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("verify", help="run the quantified property suites")
    _add_spec_flag(p)
    p.add_argument("--seed", type=_seed, default=0)
    _add_output_flags(p, fmt=("json", "text"))
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale all trial counts (e.g. 0.01 for a smoke run)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; render its result by --format (JSON without
    one), write it to --out or stdout, and return the exit code."""
    args = build_parser().parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        result = args.func(args)
        if isinstance(result, Iterator):
            text = result
        elif fmt == "json":
            text = _json_text(result if isinstance(result, dict) else result.to_json_dict())
        else:
            text = result.to_text() if fmt == "text" else result.to_csv()
        _emit(text, args.out)
    except (ValueError, OverflowError, OSError, ThreeIntervalError, LaneCheckError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        # the two engine checks are assertion-level failures
        return 1 if isinstance(exc, AssertionError) else 2
    return 0 if getattr(result, "passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
