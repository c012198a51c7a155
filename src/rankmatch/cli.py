"""Command-line front end.

Subcommands: generate, simulate, pair-gain, thresholds, bounds, integral,
verify. Every run is reproducible: the same arguments and seed produce
byte-identical output except for the timestamp field of simulate/verify
reports. Exit codes: 0 success, 1 property violation or engine check
failure, 2 configuration error or arithmetic overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .analysis import ThreeIntervalError, compute_thresholds, pair_gain
from .bounds import (bound_function, heatmap_rows, integral_bound,
                     minimize_bound, profiles_from_json)
from .core import sample_ranks, validate_instance
from .experiments import (ExperimentConfig, LaneCheckError, run_property_suite,
                          run_ratio_experiment)
from .gains import GainSpec, gain_spec_from_json, named_spec
from .generators import generate_instance


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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
    if args.instance:
        return validate_instance(_read_json(args.instance, "instance"))
    if args.gen:
        params = {"n": args.n}
        if args.p is not None:
            params["p"] = args.p
        return generate_instance(args.gen, params, args.seed)
    raise ValueError("provide --instance FILE or --gen KIND --n N")


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
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--gen", help="generator kind "
                   "(complete|upper_triangular|random|weighted_random)")
    p.add_argument("--n", type=int, default=10, help="generator size")
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


def cmd_generate(args) -> int:
    instance = _load_instance(args)
    _emit(_json_text(instance.to_json_dict()), args.out)
    return 0


def cmd_simulate(args) -> int:
    instance = _load_instance(args)
    config = ExperimentConfig(instance=instance, spec=_load_spec(args.spec),
                              trials=args.trials, seed=args.seed,
                              label=args.gen or args.instance or "")
    report = run_ratio_experiment(config)
    if args.format == "text":
        _emit(report.to_text(), args.out)
    else:
        _emit(_json_text(report.to_json_dict()), args.out)
    return 0


def cmd_pair_gain(args) -> int:
    instance = _load_instance(args)
    spec = _load_spec(args.spec)
    ranks = sample_ranks(instance, (args.seed, 0))
    u, v = _first_edge(instance) if args.edge is None else _parse_edge(args.edge)
    est = pair_gain(instance, spec, ranks, u, v, grid_n=args.grid)
    if args.format == "text":
        d = est.to_json_dict()
        text = "".join(f"{k:<10} {d[k]}\n" for k in
                       ("online", "offline", "grid_n", "estimate",
                        "corner", "v_side", "u_side", "tau", "gamma"))
        _emit(text, args.out)
    else:
        _emit(_json_text(est.to_json_dict()), args.out)
    return 0


def _first_edge(instance) -> tuple[str, str]:
    for u in instance.online_ids:
        for v in instance.neighbors[u]:
            return u, v
    raise ValueError("instance has no edges")


def cmd_thresholds(args) -> int:
    instance = _load_instance(args)
    spec = _load_spec(args.spec)
    ranks = sample_ranks(instance, (args.seed, 0))
    u, v = _first_edge(instance) if args.edge is None else _parse_edge(args.edge)
    grid = [(i + 0.5) / args.grid for i in range(args.grid)]
    profile = compute_thresholds(instance, spec, ranks, u, v, grid)
    if args.format == "csv":
        _emit(profile.to_csv(), args.out)
    else:
        _emit(_json_text(profile.to_json_dict()), args.out)
    return 0


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec)
    if args.action == "evaluate":
        value = bound_function(args.which)(spec, args.tau, args.gamma)
        _emit(_json_text({"which": args.which, "tau": args.tau,
                          "gamma": args.gamma, "value": value}), args.out)
        return 0
    if args.action == "minimize":
        point = minimize_bound(spec, args.which)
        _emit(_json_text({"which": args.which, "tau": point.tau,
                          "gamma": point.gamma, "value": point.value}), args.out)
        return 0
    rows = heatmap_rows(spec, args.which, args.grid)
    lines = ["tau,gamma,value"]
    lines += [f"{t!r},{g!r},{v!r}" for t, g, v in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_integral(args) -> int:
    spec = _load_spec(args.spec)
    profiles = profiles_from_json(_read_json(args.profiles, "profiles"))
    value = integral_bound(spec, profiles)
    _emit(_json_text({"value": value,
                      "profiles": profiles.to_json_dict()}), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_property_suite(args.seed, _load_spec(args.spec), args.scale)
    if args.format == "text":
        _emit(report.to_text(), args.out)
    else:
        _emit(_json_text(report.to_json_dict()), args.out)
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; main reuses it.

    Each subcommand's func is a cmd_* function, which looks up the names it
    calls when it runs."""
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
    for action in ("evaluate", "minimize", "heatmap"):
        a = actions.add_parser(action)
        _add_spec_flag(a)
        _add_output_flags(a)
        a.add_argument("--which", choices=("simple", "improved"), default="improved")
        a.set_defaults(func=cmd_bounds)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ThreeIntervalError, LaneCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
