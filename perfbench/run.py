"""rankmatch benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rankmatch is imported from its
`src/`. With `--trace 0` the run times operations for S seconds and reports
the end-to-end metrics. It starts three fresh processes in turn and times
each from spawn to the moment it is ready for its first timed op; `setup_s`
is the median of the three. Each then runs the timed loop for a third of S,
and `units_per_s` pools the three, which evens out how fast one process
happens to run. The speed of a shared host drifts by tens of percent within
minutes, so both end-to-end times are given in reference seconds: each
worker times a fixed reference kernel every REFERENCE_EVERY_S from a timer
signal, through its set-up and its timed loop, and scales every stretch of
time between two kernel runs by REFERENCE_S over their mean time. With
`--trace 1` the run re-builds its inputs under tracing, then runs a fixed
number of ops twice each, without and with timing wrappers around every
rankmatch module in alternation, and reports the per-layer metrics and
`trace_overhead` (traced over untraced units per second). Every outcome is
checked after its timed region; failed and attempted ops are counted. The
last line of stdout is the JSON result; a fuller report, with the
environment, goes to `perfbench-out/` and a summary to stderr. `--inject-fault` swaps in a
deliberately broken component, so that the gate can be seen to fail.
"""

from __future__ import annotations

import os

# one caller, no BLAS thread pools: pin before numpy is first imported
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORKERS = 3     # fresh processes per run, each timing a share of the run
# the reference kernel's median time on the host the benchmark was built on
# (2-vCPU Xeon); a measured interval t, over which the kernel took k seconds,
# counts as t * REFERENCE_S / k reference seconds
REFERENCE_S = 0.017
REFERENCE_EVERY_S = 0.4     # wall time between two kernel runs
_FLOATS = [float(i) for i in range(1 << 14)]
_SHUFFLED = random.Random(0).sample(range(1 << 14), 1 << 14)

END_TO_END = (("setup_s", "s"), ("units_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("ranking.run_ranking.calls", "count"),
    ("ranking.run_ranking.self_s", "s"),
    ("ranking.run_ranking.arrivals", "count"),
    ("core.sample_ranks.self_s", "s"),
    ("core.matching_result.self_s", "s"),
    ("core.validate_instance.calls", "count"),
    ("core.validate_instance.self_s", "s"),
    ("generators.random_instance.self_s", "s"),
    ("ranking.assign_duals.self_s", "s"),
    ("core.check_dual_shares.self_s", "s"),
    ("offline.solve_opt.calls", "count"),
    ("offline.solve_opt.self_s", "s"),
    ("analysis.PairSweep.init_s", "s"),
    ("analysis.PairSweep.run.calls", "count"),
    ("analysis.PairSweep.run.self_s", "s"),
    ("analysis.PairSweep.run.lanes", "count"),
    ("analysis.edge_status.calls", "count"),
    ("analysis.edge_status.self_s", "s"),
    ("analysis.compute_thresholds.self_s", "s"),
    ("analysis.probes_per_estimate", "ratio"),
    ("bounds.simple_bound.calls", "count"),
    ("bounds.simple_bound.self_s", "s"),
    ("bounds.improved_bound.calls", "count"),
    ("bounds.improved_bound.self_s", "s"),
    ("bounds.scan_evals", "count"),
    ("bounds.polish_evals", "count"),
    ("bounds.scan_s", "s"),
    ("bounds.polish_s", "s"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.integrate.f_evals", "count"),
    ("numerics.golden_minimize.calls", "count"),
    ("numerics.bisect_boundary.calls", "count"),
    ("gains.curve_scalar.calls", "count"),
    ("gains.share_scalar.calls", "count"),
    ("experiments.run_ratio_experiment.self_s", "s"),
    ("experiments.run_property_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace_overhead", "ratio"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("simulate-ut100", "pair-gain-corpus",
                            "bounds-minimize", "verify-suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inject-fault", action="store_true",
                   help="run with a deliberately broken component")
    p.add_argument("--role", choices=("worker",), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_workloads():
    """The workloads, with rankmatch imported from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads.WORKLOADS


def setup(workload, seed: int) -> list:
    """Build the op list and run one untimed warm-up op."""
    ops = workload.build(seed)
    workload.call(ops[-1])
    return ops


def reference_kernel() -> None:
    """Fixed interpreter work, independent of rankmatch: integer arithmetic,
    then reads of a list of float objects in a shuffled order."""
    s = 0
    for i in range(100_000):
        s += i * i
    acc = 0.0
    for _ in range(10):
        for j in _SHUFFLED:
            acc += _FLOATS[j]


class HostClock:
    """Times the reference kernel from a timer signal every
    REFERENCE_EVERY_S of wall time, so that an interval of any length is
    scaled by kernel samples taken while it ran. The signal handler runs in
    the one thread, between bytecodes, so no other work runs at once."""

    def __init__(self):
        self.samples = []       # (start, end) of each kernel run

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def first_kernel_s(self) -> float:
        return self.samples[0][1] - self.samples[0][0]

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, reference seconds) of [start, end] with kernel runs left
        out. Each piece between two kernel runs is scaled by REFERENCE_S over
        the mean time of those two runs."""
        raw = ref = 0.0
        for (a0, a1), (b0, b1) in zip(self.samples, self.samples[1:]):
            piece = min(end, b0) - max(start, a1)
            if piece > 0.0:
                raw += piece
                ref += piece * 2.0 * REFERENCE_S / ((a1 - a0) + (b1 - b0))
        return raw, ref


def run_op(workload, ops, k: int) -> tuple:
    """Run op k of the list (wrapping around); only the call is timed.
    Returns (index, op, outcome, error, latency, (start, end))."""
    op = ops[k % len(ops)]
    t0 = time.perf_counter()
    try:
        outcome, error = workload.call(op), None
    except Exception as exc:  # a raising op is a failed op; keep measuring
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return k, op, outcome, error, t1 - t0, (t0, t1)


def timed_loop(workload, ops, seconds: float):
    """Run ops in list order until `seconds` of wall time have passed.
    Returns the wall time and the op records."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(run_op(workload, ops, len(records)))
    return time.perf_counter() - start, records


def gate(workload, records) -> tuple[int, list[str]]:
    """Check every outcome; returns the units of the passing ops and the
    failure messages."""
    units, failures = 0, []
    for index, op, outcome, error, *_ in records:
        if error is None:
            try:
                error = (workload.check(op, outcome)
                         or workload.deep_check(index, op, outcome))
            except Exception as exc:  # a malformed outcome fails its op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            units += workload.units(op, outcome)
        else:
            failures.append(f"op {index}: {error}")
    return units, failures


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit(), "threads": {v: os.environ[v] for v in PINNED}}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_plain(args) -> tuple[dict, dict, list[str], int]:
    """Start WORKERS fresh processes in turn. Each is timed from spawn to
    its "ready" line, then runs the timed loop for its share of
    `args.seconds`; their units and reference seconds are pooled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
           "--trace", "0", "--role", "worker"]
    if args.inject_fault:
        cmd.append("--inject-fault")
    setup_raw, setup_ref, parts = [], [], []
    for _ in range(WORKERS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            wall = time.perf_counter() - t0
            rest = child.stdout.read()
            code = child.wait()
        if ready != "ready\n" or code != 0:
            raise RuntimeError(f"worker process failed (exit {code})")
        part = json.loads(rest.splitlines()[-1])
        # the worker's clock covers its set-up from just after interpreter
        # start; the part before is scaled by the worker's first kernel run
        before = wall - part["setup_wall_s"]
        setup_raw.append(before + part["setup_s"])
        setup_ref.append(before * REFERENCE_S / part["first_kernel_s"]
                         + part["setup_ref_s"])
        parts.append(part)
    units = sum(w["units"] for w in parts)
    lat = [t for w in parts for t in w["op_latencies_ms"]]
    metrics = {"setup_s": statistics.median(setup_ref),
               "units_per_s": units / sum(w["op_time_ref_s"] for w in parts),
               "peak_rss_mb": max(w["peak_rss_mb"] for w in parts)}
    detail = {"ops": len(lat), "units": units,
              "raw_units_per_s": units / sum(w["op_time_s"] for w in parts),
              "setup_raw_s": setup_raw, "setup_ref_s": setup_ref,
              "op_p50_ms": statistics.median(lat),
              # a tail needs >= 10 samples beyond it
              "op_p90_ms": statistics.quantiles(lat, n=10)[-1]
              if len(lat) >= 100 else None,
              "workers": parts}
    failures = [f"worker {i}, {f}" for i, w in enumerate(parts) for f in w["failures"]]
    return metrics, detail, failures, len(lat)


def run_worker(args, workload, clock: HostClock, started: float) -> dict:
    """Set up, report ready, run the timed loop; `clock` has run since
    `started`, just after interpreter start."""
    ops = setup(workload, args.seed)
    ready = time.perf_counter()
    print("ready", flush=True)
    wall, records = timed_loop(workload, ops, seconds=args.seconds)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units, failures = gate(workload, records)
    times = [clock.seconds(*r[5]) for r in records]
    setup_s, setup_ref_s = clock.seconds(started, ready)
    return {"setup_wall_s": ready - started, "setup_s": setup_s,
            "setup_ref_s": setup_ref_s, "first_kernel_s": clock.first_kernel_s(),
            "units": units, "op_time_s": sum(t for t, _ in times),
            "op_time_ref_s": sum(r for _, r in times),
            "peak_rss_mb": peak_rss_mb, "timed_wall_s": wall,
            "failures": failures,
            "kernel_ms": [round(1e3 * (b - a), 4) for a, b in clock.samples],
            "op_latencies_ms": [round(1e3 * t, 4) for t, _ in times]}


def run_traced(args, workload) -> tuple[dict, dict, list[str], int]:
    """Build the inputs again under tracing, then run the first
    `trace_ops` ops twice each, untraced and traced in alternation, so both
    sides see the same machine conditions."""
    from tracing import Tracer
    ops = setup(workload, args.seed)
    tracer = Tracer()
    tracer.install()
    traced_ops = workload.build(args.seed)
    tracer.uninstall()
    plain, traced = [], []
    for k in range(workload.trace_ops):
        plain.append(run_op(workload, ops, k))
        tracer.install()
        tracer.op = k
        traced.append(run_op(workload, traced_ops, k))
        tracer.uninstall()
    plain_units, failures = gate(workload, plain)
    traced_units, traced_failures = gate(workload, traced)
    failures += traced_failures

    wall = sum(r[4] for r in plain)
    traced_wall = sum(r[4] for r in traced)
    layers = tracer.metrics()
    layers["trace_overhead"] = (traced_units / traced_wall) / (plain_units / wall) \
        if plain_units and traced_units else 0.0
    metrics = {name: layers.get(name, 0) for name, _ in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.npz"
    tracer.write(spans_path)
    detail = {"ops_per_side": workload.trace_ops, "untraced_op_s": wall,
              "traced_op_s": traced_wall, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "all_layers": layers}
    return metrics, detail, failures, len(plain) + len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "worker":
        started = time.perf_counter()
        clock = HostClock()
        clock.start()
    if not (SRC / "rankmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rankmatch sources under {SRC}")
    if args.role is None and not args.trace:
        metrics, detail, failures, attempted = run_plain(args)
    else:
        workload = import_workloads()[args.workload]
        if args.inject_fault:
            workload.inject_fault()
        if args.role == "worker":
            print(json.dumps(run_worker(args, workload, clock, started)))
            return 0
        metrics, detail, failures, attempted = run_traced(args, workload)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inject_fault": args.inject_fault, "environment": environment(),
              "result": result, "detail": detail,
              "fail_frac": len(failures) / attempted, "failures": failures[:20]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    summary = ", ".join(f"{k}={v:.6g}" for k, v in metrics.items())
    print(f"perfbench {args.workload} seed={args.seed}: {attempted} ops, "
          f"{len(failures)} failed; {summary}", file=sys.stderr)
    for line in failures[:5]:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
