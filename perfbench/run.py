"""Benchmark of the equisym library: train, evaluate and checks workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics untraced, in
seconds at reference speed (see speed.py): set-up time and the time of a
round of the workload, and the share of operations whose outputs pass
their checks.
With --trace 1 it runs the same inputs untraced and then traced, and
reports the per-layer metrics of layers.py.  Human-readable lines come
first; the last line of standard output is one JSON object.  A full report
(machine, fingerprints, samples) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

MIN_ROUNDS = 3           # untraced rounds in a --trace 0 run, at least
MIN_TRACED_ROUNDS = 2    # traced rounds, at least, so counters can be compared
UNTRACED_SHARE = 1 / 3   # of --seconds spent on untraced rounds in a --trace 1 run
SETUP_REPEATS = 7
IMPORT_REPEATS = 15

Op = namedtuple("Op", "label t0 t1 result")          # result is None if the op raised
Round = namedtuple("Round", "t0 t1 ops")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "evaluate", "checks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def median(values):
    return float(statistics.median(values))


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, float(sorted(values)[n - 11])


def summary(values, unit, scale=1.0):
    t = tail(values)
    tail_text = f"p{t[0]:.0f} {t[1] * scale:.4g} {unit}" if t else "no tail with 10 beyond"
    return f"{median(values) * scale:.4g} {unit} (median of {len(values)}; {tail_text})"


def blas_threads():
    """Thread count reported by the BLAS numpy links, or None if unknown."""
    import numpy.linalg._umath_linalg as umath_linalg

    lib = ctypes.CDLL(umath_linalg.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, attempts, failures):
        self.attempted += attempts
        self.failed += min(attempts, len(failures))
        self.failures.extend(failures)


def run_round(workload, r, tally):
    ops = []
    t_round = time.perf_counter()
    for label, fn in workload.ops(r):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            result = None
        t1 = time.perf_counter()
        if result is None:
            tally.add(1, [f"{label}: raised"])
        else:
            tally.add(workload.attempts(result), workload.check(label, result))
        ops.append(Op(label, t0, t1, result))
    return Round(t_round, time.perf_counter(), ops)


def run_for(workload, r_of, seconds, min_rounds, tally, before=None, after=None):
    """Rounds until `seconds` have passed and at least `min_rounds` ran."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t0 < seconds:
        if before:
            before()
        rounds.append(run_round(workload, r_of(len(rounds)), tally))
        if after:
            after(rounds[-1])
    return rounds


def by_label(rounds, seconds_of):
    out = {}
    for round_ in rounds:
        for op in round_.ops:
            out.setdefault(op.label, []).append(seconds_of(op))
    return out


def wall(op):
    return op.t1 - op.t0


def fingerprints(workload, round_):
    return {op.label: None if op.result is None else workload.fingerprint(op.result)
            for op in round_.ops}


def qualities(workload, round_):
    if not hasattr(workload, "quality"):
        return {}
    return {op.label: workload.quality(op.result) for op in round_.ops if op.result is not None}


def describe(workload, rounds, seconds_of, wall_of=None):
    """The workload's own figures: per-operation times and output quality.

    seconds_of gives an operation's seconds; wall_of, if given, its wall
    seconds, printed as a median next to them."""
    lines = []
    walls = by_label(rounds, wall_of) if wall_of else {}
    for label, times in by_label(rounds, seconds_of).items():
        if workload.name == "train":
            name, unit, scale = f"step_ms.{label}", "ms", 1e3 / workload.steps_per_op
        else:
            name, unit, scale = f"{'eval' if workload.name == 'evaluate' else 'check'}_s.{label}", "s", 1.0
        line = f"{name} = {summary(times, unit, scale)}"
        if label in walls:
            line += f"; wall median {median(walls[label]) * scale:.4g} {unit}"
        lines.append(line)
    for label, value in qualities(workload, rounds[0]).items():
        prefix = "train_objective" if workload.name == "train" else "eval_loss"
        lines.append(f"{prefix}.{label} = {value:.6g}")
    return lines


def untraced_run(workload, seconds, tally, report):
    from speed import SpeedProbe, import_around

    # Set-up runs while the probe's timer is off; each repeat is scaled by the
    # kernel times just before and after it.
    probe = SpeedProbe(workload.kernel)
    # The library's own import; the modules it depends on (numpy) stay loaded.
    imports = [import_around(["equisym.cli"]) for _ in range(IMPORT_REPEATS)]
    setups = [probe.around(workload.setup) for _ in range(SETUP_REPEATS)]
    with probe:
        rounds = run_for(workload, lambda i: i, seconds, MIN_ROUNDS, tally)

    def at_ref(op):
        return probe.normalise(op.t0, op.t1)[1]

    def net_wall(op):
        return probe.normalise(op.t0, op.t1)[0]

    import_wall, import_ref = (median(v) for v in zip(*imports))
    setup_wall, setup_ref = (median(v) for v in zip(*setups))
    op_ref, op_wall = by_label(rounds, at_ref), by_label(rounds, net_wall)
    # A round's time is the sum over its operations of each one's median.
    round_s = sum(median(times) for times in op_ref.values())
    round_wall_s = sum(median(times) for times in op_wall.values())

    report["lines"] += [
        f"setup_s = import {import_ref:.4g} s + workload set-up {setup_ref:.4g} s at reference "
        f"speed (medians of {IMPORT_REPEATS} and {SETUP_REPEATS}); wall {import_wall:.4g} s + "
        f"{setup_wall:.4g} s",
        f"round_s = {round_s:.4g} s at reference speed over {len(rounds)} rounds; "
        f"wall {round_wall_s:.4g} s",
        f"reference kernel ({workload.kernel}) = {summary(list(probe.costs), 'ms', 1e3)}",
    ]
    report["lines"] += describe(workload, rounds, at_ref, net_wall)
    report["fingerprints"] = fingerprints(workload, rounds[0])
    report["samples"] = {"import_s": imports, "setup_s": setups, "op_s": op_ref,
                         "op_wall_s": op_wall, "kernel_s": list(probe.costs)}
    return {
        "round_s": (round_s, "s"),
        "setup_s": (import_ref + setup_ref, "s"),
        "ok_ops_ratio": (1.0 - tally.failed / max(1, tally.attempted), "ratio"),
    }


def traced_run(workload, seconds, tally, report):
    import layers
    from tracer import Tracer

    workload.setup()
    t0 = time.perf_counter()
    untraced = run_for(workload, lambda i: 0, seconds * UNTRACED_SHARE, 1, tally)
    expected = fingerprints(workload, untraced[0])

    tracer = Tracer()
    per_round = []

    def start():
        tracer.reset()
        tracer.enabled = True

    def finish(round_):
        tracer.enabled = False
        per_round.append(layers.round_metrics(tracer, workload.steps_per_round,
                                              workload.evals_per_round))
        if len(per_round) == 1:
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.save(str(OUT / f"spans-{workload.name}-seed{workload.seed}.npz"))
        same = fingerprints(workload, round_) == expected
        tally.add(1, [] if same else [f"traced round {len(per_round)}: fingerprints differ"])

    layers.install(tracer)
    try:
        remaining = max(0.0, seconds - (time.perf_counter() - t0))
        traced = run_for(workload, lambda i: 0, remaining, MIN_TRACED_ROUNDS, tally,
                         before=start, after=finish)
    finally:
        tracer.restore()

    for k, metrics in enumerate(per_round[1:], 2):
        diff = [c for c in layers.COUNTERS if c in metrics and metrics[c] != per_round[0][c]]
        tally.add(1, [f"traced round {k}: counters differ: {', '.join(diff)}"] if diff else [])

    metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    ref_times, traced_times = by_label(untraced, wall), by_label(traced, wall)
    quality = qualities(workload, untraced[0])
    steps = workload.steps_per_op
    for v in layers.VARIANTS:
        train = workload.name == "train" and v in ref_times
        evaluate = workload.name == "evaluate" and v in ref_times
        overhead = median(traced_times[v]) - median(ref_times[v]) if v in ref_times else 0.0
        metrics[f"bench.train_step_ms.{v}"] = median(ref_times[v]) / steps * 1e3 if train else 0.0
        metrics[f"bench.train_objective.{v}"] = quality[v] if train else 0.0
        metrics[f"bench.evaluate_s.{v}"] = median(ref_times[v]) if evaluate else 0.0
        metrics[f"trace.overhead_ms_per_step.{v}"] = overhead / steps * 1e3 if train else 0.0
        metrics[f"trace.overhead_s_per_eval.{v}"] = overhead if evaluate else 0.0
    metrics["trace.overhead_ratio"] = (median([r.t1 - r.t0 for r in traced])
                                       / median([r.t1 - r.t0 for r in untraced]) - 1.0)
    metrics["checks.rows_failed"] = float(sum(
        len(workload.check(op.label, op.result)) for op in traced[0].ops if op.result is not None)
    ) if workload.name == "checks" else 0.0

    report["lines"] += [f"untraced rounds {len(untraced)}, traced rounds {len(traced)}",
                        f"traced fingerprints equal untraced: "
                        f"{all(fingerprints(workload, r) == expected for r in traced)}"]
    report["lines"] += describe(workload, untraced, wall)
    report["fingerprints"] = expected
    return {name: (metrics[name], unit) for name, (unit, _, _) in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "equisym" / "__init__.py").is_file():
        print(f"error: no equisym sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import equisym

    if Path(equisym.__file__).resolve().parent != (SRC / "equisym").resolve():
        print(f"error: imported equisym from {equisym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "lines": []}
    if args.trace:
        metrics = traced_run(workload, args.seconds, tally, report)
    else:
        metrics = untraced_run(workload, args.seconds, tally, report)

    m = report["machine"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, "
          f"one client; {m['nproc']} CPUs, Python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']} with {m['blas_threads']} thread(s)")
    for line in report["lines"]:
        print(line)
    for label, digest in report["fingerprints"].items():
        print(f"fingerprint {label} {digest}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update(result=result, failures=tally.failures)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
