"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads train,evaluate,checks --seeds 1-10
    python3 perfbench/sweep.py --workloads train --seeds 1-5 --trace 1
    python3 perfbench/sweep.py ... --record perfbench/trajectory/<name>.json

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
which must stay under the metric's bound from BENCHMARK.json; a spread
above a third of the bound is flagged.  --record adds every run's result
line and fingerprints, the spreads (keyed by the --seeds text) and the
machine to a trajectory file; when that file holds spreads of another seed
set, each median is compared with it, and a change worse than the bound is
flagged.  The sweep exits 1 if anything is flagged or a run reports
correct=false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_one(spec, workload, seed, trace):
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
           *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="train,evaluate,checks")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="write the runs to this trajectory file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    path = Path(args.record) if args.record else None
    record = (json.loads(path.read_text()) if path and path.exists()
              else {"runs": [], "spreads": {}})
    earlier = [(seeds, by_workload) for seeds, by_workload in record["spreads"].items()
               if seeds != args.seeds]
    runs, spreads, machine, ok = [], {}, None, True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            result, report = run_one(spec, workload, seed, args.trace)
            machine = report["machine"]
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "result": result, "fingerprints": report["fingerprints"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        if args.trace:
            continue
        for name, vals in values.items():
            med, q1, q3, share = spread(vals)
            spreads.setdefault(workload, {})[name] = {"median": med, "q1": q1, "q3": q3,
                                                      "spread": share}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and share > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {workload:9s} {name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {share:.2%}  bound {bound}{flag}")
            # The same metric from an earlier seed set of the record.
            for seeds, by_workload in earlier:
                if name not in by_workload.get(workload, {}) or bound is None:
                    continue
                change = med / by_workload[workload][name]["median"] - 1.0
                worse = change if better[name] == "lower" else -change
                flag = ""
                if worse > bound:
                    flag = "  <-- worse by more than the bound"
                    ok = False
                print(f"  {workload:9s} {name:14s} median {change:+.2%} against seeds {seeds}"
                      f"{flag}")
    if path:
        record.update(machine=machine, run_seconds=spec["run_seconds"])
        record["runs"] += runs
        if spreads:
            record["spreads"].setdefault(args.seeds, {}).update(spreads)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
