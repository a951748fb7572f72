"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs the command in BENCHMARK.json from the repository root, once per seed
and workload, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the metric's bound.  ``--out`` also writes
the summary as JSON, for example as the recorded baseline of a commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpus_usable", "python", "numpy", "scipy")
RAW_KEYS = ("wall_s", "item_s_p50", "item_s_p90", "kernel_s", "fail_frac")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds_of(args.seeds):
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            *_, info, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            summary.setdefault("machine", {k: v for k, v in json.loads(info)["info"].items()
                                           if k in MACHINE_KEYS})
            info = json.loads(info)["info"]
            runs.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: info[k] for k in RAW_KEYS if k in info}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                              if k in bounds), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            stats[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                           "values": vals}
            if name in bounds:
                print(f"  {name:14s} median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                      f"spread {spread:.4f}  bound {bounds[name]}  "
                      f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
