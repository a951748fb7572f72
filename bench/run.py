"""microgt benchmark: one command, one process, one workload per run.

    python3 bench/run.py --workload engine_run_all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; microgt is imported from ``src/``.
The run repeats studies of its workload (see workloads.py) until
``--seconds`` have passed, finishing the item in progress.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_rel`` (median
wall time of one study) and ``item_rel_p50`` (median wall time of one item),
both in units of the time of a fixed reference kernel timed around and
within each study (see calibration.py); ``setup_s`` (median time from the
start of a fresh process to its first timed item, over several set-up
processes); and ``peak_rss_mb``.  With ``--trace 1`` every public function
of every layer is wrapped (spans.py) and the metrics are the per-layer ones,
per complete study, plus the tracing overhead measured by repeating the
first studies untraced in the same process.  The line before the result
records the machine, the library versions, the failure fraction
``failed / attempted`` and the times in seconds (``wall_s``, ``item_s_p50``
and, with at least 100 items, ``item_s_p90``).

Exit status 2, without a result, when the checkout holds no microgt source.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP threads before numpy is imported, here and in the set-up
# processes this one starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5
MAX_REPORTED_PROBLEMS = 20


def import_microgt():
    """The microgt modules of this checkout, or None when it has no source."""
    if not (SRC / "microgt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import microgt
    from microgt import bearing, cli, combustor, config, cycle, gas, turbo
    if Path(microgt.__file__).resolve().parent != SRC / "microgt":
        return None
    return SimpleNamespace(gas=gas, bearing=bearing, combustor=combustor,
                           cycle=cycle, turbo=turbo, config=config, cli=cli)


def time_setup(workload, seed):
    """Seconds from starting a fresh set-up process until it is ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited {code} after {line!r}")
    return elapsed


class Runner:
    """Runs studies of one workload and applies the correctness gate."""

    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.item_seconds = []
        self.kinds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.csv_bytes = []  # per item
        self.complete_items = 0  # items in the studies run to the end
        self.kernel_seconds = []  # reference kernel samples
        self.study_rel = []  # complete study wall times / kernel time
        self.item_rel = []  # item wall times / kernel time
        self.reference = (workload.reference() if seed == workloads.DEFAULT_SEED
                          else None)

    def report(self, message):
        self.problems.append(message)
        if len(self.problems) <= MAX_REPORTED_PROBLEMS:
            print(f"{self.workload.name}: {message}", file=sys.stderr)

    def run_item(self, item, study, position):
        """Run and check one item; returns its wall time in seconds."""
        tracer = self.tracer
        span = tracer.begin_item(self.attempted) if tracer else None
        start = time.perf_counter()
        try:
            raw, error = self.workload.run(item), None
        except Exception:
            raw, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_item(span)
        self.attempted += 1
        self.item_seconds.append(seconds)
        self.kinds.append(item.kind)

        problems = [error] if error else []
        csv_bytes = 0
        if not error:
            try:
                values, extra = self.workload.outputs(item, raw)
                problems += [f"{key} = {v!r} is not finite" for key, v in values.items()
                             if not isinstance(v, float) or not v == v or abs(v) == float("inf")]
                problems += self.workload.check(item, values, extra)
                if self.reference is not None and study == 0:
                    problems += self.workload.compare(item, values, self.reference[position])
                if isinstance(extra, dict):
                    csv_bytes = extra.get("csv_bytes", 0)
            except Exception:
                problems.append(traceback.format_exc())
        self.csv_bytes.append(csv_bytes)
        if problems:
            self.failed += 1
            for message in problems:
                self.report(f"study {study} item {position} ({item.kind} "
                            f"{item.inputs}): {message}")
        return seconds

    def run_studies(self, first_items, deadline, calibrate=False):
        """Run whole studies until the deadline; returns their wall times.

        Study 0 always runs to the end; after it, an item starts only before
        the deadline.  With calibrate, the reference kernel is timed around
        and within each study, and study and item times are also kept in
        units of the kernel's median time over their study.
        """
        walls = []
        index, items = 0, first_items
        while True:
            kernel = calibration.sample(self.workload.kernel) if calibrate else []
            seconds, since_kernel, complete = [], 0.0, True
            for position, item in enumerate(items):
                if index > 0 and time.perf_counter() >= deadline:
                    complete = False
                    break
                seconds.append(self.run_item(item, index, position))
                since_kernel += seconds[-1]
                if calibrate and since_kernel >= calibration.INTERVAL:
                    kernel += calibration.sample(self.workload.kernel)
                    since_kernel = 0.0
            if calibrate:
                kernel += calibration.sample(self.workload.kernel)
                self.kernel_seconds += kernel
                unit = statistics.median(kernel)
                self.item_rel += [s / unit for s in seconds]
            if not complete:
                return walls
            walls.append(sum(seconds))
            if calibrate:
                self.study_rel.append(walls[-1] / unit)
            self.complete_items = self.attempted
            if time.perf_counter() >= deadline:
                return walls
            index += 1
            items = self.workload.study(self.seed, index)


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)

    mg = import_microgt()
    if mg is None:
        print(f"error: no microgt source under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](mg, workdir)
    try:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer, mg.gas, mg.bearing, mg.combustor, mg.cycle,
                          mg.turbo, mg.config, mg.cli)
        workload.prepare()
        first_items = workload.study(args.seed, 0)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(args, workload, tracer, first_items)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracer, first_items):
    setup_samples = ([] if args.trace else
                     [time_setup(args.workload, args.seed) for _ in range(SETUP_PROCESSES)])
    runner = Runner(workload, args.seed, tracer)
    # A traced run keeps a tenth of its time to repeat its first studies
    # untraced, which measures the tracing overhead.
    traced_share = 0.9 if tracer else 1.0
    walls = runner.run_studies(first_items, time.perf_counter() + traced_share * args.seconds,
                               calibrate=not tracer)
    n_items = runner.attempted

    if tracer:
        not_restored = tracer.uninstall()
        if not_restored:
            runner.report(f"wrapped attributes not restored: {not_restored}")
        # The same studies again, untraced in the same process.
        untraced = Runner(workload, args.seed)
        untraced_walls = untraced.run_studies(
            workload.study(args.seed, 0), time.perf_counter() + 0.1 * args.seconds)
        pairs = list(zip(walls, untraced_walls))
        runner.attempted += untraced.attempted
        runner.failed += untraced.failed
        runner.problems += untraced.problems
        n_studies = len(walls)
        metrics = {name: metric(value, unit) for name, (value, unit)
                   in spans.per_layer_metrics(tracer, runner.complete_items,
                                              n_studies, runner.kinds).items()}
        metrics["cli.csv_bytes"] = metric(
            sum(runner.csv_bytes[:runner.complete_items]) / n_studies, "B/study")
        metrics["trace.overhead_s"] = metric(
            median([traced - plain for traced, plain in pairs]), "s/study")
        metrics["trace.overhead_frac"] = metric(
            median([traced / plain - 1.0 for traced, plain in pairs]), "1")
        check_trace(runner, workload, metrics)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "wall_rel": metric(median(runner.study_rel), "kernel"),
            "item_rel_p50": metric(median(runner.item_rel), "kernel"),
            "setup_s": metric(median(setup_samples), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, "MB"),
        }

    item_seconds = runner.item_seconds
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "items": n_items,
        "items_by_kind": {k: runner.kinds[:n_items].count(k)
                          for k in sorted(set(runner.kinds))},
        "studies_complete": len(walls),
        "wall_s": median(walls),
        "item_s_p50": median(item_seconds),
        "kernel_s": median(runner.kernel_seconds),
        "fail_frac": runner.failed / runner.attempted,
        # a p90 needs at least 10 samples beyond it
        "item_s_p90": (statistics.quantiles(item_seconds, n=10)[-1]
                       if len(item_seconds) >= 100 else None),
        "setup_samples_s": setup_samples,
    }
    print(json.dumps({"info": info}))
    result = {"correct": runner.failed == 0 and not runner.problems,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def check_trace(runner, workload, metrics):
    """The trace must see each layer its workload exercises, and cover items."""
    for name in workload.exercised:
        if not metrics[name]["value"] > 0:
            runner.report(f"traced counter {name} is 0; a wrapper is bound "
                          f"to the wrong name or the layer was not called")
    for name in workload.idle:
        if metrics[name]["value"] != 0:
            runner.report(f"traced counter {name} is {metrics[name]['value']}, expected 0")
    if metrics["trace.coverage_frac"]["value"] < 0.9:
        runner.report(f"layer spans cover only "
                      f"{metrics['trace.coverage_frac']['value']:.3f} of item time")
    if metrics["trace.coverage_kind_min"]["value"] < 0.5:
        runner.report(f"layer spans cover only "
                      f"{metrics['trace.coverage_kind_min']['value']:.3f} of one kind "
                      f"of item's time")


if __name__ == "__main__":
    sys.exit(main())
