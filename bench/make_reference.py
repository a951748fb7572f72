"""Write reference/<workload>.json: the outputs of study 0 of the default seed.

    python3 bench/make_reference.py [workload ...]

Run it on the commit whose outputs are the reference; the benchmark then
compares every later commit's outputs with these, within the tolerances of
workloads.Workload.tolerance().
"""

import json
import shutil
import sys

import run
import workloads


def main(names):
    mg = run.import_microgt()
    if mg is None:
        print(f"error: no microgt source under {run.SRC}", file=sys.stderr)
        return 2
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workdir = run.ROOT / ".bench_tmp" / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[name](mg, workdir)
        try:
            workload.prepare()
            entries = []
            for item in workload.study(workloads.DEFAULT_SEED, 0):
                values, extra = workload.outputs(item, workload.run(item))
                problems = workload.check(item, values, extra)
                if problems:
                    print(f"error: {name} {item.inputs}: {problems}", file=sys.stderr)
                    return 1
                entries.append({"kind": item.kind, "inputs": item.inputs,
                                "values": values})
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "study": 0,
                                    "items": entries}, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}: {len(entries)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
