"""Answers and Reynolds solves of axial_equilibrium, recorded per source
tree and compared.

    python tools/equilibrium_identity.py dump TREE OUT.json
    python tools/equilibrium_identity.py compare A.json B.json

`dump` imports microgt from TREE/src, say a `git archive` copy of another
commit, and records for each input below the answer of
bearing.axial_equilibrium in float.hex (or the error's type and text) and
the ordered (face, clearance) of its solve_reynolds calls, face 0 being the
one solved first:

- each case of EQUILIBRIUM_CASES in tests/test_bearing.py, at its own and
  at zero load_tolerance, with the true narrow-groove model, one wrong in
  shape (times 1 + sin(c / 3 nm) / 2) and one that is nan away from the
  case's scan points;
- its "viscous" case, at its own and at zero load_tolerance;
- the equilibrium of each engine_run_all scenario of bench/workloads.py,
  seeds 0-4, studies 0-5.

The inputs come from this checkout's tests/ and bench/, so two trees run
the same ones.  `compare` prints each record that differs and exits 1 if
any does.  A dump takes about a minute on one core.
"""

import dataclasses
import json
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ENGINE_SEEDS, ENGINE_STUDIES = range(5), range(6)


def _models(br, args, options):
    """Name -> narrow-groove model of the case with these args and options."""
    true = br._narrow_groove_load
    gap = args[2]
    c_scan = np.linspace(0.02, 0.98, options.get("scan_points", 48)) * gap
    scan_clearances = np.concatenate([c_scan, gap - c_scan])
    return {
        "true": true,
        "wrong-shape": lambda bearing, film, c: (
            true(bearing, film, c) * (1.0 + 0.5 * np.sin(c / 3.0e-9))),
        "nan-off-scan": lambda bearing, film, c: np.where(
            np.isin(c, scan_clearances), true(bearing, film, c), np.nan),
    }


def _record(br, args, options):
    """{"answer": ..., "solves": [[face, clearance hex], ...]} of one call."""
    solve, faces, solves = br.solve_reynolds, {}, []

    def recorded(bearing, film, n_r, n_theta, factor=None):
        face = faces.setdefault(id(factor), len(faces))
        solves.append([face, float(film.nominal_clearance).hex()])
        return solve(bearing, film, n_r, n_theta, factor)

    br.solve_reynolds = recorded
    try:
        eq = br.axial_equilibrium(*args, **options)
        answer = {name: bool(value) if isinstance(value, (bool, np.bool_))
                  else float(value).hex()
                  for name, value in dataclasses.asdict(eq).items()}
    except Exception as exc:  # an error is an answer too
        answer = {"error": type(exc).__name__, "text": str(exc)}
    finally:
        br.solve_reynolds = solve
    return {"answer": answer, "solves": solves}


def dump(tree, out):
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(ROOT / "tests"),
                    str(ROOT / "bench")]
    import test_bearing
    import workloads
    from microgt import bearing as br, config

    records = {}
    for case in (*test_bearing.EQUILIBRIUM_CASES, "viscous"):
        args, options = test_bearing.equilibrium_case(case)
        models = _models(br, args, options) if case != "viscous" else {
            "true": br._narrow_groove_load}
        for name, model in models.items():
            br._narrow_groove_load = model
            try:
                for tolerance in ("own", 0.0):
                    at = options if tolerance == "own" else {
                        **options, "load_tolerance": tolerance}
                    key = f"{case} {name} load_tolerance={tolerance}"
                    records[key] = _record(br, args, at)
                    print(key, len(records[key]["solves"]), file=sys.stderr)
            finally:
                br._narrow_groove_load = models["true"]

    with tempfile.TemporaryDirectory() as workdir:
        engine = workloads.EngineRunAll(SimpleNamespace(bearing=br, config=config),
                                        Path(workdir))
        try:
            items = [(seed, index, item) for seed in ENGINE_SEEDS
                     for index in ENGINE_STUDIES for item in engine.study(seed, index)]
        finally:
            engine.close()
        for seed, index, item in items:
            scenario = config.validate(item.args[0].read_text())
            key = f"engine_run_all seed={seed} study={index}"
            records[key] = _record(br, test_bearing.equilibrium_args(scenario), {})
            print(key, len(records[key]["solves"]), file=sys.stderr)
    Path(out).write_text(json.dumps(records, indent=1) + "\n")


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) == b.get(key):
            continue
        differ += 1
        print(key)
        for side, records in (("A", a), ("B", b)):
            record = records.get(key)
            if record is None:
                print(f"  {side}: missing")
            else:
                print(f"  {side}: {len(record['solves'])} solves, {record['answer']}")
    print(f"{differ} of {len(a.keys() | b.keys())} records differ")
    return int(differ > 0)


if __name__ == "__main__":
    warnings.simplefilter("ignore")  # the 8-groove case's narrow-groove warning
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
