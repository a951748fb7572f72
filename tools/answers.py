"""Every pinned answer of a source tree, dumped to one ledger and compared.

    python tools/answers.py dump TREE OUT.json
    python tools/answers.py compare OLD.json NEW.json [ORACLE.json]

`dump` imports microgt from TREE/src and writes in float.hex, or as the
error raised, what this checkout's tests/ and bench/ pin: the reference
loads, each equilibrium_case, make_reference.py's outputs, 30 engine_run_all
runs with their equilibria and the default `run all` files (about 20 s).
`compare` prints each moved key and its relative move, and whether it came
closer to an oracle, a dump of a tighter solver, if given: the table an
answer-moving change reports.  It exits 1 on any move, or with an oracle
on any move that is not closer.
"""

import contextlib
import dataclasses
import importlib
import json
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def inputs():
    """What dump reads from tests/ and bench/, each name checked here."""
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "tests"), str(root / "bench")]
    import test_bearing as tb
    import workloads as wl
    return SimpleNamespace(
        loads={table: getattr(tb, f"REFERENCE_LOADS_{table}")
               for table in ("33x64", "BATCHED", "STRIPES")},
        cases=(*tb.EQUILIBRIUM_CASES, "viscous"), case=tb.equilibrium_case,
        studies={wl.WORKLOADS["bearing_grid_sweep"]: [(wl.DEFAULT_SEED, 0)],
                 wl.WORKLOADS["thermo_sweep"]: [(wl.DEFAULT_SEED, 0)],
                 wl.WORKLOADS["engine_run_all"]: [(seed, study) for seed in range(5)
                                                  for study in range(6)]})


def _record(ledger, key, answers):
    """Each answer of the dict answers() returns, or the error it raises."""
    try:
        for name, value in answers().items():
            with contextlib.suppress(ValueError):  # a text that is no number stays
                is_bool = isinstance(value, (bool, np.bool_))
                value = bool(value) if is_bool else float(value).hex()
            ledger[f"{key} {name}"] = value
    except Exception as exc:  # an error is an answer too
        ledger[key] = f"{type(exc).__name__}: {exc}"


def _outputs(workload, item):
    values = workload.outputs(item, workload.run(item))[0]
    if workload.name == "engine_run_all":  # with its tapped equilibrium
        equilibrium = dataclasses.asdict(workload.captured[1])
        values.update({f"equilibrium.{name}": v for name, v in equilibrium.items()})
    return values


def _run_all(cli, out):
    with contextlib.redirect_stdout(sys.stderr):
        if cli.main(["run", "all", "--out", str(out)]) != 0:
            raise RuntimeError("run all failed")
    lines = (out / "summary.txt").read_text().splitlines()
    values = {f"summary.txt {n}": line for n, line in enumerate(lines, 1)}
    for path in sorted(out.glob("*.csv")):  # written by ",".join
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        for n, row in enumerate(rows, 1):
            values.update({f"{path.name} {n} {h}": c for h, c in zip(header, row)})
    return values


def dump(tree, out):
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    mg = SimpleNamespace(**{m: importlib.import_module(f"microgt.{m}") for m in (
        "gas", "bearing", "combustor", "cycle", "turbo", "config", "cli")})
    br, read, ledger = mg.bearing, inputs(), {}
    for table, rows in read.loads.items():
        for *head, clearance, rpm, _, _ in rows:
            grid = head if table == "BATCHED" else (33, 64)
            face = dict(zip(("groove_count", "groove_width_fraction"),
                            head if table == "STRIPES" else ()))
            film = br.FilmState(nominal_clearance=clearance, rpm=rpm)
            _record(ledger, f"{table} {(*head, clearance, rpm)}", lambda: {
                pump: br.solve_load(br.SpiralGrooveBearing(**face, pump_direction=pump),
                                    film, *grid) for pump in ("pump-in", "pump-out")})
    for case in read.cases:
        args, options = read.case(case)
        for at in (options, {**options, "load_tolerance": 0.0}):
            _record(ledger, f"{case} {at}",
                    lambda: dataclasses.asdict(br.axial_equilibrium(*args, **at)))
    with tempfile.TemporaryDirectory() as workdir:
        for kind, studies in read.studies.items():
            workload = kind(mg, Path(workdir))
            try:
                workload.prepare()
                for seed, study in studies:  # its items run before the next study's
                    for k, item in enumerate(workload.study(seed, study)):
                        _record(ledger, f"{kind.name} seed={seed} study={study} item={k}",
                                lambda: _outputs(workload, item))
            finally:
                workload.close()
        _record(ledger, "run all", lambda: _run_all(mg.cli, Path(workdir) / "out"))
    Path(out).write_text(json.dumps(ledger, indent=0) + "\n")
    print(f"{len(ledger)} values of {mg.bearing.__file__} written to {out}")


def compare(old_path, new_path, oracle_path=None):
    old, new, oracle = (json.loads(Path(p).read_text()) if p else {}
                        for p in (old_path, new_path, oracle_path))
    keys = sorted(old.keys() | new.keys())
    moved = [key for key in keys if old.get(key) != new.get(key)]
    closer = 0
    for key in moved:
        values = (ledger.get(key) for ledger in (old, new, oracle))
        x, y, z = (float.fromhex(v) if "0x" in str(v)[:3] else v for v in values)
        floats = all(isinstance(v, float) for v in (x, y))
        move = f"{abs(y - x) / (max(abs(x), abs(y)) or 1):.1e}" if floats else "-"
        line = f"{key}: {x!r} -> {y!r}, moved {move}"
        if oracle_path:
            nearer = abs(y - z) < abs(x - z) if isinstance(z, float) and floats else y == z
            closer += nearer
            line += f", oracle {z!r}, {'closer' if nearer else 'not closer'}"
        print(line)
    print(f"{len(moved)} of {len(keys)} values moved"
          + f", {closer} closer to the oracle" * bool(oracle_path))
    return int(closer < len(moved) if oracle_path else bool(moved))


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave tests/ and bench/ as they are
    warnings.simplefilter("ignore")  # the 8-groove case's narrow-groove warning
    command, *paths = sys.argv[1:] or [None]
    if (command, len(paths)) in (("dump", 2), ("compare", 2), ("compare", 3)):
        sys.exit({"dump": dump, "compare": compare}[command](*paths))
    sys.exit(__doc__)
