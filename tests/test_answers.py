"""tools/answers.py: compare on hand-written ledgers, and the names dump reads."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

OLD = {"default top_load": (1.0).hex(), "default converged": True,
       "pump-out-bottom": "NoEquilibriumError: no sign change"}


def compare(tmp_path, capsys, *ledgers):
    paths = []
    for k, ledger in enumerate(ledgers):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(json.dumps(ledger))
    code = answers.compare(*paths)
    return code, capsys.readouterr().out.splitlines()


def test_identical_ledgers_move_nothing(tmp_path, capsys):
    assert compare(tmp_path, capsys, OLD, dict(OLD)) == (0, ["0 of 3 values moved"])


def test_a_moved_float_shows_its_relative_move(tmp_path, capsys):
    new = {**OLD, "default top_load": (1.0 + 2.0 ** -20).hex()}
    code, lines = compare(tmp_path, capsys, OLD, new)
    assert code == 1
    assert lines == ["default top_load: 1.0 -> 1.0000009536743164, moved 9.5e-07",
                     "1 of 3 values moved"]


@pytest.mark.parametrize("new", [
    {key: value for key, value in OLD.items() if key != "default top_load"},
    {**OLD, "default stable": True},
    {**OLD, "default converged": False},
    {**OLD, "pump-out-bottom": "NoEquilibriumError: no root"},
], ids=["old-only", "new-only", "bool", "error-text"])
def test_a_key_on_one_side_or_a_changed_bool_or_text_is_a_move(tmp_path, capsys, new):
    code, lines = compare(tmp_path, capsys, OLD, new)
    assert code == 1
    assert len(lines) == 2 and lines[0].endswith("moved -")
    assert lines[1] == f"1 of {len(OLD.keys() | new.keys())} values moved"


@pytest.mark.parametrize("oracle_load, code, verdict", [
    (2.0, 0, "closer"), (0.5, 1, "not closer"), (None, 1, "not closer")])
def test_the_oracle_decides_whether_a_move_is_closer(tmp_path, capsys, oracle_load,
                                                      code, verdict):
    new = {**OLD, "default top_load": (1.5).hex(), "default converged": False}
    oracle = {**OLD, "default converged": False}
    if oracle_load is None:
        del oracle["default top_load"]
    else:
        oracle["default top_load"] = oracle_load.hex()
    got, lines = compare(tmp_path, capsys, OLD, new, oracle)
    assert got == code
    assert lines[0] == "default converged: True -> False, moved -, oracle False, closer"
    assert lines[1].endswith(f", {verdict}")
    assert lines[2] == f"2 of 3 values moved, {1 + (code == 0)} closer to the oracle"


def test_dump_finds_every_name_it_reads(monkeypatch):
    """dump reads its inputs from tests/ and bench/ by name, so a renamed one
    fails here rather than leaving it out of every later ledger."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.setattr(sys, "path", list(sys.path))
    read = answers.inputs()
    assert [len(rows) for rows in read.loads.values()] == [3, 6, 4]
    for case in read.cases:
        args, _ = read.case(case)
        assert len(args) == 5
    assert [kind.name for kind in read.studies] == [
        "bearing_grid_sweep", "thermo_sweep", "engine_run_all"]
    assert list(read.studies.values())[2] == [(seed, study) for seed in range(5)
                                              for study in range(6)]
