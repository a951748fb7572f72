"""Line coverage of src/microgt over the Tier-1 suite, with the stdlib only.

`python tools/line_coverage.py [pytest options]` runs pytest on tests/ in
this process, tracing the frames of src/microgt.  A line is executable if a
code object compiled from its file maps bytecode to it (co_lines).  Prints
each executable line that never ran and is not in ALLOWED, and each ALLOWED
line that ran, and exits 1 if there is any.  Tracing slows Python calls
several-fold, so a test with a wall-clock bound may fail; that fails no line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "microgt")
# (file, stripped source line) -> why no in-process test can run that line
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard runs only when a subprocess starts the module",
    ("combustor.py", 'raise SolverError(f"wall balance did not converge '
                     '(last wall update {t_w_new - t_w:.3e} K)")'):
        "the 400-step cap of the damped wall fixed point, which ROADMAP item 9 replaces",
}
pending = {}  # code object -> its lines not yet run; empty outside PACKAGE


def _lines(code):
    return {line for _, _, line in code.co_lines() if line}


def _trace(frame, event, arg):
    code = frame.f_code
    if code not in pending:
        pending[code] = _lines(code) if code.co_filename.startswith(PACKAGE) else set()
    if left := pending[code]:  # a code object stops being traced once all its lines ran
        left.discard(frame.f_lineno)
        frame.f_trace_lines = bool(left)
        return _trace


def _executable(code):
    return _lines(code).union(*(_executable(c) for c in code.co_consts if hasattr(c, "co_lines")))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_trace)
    import pytest
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    sys.settrace(None)
    ran = {(c.co_filename, n) for c, left in pending.items() for n in _lines(c) - left}
    found = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        text = path.read_text()
        for line in sorted(_executable(compile(text, str(path), "exec"))):
            source, hit = text.splitlines()[line - 1].strip(), (str(path), line) in ran
            if hit == ((path.name, source) in ALLOWED):
                found += 1
                print(f"{path.name}:{line}: {'ran' if hit else 'never ran'}: {source}")
    sys.exit(int(found > 0))
