"""Line coverage of src/ambiuq with the standard library only, as a pytest plugin:
PYTHONPATH=src:tests python -m pytest -q -p line_coverage
prints each statement of src/ambiuq that no test executed. Tracing slows the
suite down, so a time-bounded test can overrun under it."""

import ast
import sys
from pathlib import Path

SRC = str(Path(__file__).absolute().parent.parent / "src" / "ambiuq")
_hit = set()  # (file name, line number)


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def pytest_configure(config):
    sys.settrace(_trace)  # before collection imports ambiuq


def pytest_runtest_setup(item):
    sys.settrace(_trace)  # hypothesis swaps tracers while it runs


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    for path in sorted(Path(SRC).glob("*.py")):
        nodes = (n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.stmt))
        for n in sorted(nodes, key=lambda n: n.lineno):
            if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant):
                continue  # a docstring does not run
            # a compound statement runs on its header lines, not on its body's
            end = n.body[0].lineno - 1 if hasattr(n, "body") else n.end_lineno
            if not any((str(path), i) in _hit for i in range(n.lineno, max(n.lineno, end) + 1)):
                terminalreporter.write_line(f"not run: {path.name}:{n.lineno}")
