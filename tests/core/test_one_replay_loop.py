"""Structural guard: trace replays go through ``evaluate_trace``.

Walks every module under ``src/repro`` and lists each function holding a
``for`` loop whose body calls ``observe``, ``predict`` or ``update`` on
a bank or a predictor (a receiver whose source names one).  Such a loop
replays a trace through predictors beside
:func:`repro.core.evaluation.evaluate_trace`, so only the evaluator's
own module and the two loops that need a hook the evaluator does not
offer may hold one:

* ``obs/forensics.explain_trace`` reads the MHR and PHT between
  ``predict`` and ``update``;
* ``experiments/replacement.evaluate_with_history_loss`` calls
  ``forget`` between two events.

Online callers (the predictive directory, the serve worker) observe one
message at a time and hold no such loop.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Methods that feed a predictor one message.
REPLAY_METHODS = frozenset({"observe", "predict", "update"})

#: (module, function) pairs allowed a loop of their own.
ALLOWED = {
    ("obs/forensics.py", "explain_trace"),
    ("experiments/replacement.py", "evaluate_with_history_loss"),
}


def _feeds_predictor(loop: ast.AST) -> bool:
    for statement in loop.body:
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REPLAY_METHODS
            ):
                receiver = ast.unparse(node.func.value).lower()
                if "bank" in receiver or "predictor" in receiver:
                    return True
    return False


class _LoopFinder(ast.NodeVisitor):
    """(function, line) of each replay loop, by innermost function."""

    def __init__(self) -> None:
        self.functions = []
        self.found = []

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node) -> None:
        if _feeds_predictor(node):
            name = self.functions[-1] if self.functions else "<module>"
            self.found.append((name, node.lineno))
        self.generic_visit(node)

    visit_AsyncFor = visit_For


def replay_loops():
    """Every replay loop under ``src/repro``: (module, function, line)."""
    loops = []
    for path in sorted(SRC.rglob("*.py")):
        finder = _LoopFinder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        module = path.relative_to(SRC).as_posix()
        loops.extend((module, name, line) for name, line in finder.found)
    return loops


def test_only_evaluate_trace_replays_a_trace():
    stray = [
        f"{module}:{line} {name}"
        for module, name, line in replay_loops()
        if module != "core/evaluation.py" and (module, name) not in ALLOWED
    ]
    assert stray == [], (
        "replay these traces through evaluate_trace "
        "(record_outcomes=True for per-event outcomes): " + ", ".join(stray)
    )


def test_finder_sees_the_allowed_loops():
    # A finder that matched nothing would pass the guard vacuously.
    found = {(module, name) for module, name, _line in replay_loops()}
    assert ALLOWED <= found

