"""Structural guard: every config field is read by the code it configures.

Walks every module under ``src/repro`` and checks that each annotated
field of the config classes below is read as an attribute somewhere.
Reads inside the class's own rendering, validation and parsing methods
(``describe``, ``__post_init__``, ``__str__``, ``__repr__``, ``spec``,
``parse``) do not count: a field read only there is printed or checked
but changes nothing, so ``SystemParams(cache_associativity=4)`` would
silently simulate the same machine.  Such a value belongs in a constant.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: The config classes whose every field must have an effect.
CONFIG_CLASSES = (
    "SystemParams",
    "StacheOptions",
    "CosmosConfig",
    "ServeConfig",
    "RecoveryConfig",
    "WatchdogConfig",
    "FaultProfile",
    "MCConfig",
    "ExploreConfig",
    "RetryPolicy",
)

#: A config class's own methods whose reads are not a use of a field.
NOT_A_USE = frozenset(
    {"describe", "__post_init__", "__str__", "__repr__", "spec", "parse"}
)


class _Reads(ast.NodeVisitor):
    """Each attribute load as (attribute, enclosing class, its method)."""

    def __init__(self) -> None:
        self.scope = []  # (class name, method name or None)
        self.reads = set()
        self.classes = {}

    def visit_ClassDef(self, node) -> None:
        self.classes.setdefault(node.name, node)
        self.scope.append((node.name, None))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        cls, method = self.scope[-1] if self.scope else (None, None)
        self.scope.append((cls, method or node.name))
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            cls, method = self.scope[-1] if self.scope else (None, None)
            self.reads.add((node.attr, cls, method))
        self.generic_visit(node)


def _scan() -> _Reads:
    reads = _Reads()
    for path in sorted(SRC.rglob("*.py")):
        reads.visit(ast.parse(path.read_text(), filename=str(path)))
    return reads


SCAN = _scan()


def _fields(cls: ast.ClassDef):
    return [
        statement.target.id
        for statement in cls.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    ]


@pytest.mark.parametrize("name", CONFIG_CLASSES)
def test_every_field_is_read(name):
    cls = SCAN.classes[name]
    fields = _fields(cls)
    assert fields, f"{name} has no annotated fields to check"
    inert = [
        field
        for field in fields
        if not any(
            attr == field and not (owner == name and method in NOT_A_USE)
            for attr, owner, method in SCAN.reads
        )
    ]
    assert not inert, (
        f"{name} fields read by nothing but its own "
        f"{'/'.join(sorted(NOT_A_USE))}: {inert}"
    )
