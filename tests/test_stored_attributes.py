"""Structural guard: every attribute stored on ``self`` is read somewhere.

The state-side twin of ``tests/test_config_fields.py``.  Walks every
module under ``src/repro`` for attributes assigned on ``self``
(``self.x = ...``, ``self.x += ...``, ``self.x: T = ...``) and checks
that each name is loaded somewhere in ``src/repro`` or ``tests/``:
as an attribute (``obj.x``) or as a string constant (``getattr(obj,
"x")``, ``__slots__``-driven copies).  A stored value that nothing
loads is state the program pays to keep, pickle and checkpoint for no
reader; it belongs deleted, not kept "for statistics".
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _stored_on_self(tree):
    """``(attribute, line)`` for each store to an attribute of ``self``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr, node.lineno


def _loaded_names(tree):
    """Attribute names loaded, and every string constant, in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_stored_attribute_is_read():
    stored = {}
    loaded = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        where = path.relative_to(SRC.parent)
        for name, line in _stored_on_self(tree):
            stored.setdefault(name, f"{where}:{line}")
        loaded.update(_loaded_names(tree))
    for path in sorted(TESTS.rglob("*.py")):
        loaded.update(_loaded_names(_parse(path)))
    assert stored, "found no attribute stored on self"
    unread = sorted(
        f"{stored[name]} self.{name}"
        for name in stored
        if name not in loaded
    )
    assert not unread, (
        "attributes stored on self that nothing in src/repro or tests "
        f"reads: {unread}"
    )
