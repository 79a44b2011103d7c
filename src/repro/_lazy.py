"""Lazy package exports (PEP 562).

Every package ``__init__`` names its public API through
:func:`lazy_exports` instead of importing its submodules: a name's
submodule is imported on first access, so ``import repro.sim.metrics``
loads the metrics module and not the simulator, and a spawned worker
or a one-shot command pays only for the code it runs.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return a package's ``(__getattr__, __dir__, __all__)``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    relative submodule name (``".machine"``) to the names it exports.
    A resolved name is cached in ``namespace``, so ``__getattr__`` runs
    once per name.
    """
    package = namespace["__name__"]
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
