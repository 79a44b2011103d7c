"""Exhaustive model checking of the coherence protocol.

The model checker re-expresses the Stache/Origin controllers as a
guarded-action transition relation over frozen tuples
(:mod:`repro.mc.model`), enumerates the full reachable state space of
small configurations (:mod:`repro.mc.explorer`), and cross-validates
the model against the live simulator through an abstraction function
(:mod:`repro.mc.abstraction`, :mod:`repro.mc.crossval`).  A battery of
seeded protocol mutations (:mod:`repro.mc.mutations`) proves the
oracles actually bite.  ``repro-check`` (:mod:`repro.mc.cli`) is the
command-line entry point.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".abstraction": ("abstract_state", "spot_project"),
        ".crossval": (
            "CrossValReport",
            "RoundTrip",
            "concretize",
            "cross_validate",
        ),
        ".explorer": (
            "ExploreResult",
            "Violation",
            "enumerate_space",
            "reachable_space",
        ),
        ".model": ("KNOWN_MUTATIONS", "MCConfig", "Model"),
        ".mutations": ("MUTATIONS", "live_patch"),
    },
)
