"""Coherence-protocol substrate: message vocabulary, states, and FSMs."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".cache_ctrl": ("CacheController",),
        ".directory_ctrl": ("DirectoryController",),
        ".messages": (
            "CACHE_BOUND",
            "DIRECTORY_BOUND",
            "MESSAGE_DESCRIPTIONS",
            "TABLE1_TYPES",
            "Message",
            "MessageType",
            "Role",
            "format_table1",
            "parse_message_type",
            "receiver_role",
        ),
        ".origin": ("OriginDirectoryController",),
        ".stache": ("DEFAULT_OPTIONS", "StacheOptions"),
        ".state": ("CacheState", "DirEntry", "DirState"),
    },
)
