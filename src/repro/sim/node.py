"""A machine node: one processor, one cache module, one directory module."""

from __future__ import annotations

from typing import Callable, Optional

from ..protocol.cache_ctrl import CacheController
from ..protocol.directory_ctrl import DirectoryController
from ..protocol.messages import Message
from ..protocol.origin import OriginDirectoryController
from ..protocol.recovery import RecoveryConfig, Scheduler
from ..protocol.stache import StacheOptions


class Node:
    """One single-processor node of the simulated machine."""

    def __init__(
        self,
        node_id: int,
        send: Callable[[Message], None],
        options: StacheOptions,
        *,
        recovery: Optional[RecoveryConfig] = None,
        schedule: Optional[Scheduler] = None,
    ) -> None:
        self.node_id = node_id
        self.cache = CacheController(
            node_id, send, options, recovery=recovery, schedule=schedule
        )
        directory_cls = (
            OriginDirectoryController if options.forwarding
            else DirectoryController
        )
        self.directory = directory_cls(
            node_id, send, options, recovery=recovery, schedule=schedule
        )
