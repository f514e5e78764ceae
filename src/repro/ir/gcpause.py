"""Building large IR without the cyclic garbage collector.

Parsing or decoding a module allocates hundreds of thousands of
operations, values and use records that all stay alive until the module
is built.  CPython's cyclic collector runs every few hundred allocations
and scans that growing heap each time, finding nothing to free: on a
22k-op text module it ran 374 collections during one parse and freed no
object.  :data:`BULK_BUILD` pauses it for the duration of a bulk
construction.

The collector's switch is process-wide, so the pause is too: one
counter of active pauses, guarded by a lock, shared by every thread.
The first pause to start records whether the collector was enabled and
disables it; the last one to end restores what it recorded.  Nested and
concurrent pauses therefore compose, and a caller that had disabled the
collector itself finds it still disabled.  No collection is forced on
exit: the collector's own thresholds decide when it next runs.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["BULK_BUILD", "CollectorPause"]


class CollectorPause:
    """A re-entrant, thread-safe pause of the cyclic garbage collector."""

    __slots__ = ("_lock", "_active", "_was_enabled")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self._was_enabled = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the ``with`` body with the collector disabled."""
        with self._lock:
            if self._active == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0 and self._was_enabled:
                    gc.enable()


#: The pause wrapped around ``textir.parse_module`` and
#: ``bytecode.decode_module``.
BULK_BUILD = CollectorPause()
