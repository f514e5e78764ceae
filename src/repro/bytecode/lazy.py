"""Lazy module loading over the op-index section.

A :class:`LazyModuleReader` decodes a module artifact's tables and the
root operation's shell (attributes, regions, blocks, block arguments)
but leaves every top-level op an unread byte span, located through the
op-index section (``SECTION_OP_INDEX``).  :meth:`LazyOpHandle.force`
decodes one span and splices it into the shell at its original place.
Reader and eager :func:`~repro.bytecode.decoder.decode_module` are the
same decoder: eager decoding is opening, then forcing every top-level op
in order, so a forced module matches the eager one op for op, value for
value, location for location.

:meth:`LazyModuleReader.open` maps the file with :mod:`mmap`: opening a
million-op artifact touches only the table pages.  An artifact without
an index (older writers, ``encode_module(..., index=False)``) is read
whole at open, behind materialized handles.  Every failure — corrupt
index entries, spans that do not reconcile — is a :class:`BytecodeError`.
"""

from __future__ import annotations

import mmap
from itertools import repeat
from typing import Callable

from repro.bytecode.decoder import _guarded, _ModuleDecoder
from repro.bytecode.wire import BytecodeError
from repro.ir.context import Context
from repro.ir.operation import Operation
from repro.obs.instrument import OBS


class LazyOpHandle:
    """Top-level op ``index`` of a lazily opened module.

    Handles are views built on access, so two handles of one op are
    interchangeable; :meth:`force` decodes the subtree (idempotently).
    """

    __slots__ = ("reader", "index")

    def __init__(self, reader: "LazyModuleReader", index: int):
        self.reader = reader
        self.index = index

    @property
    def materialized(self) -> bool:
        return self.reader._decoder.ops[self.index] is not None

    @property
    def op_count(self) -> int:
        """Ops in the subtree, this one included."""
        return self.reader._decoder.op_counts[self.index]

    @property
    def name(self) -> str:
        """The op name, peeked from the span if not forced yet."""
        decoder = self.reader._decoder
        op = decoder.ops[self.index]
        if op is not None:
            return op.name
        return _guarded(decoder.name, decoder.peek_name, self.index)

    def force(self) -> Operation:
        """Materialize this op (and its regions); idempotent."""
        return self.reader._decoder.force(self.index)

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "lazy"
        return f"<LazyOpHandle #{self.index} {self.name!r} {state}>"


class _Handles:
    """A reader's handles as a sequence, built on access: opening a
    million-op module allocates no per-op objects."""

    __slots__ = ("reader",)

    def __init__(self, reader: "LazyModuleReader"):
        self.reader = reader

    def __len__(self) -> int:
        return len(self.reader._decoder.ops)

    def __getitem__(self, index):
        entries = range(len(self))[index]
        if isinstance(index, slice):
            return [LazyOpHandle(self.reader, i) for i in entries]
        return LazyOpHandle(self.reader, entries)

    def __iter__(self):
        return map(LazyOpHandle, repeat(self.reader), range(len(self)))


class LazyModuleReader:
    """Materializes a module artifact's top-level ops on demand.

    Construct over in-memory ``bytes`` (or any buffer, an ``mmap``
    too), or :meth:`open` a file.  ``handles`` holds one
    :class:`LazyOpHandle` per top-level op of ``root``, the shell they
    attach to; :meth:`module` forces them all.  :meth:`close` (or leaving
    the ``with`` block) releases the mapping; forcing after it raises
    :class:`BytecodeError`.
    """

    def __init__(self, context: Context, data, *, name: str = "<bytecode>",
                 _close: Callable[[], None] | None = None):
        self.context = context
        self.name = name
        self._close = _close
        import time

        start = time.perf_counter()
        with OBS.tracer.span("bytecode.lazy.open", category="bytecode"):
            self._decoder = _guarded(name, lambda: _ModuleDecoder(
                context, data, name, use_index=True))
        self.lazy = self._decoder.lazy
        self.root = self._decoder.root
        self.handles = _Handles(self)
        metrics = OBS.metrics
        if metrics.enabled:
            metrics.counter("bytecode.lazy.opens").inc()
            if self.lazy:
                metrics.counter("bytecode.lazy.ops_indexed").inc(
                    len(self.handles)
                )
            else:
                metrics.counter("bytecode.lazy.fallbacks").inc()
            metrics.timer("bytecode.lazy.open_time").record(
                time.perf_counter() - start
            )

    @classmethod
    def open(cls, context: Context, path: str) -> "LazyModuleReader":
        """Map ``path`` with :mod:`mmap` and open it lazily."""
        try:
            handle = open(path, "rb")
        except OSError as err:
            raise BytecodeError(f"cannot open file: {err}", path) from err
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as err:
            handle.close()
            raise BytecodeError(f"cannot mmap file: {err}", path) from err

        def close() -> None:
            mapped.close()
            handle.close()

        try:
            return cls(context, mapped, name=path, _close=close)
        except BaseException:
            close()
            raise

    def module(self) -> Operation:
        """Force every handle and return the complete root operation,
        checking, as the eager decoder does, that no forward reference
        is left unresolved."""
        decoder = self._decoder
        if self.lazy:
            with OBS.tracer.span("bytecode.lazy.force_all",
                                 category="bytecode"):
                for entry in range(len(decoder.ops)):
                    decoder.force(entry)
            decoder.values.finish()
        return self.root

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        if self._decoder.data is not None:
            self._decoder.data = None
            if self._close is not None:
                self._close()

    def __enter__(self) -> "LazyModuleReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        ops = self._decoder.ops
        forced = sum(op is not None for op in ops)
        mode = "lazy" if self.lazy else "eager-fallback"
        return (f"<LazyModuleReader {self.name!r} {mode} "
                f"{forced}/{len(ops)} forced>")
