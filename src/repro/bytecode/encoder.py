"""Binary encoder: IR modules and IRDL dialect declarations → bytecode.

Layout of an artifact (details in ``docs/serialization.md``)::

    MAGIC "IRBC" | varint format_version | byte kind | section*
    section ::= varint section_id | varint byte_length | payload

A *module* artifact carries three sections — the string table, the
attribute pool, and the op stream.  A *dialects* artifact carries the
string table and the dialect-declaration tree.  Readers skip section ids
they do not recognise, which is what buys forward compatibility.

The attribute pool is the binary mirror of the PR 2 uniquer: every
attribute is interned before pooling, so structurally equal attributes
collapse to one pool entry referenced by index.  Entries are emitted
children-first, which makes the pool a topologically ordered DAG the
decoder can rebuild in a single forward pass.

SSA values are numbered implicitly by a fixed pre-order traversal
(results of an op before its regions; a region's block arguments before
any of its op bodies), so the op stream never spells out value names —
operands are just varint indices into that numbering.
"""

from __future__ import annotations

import sys
import time
from typing import Sequence

from repro.builtin.attributes import (
    ArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from repro.builtin.types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    Signedness,
    TensorType,
    VectorType,
)
from repro.bytecode.wire import (
    FORMAT_VERSION,
    KIND_DIALECTS,
    KIND_MODULE,
    MAGIC,
    BytecodeError,
    Writer,
    padded_varint_bytes,
    varint_bytes,
)
from repro.ir.attributes import Attribute, DynamicParametrizedAttribute
from repro.ir.location import UNKNOWN_LOC, FileLineColLoc, FusedLoc, Location
from repro.ir.operation import Operation
from repro.ir.params import (
    ArrayParam,
    EnumParam,
    FloatParam,
    IntegerParam,
    LocationParam,
    OpaqueParam,
    ParamValue,
    StringParam,
    TypeIdParam,
)
from repro.ir.uniquer import intern
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS

# ---------------------------------------------------------------------------
# Section identifiers (new sections get fresh ids; readers skip unknown ones)
# ---------------------------------------------------------------------------

SECTION_STRINGS = 1
SECTION_ATTRS = 2
SECTION_OPS = 3
SECTION_DIALECTS = 4
#: Optional lint-suppression annotations of a dialects artifact.  Emitted
#: only when some declaration carries a ``Suppress`` directive, so older
#: readers (which skip unknown section ids) stay compatible.
SECTION_SUPPRESSIONS = 5
#: Optional op-location provenance of a module artifact: a pool of
#: locations plus a sparse (op pre-order index → pool ref) mapping.
#: Emitted only when some op carries a known location, so location-free
#: modules stay byte-identical to artifacts from older encoders.
SECTION_LOCATIONS = 6
#: Optional index over the top-level ops of a module artifact: one entry
#: per direct child of the root op, carrying its byte length inside the
#: OPS payload, its SSA-value count, and its subtree op count (offsets
#: are prefix sums; see :func:`_index_payload`).  Lazy readers use it to
#: materialize top-level ops on demand (:mod:`repro.bytecode.lazy`); old
#: readers skip the unknown id.
SECTION_OP_INDEX = 7

# Location pool entry tags (SECTION_LOCATIONS).
LOC_FILE = 1
LOC_FUSED = 2

# Suppression-target kinds (SECTION_SUPPRESSIONS entries).
SUPPRESS_DIALECT = 0
SUPPRESS_TYPE = 1
SUPPRESS_ATTRIBUTE = 2
SUPPRESS_OPERATION = 3

# ---------------------------------------------------------------------------
# Attribute-pool entry tags
# ---------------------------------------------------------------------------

TAG_INTEGER_TYPE = 1
TAG_INDEX_TYPE = 2
TAG_FLOAT_TYPE = 3
TAG_FUNCTION_TYPE = 4
TAG_TENSOR_TYPE = 5
TAG_VECTOR_TYPE = 6
TAG_MEMREF_TYPE = 7
TAG_STRING_ATTR = 8
TAG_INTEGER_ATTR = 9
TAG_FLOAT_ATTR = 10
TAG_UNIT_ATTR = 11
TAG_TYPE_ATTR = 12
TAG_ARRAY_ATTR = 13
TAG_DICTIONARY_ATTR = 14
TAG_SYMBOL_REF_ATTR = 15
TAG_DYNAMIC_ATTR = 16
TAG_INTEGER_PARAM = 17
TAG_FLOAT_PARAM = 18
TAG_STRING_PARAM = 19
TAG_ENUM_PARAM = 20
TAG_ARRAY_PARAM = 21
TAG_LOCATION_PARAM = 22
TAG_TYPEID_PARAM = 23
TAG_OPAQUE_PARAM = 24

SIGNEDNESS_CODE = {
    Signedness.SIGNLESS: 0,
    Signedness.SIGNED: 1,
    Signedness.UNSIGNED: 2,
}

# Constraint-expression tags (dialect section).
EXPR_REF = 1
EXPR_INT_LITERAL = 2
EXPR_STRING_LITERAL = 3
EXPR_LIST = 4

SIGIL_CODE = {None: 0, "!": 1, "#": 2}

VARIADICITY_CODE = {
    ast.Variadicity.SINGLE: 0,
    ast.Variadicity.OPTIONAL: 1,
    ast.Variadicity.VARIADIC: 2,
}


class Pools:
    """The shared string table and attribute pool of one artifact.

    References into either table are handed out as the encoded varint of
    the entry's index, ready to append to an op stream or a pool entry.
    Attribute references are looked up by identity first: every pooled
    attribute is pinned for the lifetime of the pools, so no other live
    object can share its ``id``, and only a miss pays for ``intern``.
    """

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        #: ``text -> varint of its string index``: op names, attribute
        #: names and name hints of an op stream.
        self.string_refs: dict[str, bytes] = {}
        self.attr_entries: list[bytes] = []
        #: ``id(attribute) -> varint of its pool index``.
        self.attr_refs: dict[int, bytes] = {}
        self._param_refs: dict[ParamValue, bytes] = {}
        # The uniquer holds attributes weakly; pin pooled ones so their
        # ``id`` keys stay valid for the lifetime of this encoding.
        self._pinned: list[Attribute] = []

    def string(self, text: str) -> int:
        index = self._string_ids.get(text)
        if index is None:
            index = self._string_ids[text] = len(self.strings)
            self.strings.append(text)
        return index

    def string_ref(self, text: str) -> bytes:
        ref = self.string_refs.get(text)
        if ref is None:
            ref = self.string_refs[text] = varint_bytes(self.string(text))
        return ref

    def ref(self, value: object) -> bytes:
        """Pool reference of an attribute or parameter value.

        A value not pooled yet is encoded children first, so the pool
        stays topologically ordered."""
        if isinstance(value, Attribute):
            ref = self.attr_refs.get(id(value))
            if ref is None:
                canonical = intern(value)
                ref = self.attr_refs.get(id(canonical))
                if ref is None:
                    ref = self._add_entry(canonical)
                    self.attr_refs[id(canonical)] = ref
                    self._pinned.append(canonical)
                if canonical is not value:
                    self.attr_refs[id(value)] = ref
                    self._pinned.append(value)
            return ref
        if isinstance(value, ParamValue):
            try:
                ref = self._param_refs.get(value)
            except TypeError:  # unhashable payload (opaque params)
                return self._add_entry(value)
            if ref is None:
                ref = self._param_refs[value] = self._add_entry(value)
            return ref
        raise BytecodeError(
            f"cannot encode {type(value).__name__} as an attribute parameter"
        )

    def _add_entry(self, value: object) -> bytes:
        """Encode ``value``'s entry (its children first) and pool it."""
        w = Writer()
        if isinstance(value, Attribute):
            self._encode_attr(w, value)
        else:
            self._encode_param(w, value)  # type: ignore[arg-type]
        self.attr_entries.append(w.getvalue())
        return varint_bytes(len(self.attr_entries) - 1)

    # -- entry encodings -------------------------------------------------

    def _encode_attr(self, w: Writer, attr: Attribute) -> None:
        if isinstance(attr, DynamicParametrizedAttribute):
            from repro.ir.attributes import DynamicTypeAttribute

            w.varint(TAG_DYNAMIC_ATTR)
            w.varint(self.string(attr.attr_name))
            w.varint(1 if isinstance(attr, DynamicTypeAttribute) else 0)
            w.varint(len(attr.parameters))
            for param in attr.parameters:
                w.raw(self.ref(param))
        elif isinstance(attr, IntegerType):
            w.varint(TAG_INTEGER_TYPE)
            w.varint(attr.bitwidth)
            w.varint(SIGNEDNESS_CODE[attr.signedness])
        elif isinstance(attr, IndexType):
            w.varint(TAG_INDEX_TYPE)
        elif isinstance(attr, FloatType):
            w.varint(TAG_FLOAT_TYPE)
            w.varint(attr.bitwidth)
        elif isinstance(attr, FunctionType):
            inputs = [self.ref(t) for t in attr.inputs]
            results = [self.ref(t) for t in attr.result_types]
            w.varint(TAG_FUNCTION_TYPE)
            w.varint(len(inputs))
            for ref in inputs:
                w.raw(ref)
            w.varint(len(results))
            for ref in results:
                w.raw(ref)
        elif isinstance(attr, (TensorType, VectorType, MemRefType)):
            tag = {
                TensorType: TAG_TENSOR_TYPE,
                VectorType: TAG_VECTOR_TYPE,
                MemRefType: TAG_MEMREF_TYPE,
            }[type(attr)]
            element = self.ref(attr.element_type)
            w.varint(tag)
            w.varint(attr.rank)
            for dim in attr.shape:
                w.signed(dim)
            w.raw(element)
        elif isinstance(attr, StringAttr):
            w.varint(TAG_STRING_ATTR)
            w.varint(self.string(attr.data))
        elif isinstance(attr, IntegerAttr):
            type_ref = self.ref(attr.type)
            w.varint(TAG_INTEGER_ATTR)
            w.signed(attr.value)
            w.raw(type_ref)
        elif isinstance(attr, FloatAttr):
            type_ref = self.ref(attr.type)
            w.varint(TAG_FLOAT_ATTR)
            w.f64_bits(attr.value)
            w.raw(type_ref)
        elif isinstance(attr, UnitAttr):
            w.varint(TAG_UNIT_ATTR)
        elif isinstance(attr, TypeAttr):
            wrapped = self.ref(attr.type)
            w.varint(TAG_TYPE_ATTR)
            w.raw(wrapped)
        elif isinstance(attr, ArrayAttr):
            refs = [self.ref(e) for e in attr.elements]
            w.varint(TAG_ARRAY_ATTR)
            w.varint(len(refs))
            for ref in refs:
                w.raw(ref)
        elif isinstance(attr, DictionaryAttr):
            entries = [
                (self.string(key), self.ref(value))
                for key, value in attr.parameters
            ]
            w.varint(TAG_DICTIONARY_ATTR)
            w.varint(len(entries))
            for key_ref, value_ref in entries:
                w.varint(key_ref)
                w.raw(value_ref)
        elif isinstance(attr, SymbolRefAttr):
            w.varint(TAG_SYMBOL_REF_ATTR)
            w.varint(self.string(attr.data))
        else:
            raise BytecodeError(
                f"cannot encode attribute class "
                f"{type(attr).__module__}.{type(attr).__qualname__}; "
                "only builtin and IRDL-defined attributes have a "
                "bytecode encoding"
            )

    def _encode_param(self, w: Writer, param: ParamValue) -> None:
        if isinstance(param, IntegerParam):
            w.varint(TAG_INTEGER_PARAM)
            w.signed(param.value)
            w.varint(param.bitwidth)
            w.varint(1 if param.signed else 0)
        elif isinstance(param, FloatParam):
            w.varint(TAG_FLOAT_PARAM)
            w.f64_bits(param.value)
            w.varint(param.bitwidth)
        elif isinstance(param, StringParam):
            w.varint(TAG_STRING_PARAM)
            w.varint(self.string(param.value))
        elif isinstance(param, EnumParam):
            w.varint(TAG_ENUM_PARAM)
            w.varint(self.string(param.enum_name))
            w.varint(self.string(param.constructor))
        elif isinstance(param, ArrayParam):
            refs = [self.ref(e) for e in param.elements]
            w.varint(TAG_ARRAY_PARAM)
            w.varint(len(refs))
            for ref in refs:
                w.raw(ref)
        elif isinstance(param, LocationParam):
            w.varint(TAG_LOCATION_PARAM)
            w.varint(self.string(param.filename))
            w.varint(param.line)
            w.varint(param.column)
        elif isinstance(param, TypeIdParam):
            w.varint(TAG_TYPEID_PARAM)
            w.varint(self.string(param.qualified_name))
        elif isinstance(param, OpaqueParam):
            if not isinstance(param.value, str):
                raise BytecodeError(
                    f"cannot encode opaque parameter of {param.class_name} "
                    f"holding a non-string {type(param.value).__name__}"
                )
            w.varint(TAG_OPAQUE_PARAM)
            w.varint(self.string(param.class_name))
            w.varint(self.string(param.value))
        else:
            raise BytecodeError(
                f"cannot encode parameter class {type(param).__qualname__}"
            )


# ---------------------------------------------------------------------------
# Sections and artifact assembly
# ---------------------------------------------------------------------------


# A section payload travels as a list of byte pieces, so the streaming
# writer can batch it to the file without ever joining it.
Pieces = Sequence["bytes | bytearray"]


def _string_pieces(pools: Pools) -> list[bytes]:
    pieces = [varint_bytes(len(pools.strings))]
    for text in pools.strings:
        data = text.encode("utf-8")
        pieces += (varint_bytes(len(data)), data)
    return pieces


def _attr_pieces(pools: Pools) -> list[bytes]:
    return [varint_bytes(len(pools.attr_entries)), *pools.attr_entries]


def _frames(sections: Sequence[tuple[int, Pieces]]) -> list:
    """Section frames (id, payload length, payload) as byte pieces."""
    out: list = []
    for section_id, pieces in sections:
        out += (varint_bytes(section_id),
                varint_bytes(sum(len(piece) for piece in pieces)), *pieces)
    return out


def _header(kind: int) -> bytes:
    return MAGIC + varint_bytes(FORMAT_VERSION) + varint_bytes(kind)


def _assemble(kind: int, sections: Sequence[tuple[int, Pieces]]) -> bytes:
    return b"".join([_header(kind), *_frames(sections)])


# ---------------------------------------------------------------------------
# Module encoding
# ---------------------------------------------------------------------------

#: The streaming writer hands its buffered OPS bytes to the file at the
#: first op boundary, at any nesting depth, after the buffer reaches this
#: many bytes; section payloads written after the op stream go out in
#: batches of the same size.
STREAM_CHUNK = 1 << 16


def _number_values(root: Operation) -> dict[SSAValue, int]:
    """Assign pre-order indices: op results, then per-region block args
    (all blocks first), then op bodies — exactly the decoder's order."""
    table: dict[SSAValue, int] = {}

    def visit(op: Operation) -> None:
        for result in op.results:
            table[result] = len(table)
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    table[arg] = len(table)
            for block in region.blocks:
                for inner in block.ops:
                    visit(inner)

    visit(root)
    return table


def _write_ops(
    root: Operation, pools: Pools, index: bool, sink=None
) -> tuple[bytearray, int, list | None, list, int]:
    """The one op writer: encode the OPS payload of ``root``.

    Everything is appended to one ``bytearray``: one-byte varints are a
    single ``append``, pool and string references are the cached varint
    bytes of :class:`Pools`.  With a ``sink`` (a binary file) the buffer
    is handed to the file at op boundaries once it holds
    :data:`STREAM_CHUNK` bytes, so the payload never exists as one
    blob.  The same pass records the op-index entries of the root's
    direct children and the locations of every op, in the pre-order
    (``Operation.walk()``) the decoder numbers ops in.

    Returns ``(payload, length, index, located, op_count)``: the payload
    (empty once streamed) and its length; ``(byte_length, value_count,
    op_count)`` per top-level op, or ``None`` without ``index``;
    ``(op pre-order index, location)`` per located op; and the number
    of ops written.
    """
    values = _number_values(root)
    buf = bytearray()
    append = buf.append
    extend = buf.extend
    value_index = values.get
    attr_refs = pools.attr_refs.get
    pool_ref = pools.ref
    string_refs = pools.string_refs.get
    string_ref = pools.string_ref
    limit = STREAM_CHUNK if sink is not None else sys.maxsize
    located: list[tuple[int, Location]] = []
    flushed = op_count = value_count = 0

    def varint(value: int) -> None:
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)

    def flush() -> None:
        nonlocal flushed
        sink.write(bytes(buf))
        flushed += len(buf)
        buf.clear()

    def write_value(value: SSAValue) -> None:
        """A result or block argument: its type and optional name hint."""
        extend(attr_refs(id(value.type)) or pool_ref(value.type))
        hint = value.name_hint
        if hint is None:
            append(0)
        else:
            append(1)
            extend(string_refs(hint) or string_ref(hint))

    def write(op: Operation, block_ids: dict[int, int], record=None) -> None:
        nonlocal op_count, value_count
        location = op.location
        if location is not UNKNOWN_LOC and not location.is_unknown:
            located.append((op_count, location))
        op_count += 1
        extend(string_refs(op.name) or string_ref(op.name))
        operands = op.operands
        n = len(operands)
        append(n) if n < 0x80 else varint(n)
        for operand in operands:
            number = value_index(operand)
            if number is None:
                raise BytecodeError(
                    f"operand of {op.name} is defined outside the module "
                    "being encoded"
                )
            append(number) if number < 0x80 else varint(number)
            extend(attr_refs(id(operand.type)) or pool_ref(operand.type))
        results = op.results
        n = len(results)
        value_count += n
        append(n) if n < 0x80 else varint(n)
        for result in results:
            write_value(result)
        attributes = op.attributes
        n = len(attributes)
        append(n) if n < 0x80 else varint(n)
        for name, attr in attributes.items():
            extend(string_refs(name) or string_ref(name))
            extend(attr_refs(id(attr)) or pool_ref(attr))
        successors = op.successors
        n = len(successors)
        append(n) if n < 0x80 else varint(n)
        for successor in successors:
            block_index = block_ids.get(id(successor))
            if block_index is None:
                raise BytecodeError(
                    f"successor of {op.name} is not a block of the "
                    "enclosing region"
                )
            varint(block_index)
        regions = op.regions
        n = len(regions)
        append(n) if n < 0x80 else varint(n)
        for region in regions:
            blocks = region.blocks
            varint(len(blocks))
            for block in blocks:
                value_count += len(block.args)
                varint(len(block.args))
                for arg in block.args:
                    write_value(arg)
            inner_ids = {id(b): i for i, b in enumerate(blocks)}
            for block in blocks:
                varint(len(block.ops))
                for inner in block.ops:
                    if record is not None:
                        start = (flushed + len(buf), value_count, op_count)
                        write(inner, inner_ids)
                        record.append((flushed + len(buf) - start[0],
                                       value_count - start[1],
                                       op_count - start[2]))
                    else:
                        write(inner, inner_ids)
                    if len(buf) >= limit:
                        flush()

    varint(len(values))
    entries: list[tuple[int, int, int]] | None = [] if index else None
    write(root, {}, entries)
    length = flushed + len(buf)
    if sink is not None and buf:
        flush()
    return buf, length, entries, located, op_count


def _locations_payload(
    located: Sequence[tuple[int, Location]], pools: Pools
) -> bytes | None:
    """The optional location section of a module artifact.

    A pool of location entries (fused entries reference earlier pool
    slots, so the pool is acyclic like the attribute pool) followed by a
    sparse mapping from op pre-order index to a pool slot.  Returns
    ``None`` when every op's location is unknown."""
    if not located:
        return None
    pool_entries: list[bytes] = []
    pool_ids: dict[Location, int] = {}

    def pool_ref(loc: Location) -> int:
        index = pool_ids.get(loc)
        if index is not None:
            return index
        w = Writer()
        if isinstance(loc, FileLineColLoc):
            w.varint(LOC_FILE)
            w.varint(pools.string(loc.filename))
            w.varint(loc.line)
            w.varint(loc.col)
        elif isinstance(loc, FusedLoc):
            refs = [pool_ref(part) for part in loc.locations]
            w.varint(LOC_FUSED)
            w.varint(len(refs))
            for ref in refs:
                w.varint(ref)
        else:
            raise BytecodeError(
                f"cannot encode location class {type(loc).__qualname__}"
            )
        index = len(pool_entries)
        pool_entries.append(w.getvalue())
        pool_ids[loc] = index
        return index

    mapping = [(op_index, pool_ref(loc)) for op_index, loc in located]
    w = Writer()
    w.varint(len(pool_entries))
    for entry in pool_entries:
        w.raw(entry)
    w.varint(len(mapping))
    for op_index, ref in mapping:
        w.varint(op_index)
        w.varint(ref)
    return w.getvalue()


def _index_payload(entries: Sequence[tuple[int, int, int]]) -> bytes:
    """The op-index section: one 3-varint entry per top-level op.

    Each entry is ``(byte_length, value_count, op_count)``, recorded by
    :func:`_write_ops` as it wrote the root op's direct children.  Byte
    offsets and value starts are deliberately *not* stored: both are
    prefix sums the lazy reader reconstructs while walking the root
    shell (op spans tile each block's run contiguously, value spans
    tile the pre-order numbering), and for a million-op module the
    difference between three mostly-single-byte varints and five is
    most of the open-time parse cost.
    """
    out = bytearray(varint_bytes(len(entries)))
    append = out.append
    for entry in entries:
        for field in entry:
            if field < 0x80:
                append(field)
            else:
                out += varint_bytes(field)
    return bytes(out)


def _encode_module(root: Operation, index: bool) -> tuple[bytes, int]:
    """The artifact and the number of ops in it."""
    pools = Pools()
    payload, _, entries, located, op_count = _write_ops(root, pools, index)
    # Locations may intern new strings: build them before the table.
    locations = _locations_payload(located, pools)
    sections = [
        (SECTION_STRINGS, _string_pieces(pools)),
        (SECTION_ATTRS, _attr_pieces(pools)),
        (SECTION_OPS, [payload]),
    ]
    if entries is not None:
        sections.append((SECTION_OP_INDEX, [_index_payload(entries)]))
    if locations is not None:
        sections.append((SECTION_LOCATIONS, [locations]))
    return _assemble(KIND_MODULE, sections), op_count


def _encode_module_stream(
    root: Operation, fileobj, index: bool
) -> tuple[int, int]:
    """The number of bytes written and the number of ops in them."""
    if not fileobj.seekable():
        raise BytecodeError(
            "streaming encoding needs a seekable file (the OPS section "
            "length is patched in after the payload); use encode_module "
            "for pipes"
        )
    base = fileobj.tell()
    fileobj.write(_header(KIND_MODULE) + varint_bytes(SECTION_OPS))
    # The OPS section is streamed behind a reserved fixed-width length
    # slot: the attribute pool and string table fill up as ops are
    # written, and the payload never exists as one in-memory blob.
    pools = Pools()
    length_pos = fileobj.tell()
    fileobj.write(padded_varint_bytes(0))
    _, length, entries, located, op_count = _write_ops(
        root, pools, index, sink=fileobj
    )
    end = fileobj.tell()
    fileobj.seek(length_pos)
    fileobj.write(padded_varint_bytes(length))
    fileobj.seek(end)

    locations = _locations_payload(located, pools)
    sections = []
    if entries is not None:
        sections.append((SECTION_OP_INDEX, [_index_payload(entries)]))
    # Strings and attributes go out entry by entry, in batches of about
    # STREAM_CHUNK bytes, so neither payload is joined in memory.
    sections += [
        (SECTION_STRINGS, _string_pieces(pools)),
        (SECTION_ATTRS, _attr_pieces(pools)),
    ]
    if locations is not None:
        sections.append((SECTION_LOCATIONS, [locations]))
    batch = bytearray()
    for piece in _frames(sections):
        batch += piece
        if len(batch) >= STREAM_CHUNK:
            fileobj.write(bytes(batch))
            batch.clear()
    fileobj.write(bytes(batch))
    return fileobj.tell() - base, op_count


def _observed(span: str, encode, streamed: bool):
    """Run ``encode()`` inside an obs span and record the encode metrics."""
    start = time.perf_counter()
    with OBS.tracer.span(span, category="bytecode"):
        result, op_count = encode()
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.modules").inc()
        if streamed:
            metrics.counter("bytecode.encode.streamed").inc()
        metrics.counter("bytecode.encode.ops").inc(op_count)
        metrics.histogram("bytecode.encode.module_bytes").observe(
            result if streamed else len(result)
        )
        metrics.timer("bytecode.encode.time").record(
            time.perf_counter() - start
        )
    return result


def encode_module(root: Operation, *, index: bool = True) -> bytes:
    """Serialize an operation (usually a module) to bytecode.

    With ``index`` (the default) the artifact carries the op-index
    section that enables lazy loading; ``index=False`` reproduces the
    pre-index layout old writers emitted.
    """
    if not OBS.active:
        return _encode_module(root, index)[0]
    return _observed(
        "bytecode.encode", lambda: _encode_module(root, index), False
    )


def encode_module_stream(root: Operation, fileobj, *, index: bool = True) -> int:
    """Serialize a module to a seekable binary file, section by section.

    Functionally equivalent to ``fileobj.write(encode_module(root))``
    but the op stream goes to the file in :data:`STREAM_CHUNK` batches
    as it is encoded — the encoder never holds the OPS payload, the
    string table blob, or a second copy of the attribute pool in memory,
    so modules larger than memory encode in bounded space.  Returns the
    number of bytes written.  The OPS section length travels as a padded
    (non-canonical) varint that is patched after the payload, which is
    why the file must be seekable.
    """
    if not OBS.active:
        return _encode_module_stream(root, fileobj, index)[0]
    return _observed(
        "bytecode.encode_stream",
        lambda: _encode_module_stream(root, fileobj, index),
        True,
    )


# ---------------------------------------------------------------------------
# Dialect encoding
# ---------------------------------------------------------------------------


def _write_optional_string(w: Writer, pools: Pools, text: str | None) -> None:
    if text is None:
        w.varint(0)
    else:
        w.varint(1)
        w.varint(pools.string(text))


def _write_expr(w: Writer, pools: Pools, expr: ast.ConstraintExpr) -> None:
    if isinstance(expr, ast.RefExpr):
        w.varint(EXPR_REF)
        w.varint(SIGIL_CODE[expr.sigil])
        w.varint(pools.string(expr.name))
        if expr.params is None:
            w.varint(0)
        else:
            w.varint(1)
            w.varint(len(expr.params))
            for param in expr.params:
                _write_expr(w, pools, param)
    elif isinstance(expr, ast.IntLiteralExpr):
        w.varint(EXPR_INT_LITERAL)
        w.signed(expr.value)
        _write_optional_string(w, pools, expr.type_name)
    elif isinstance(expr, ast.StringLiteralExpr):
        w.varint(EXPR_STRING_LITERAL)
        w.varint(pools.string(expr.value))
    elif isinstance(expr, ast.ListExpr):
        w.varint(EXPR_LIST)
        w.varint(len(expr.elements))
        for element in expr.elements:
            _write_expr(w, pools, element)
    else:
        raise BytecodeError(
            f"cannot encode constraint expression {type(expr).__qualname__}"
        )


def _write_param_decl(w: Writer, pools: Pools, decl: ast.ParamDecl) -> None:
    w.varint(pools.string(decl.name))
    _write_expr(w, pools, decl.constraint)


def _write_arg_decl(w: Writer, pools: Pools, decl: ast.ArgDecl) -> None:
    w.varint(pools.string(decl.name))
    _write_expr(w, pools, decl.constraint)
    w.varint(VARIADICITY_CODE[decl.variadicity])


def _write_string_list(w: Writer, pools: Pools, items: Sequence[str]) -> None:
    w.varint(len(items))
    for item in items:
        w.varint(pools.string(item))


def _write_type_decl(w: Writer, pools: Pools, decl: ast.TypeDecl) -> None:
    w.varint(pools.string(decl.name))
    w.varint(1 if decl.is_type else 0)
    w.varint(len(decl.parameters))
    for param in decl.parameters:
        _write_param_decl(w, pools, param)
    w.varint(pools.string(decl.summary))
    _write_optional_string(w, pools, decl.format)
    _write_string_list(w, pools, decl.py_constraints)


def _write_operation_decl(
    w: Writer, pools: Pools, decl: ast.OperationDecl
) -> None:
    w.varint(pools.string(decl.name))
    w.varint(len(decl.constraint_vars))
    for var in decl.constraint_vars:
        w.varint(pools.string(var.name))
        w.varint(SIGIL_CODE[var.sigil])
        _write_expr(w, pools, var.constraint)
    for args in (decl.operands, decl.results, decl.attributes):
        w.varint(len(args))
        for arg in args:
            _write_arg_decl(w, pools, arg)
    w.varint(len(decl.regions))
    for region in decl.regions:
        w.varint(pools.string(region.name))
        w.varint(len(region.arguments))
        for arg in region.arguments:
            _write_arg_decl(w, pools, arg)
        _write_optional_string(w, pools, region.terminator)
    if decl.successors is None:
        w.varint(0)
    else:
        w.varint(1)
        _write_string_list(w, pools, decl.successors)
    _write_optional_string(w, pools, decl.format)
    w.varint(pools.string(decl.summary))
    _write_string_list(w, pools, decl.py_constraints)


def _write_dialect(w: Writer, pools: Pools, decl: ast.DialectDecl) -> None:
    w.varint(pools.string(decl.name))
    w.varint(len(decl.types))
    for type_decl in decl.types:
        _write_type_decl(w, pools, type_decl)
    w.varint(len(decl.attributes))
    for attr_decl in decl.attributes:
        _write_type_decl(w, pools, attr_decl)
    w.varint(len(decl.operations))
    for op_decl in decl.operations:
        _write_operation_decl(w, pools, op_decl)
    w.varint(len(decl.aliases))
    for alias in decl.aliases:
        w.varint(pools.string(alias.name))
        w.varint(SIGIL_CODE[alias.sigil])
        _write_string_list(w, pools, alias.type_params)
        _write_expr(w, pools, alias.body)
    w.varint(len(decl.enums))
    for enum in decl.enums:
        w.varint(pools.string(enum.name))
        _write_string_list(w, pools, enum.constructors)
    w.varint(len(decl.constraints))
    for constraint in decl.constraints:
        w.varint(pools.string(constraint.name))
        _write_expr(w, pools, constraint.base)
        w.varint(pools.string(constraint.summary))
        _write_optional_string(w, pools, constraint.py_constraint)
    w.varint(len(decl.param_wrappers))
    for wrapper in decl.param_wrappers:
        w.varint(pools.string(wrapper.name))
        w.varint(pools.string(wrapper.summary))
        w.varint(pools.string(wrapper.py_class_name))
        w.varint(pools.string(wrapper.py_parser))
        w.varint(pools.string(wrapper.py_printer))


def _suppression_entries(
    decls: Sequence[ast.DialectDecl],
) -> list[tuple[int, int, int, str]]:
    entries: list[tuple[int, int, int, str]] = []
    for dialect_index, decl in enumerate(decls):
        for code in decl.suppressions:
            entries.append((dialect_index, SUPPRESS_DIALECT, 0, code))
        for kind, items in (
            (SUPPRESS_TYPE, decl.types),
            (SUPPRESS_ATTRIBUTE, decl.attributes),
            (SUPPRESS_OPERATION, decl.operations),
        ):
            for index, item in enumerate(items):
                for code in item.suppressions:
                    entries.append((dialect_index, kind, index, code))
    return entries


def _encode_dialects(decls: Sequence[ast.DialectDecl]) -> bytes:
    pools = Pools()
    body = Writer()
    body.varint(len(decls))
    for decl in decls:
        _write_dialect(body, pools, decl)
    extra: list[tuple[int, Pieces]] = []
    entries = _suppression_entries(decls)
    if entries:
        w = Writer()
        w.varint(len(entries))
        for dialect_index, kind, index, code in entries:
            w.varint(dialect_index)
            w.varint(kind)
            w.varint(index)
            w.varint(pools.string(code))
        extra.append((SECTION_SUPPRESSIONS, [w.getvalue()]))
    return _assemble(
        KIND_DIALECTS,
        [
            (SECTION_STRINGS, _string_pieces(pools)),
            (SECTION_DIALECTS, [body.getvalue()]),
            *extra,
        ],
    )


def encode_dialects(
    decls: ast.DialectDecl | Sequence[ast.DialectDecl],
) -> bytes:
    """Serialize IRDL dialect declarations (the parsed AST) to bytecode."""
    if isinstance(decls, ast.DialectDecl):
        decls = [decls]
    decls = list(decls)
    if not OBS.active:
        return _encode_dialects(decls)
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.encode_dialects", category="bytecode"):
        data = _encode_dialects(decls)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.dialects").inc(len(decls))
        metrics.histogram("bytecode.encode.dialect_bytes").observe(len(data))
        metrics.timer("bytecode.encode.time").record(
            time.perf_counter() - start
        )
    return data
