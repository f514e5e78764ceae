"""Binary decoder: bytecode → IR modules and IRDL dialect declarations.

The decoder is a single forward pass over the section frames written by
:mod:`repro.bytecode.encoder`.  Unknown section ids are skipped (their
length prefix tells us how far), which is the format's forward-compat
mechanism.  A module's op stream has one reader, :class:`_ModuleDecoder`,
behind both :func:`decode_module` and :mod:`repro.bytecode.lazy`.

Robustness contract: **no input, however corrupt, escapes as anything
but a** :class:`~repro.bytecode.wire.BytecodeError` (a
:class:`~repro.utils.diagnostics.DiagnosticError`).  Three layers
enforce it:

* every table read is bounds-checked by :class:`wire.Reader`, and the
  op reader reads ``bytes`` spans cut to size;
* every table reference is range-checked against the entries decoded so
  far (which also rules out reference cycles: an entry can only point
  backwards);
* the entry points turn any *other* exception a hostile byte stream
  manages to provoke (``IndexError`` past an op span or table,
  ``VerifyError`` from attribute verification, …) into a
  ``BytecodeError`` as a last line of defence.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any

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
from repro.bytecode import encoder as enc
from repro.bytecode.wire import (
    KIND_DIALECTS,
    KIND_MODULE,
    MAGIC,
    SUPPORTED_VERSIONS,
    BytecodeError,
    Reader,
)
from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.gcpause import BULK_BUILD
from repro.ir.location import FileLineColLoc, FusedLoc, Location
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
from repro.ir.region import Region
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS

_SIGNEDNESS_FROM_CODE = {
    code: signedness for signedness, code in enc.SIGNEDNESS_CODE.items()
}
_SIGIL_FROM_CODE = {code: sigil for sigil, code in enc.SIGIL_CODE.items()}
_VARIADICITY_FROM_CODE = {
    code: var for var, code in enc.VARIADICITY_CODE.items()
}

#: Kinds of attribute-pool entries (see ``_AttrTable.kinds``).
_PARAM, _ATTR, _TYPE = 0, 1, 2
_KINDS = ("parameter", "attribute", "type")


def _malformed(err: Exception, name: str) -> BytecodeError:
    """The BytecodeError reporting an escape from a decoder."""
    if isinstance(err, IndexError):
        return BytecodeError(
            "malformed bytecode: truncated input or out-of-range reference",
            name,
        )
    return BytecodeError(
        f"malformed bytecode: {type(err).__name__}: {err}", name
    )


def _guarded(name: str, fn, *args: Any):
    """``fn(*args)``, any non-BytecodeError escape turned into one."""
    try:
        return fn(*args)
    except BytecodeError:
        raise
    except Exception as err:
        raise _malformed(err, name) from err


def _wrap_errors(fn):
    """Convert any non-BytecodeError escape into a clean BytecodeError."""

    def wrapper(*args: Any, name: str = "<bytecode>", **kwargs: Any):
        return _guarded(name, lambda: fn(*args, name=name, **kwargs))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# Header and section framing
# ---------------------------------------------------------------------------


def _read_header(reader: Reader, expected_kind: int) -> None:
    magic = reader.raw(len(MAGIC))
    if magic != MAGIC:
        raise BytecodeError(
            f"bad magic number {magic!r} (expected {MAGIC!r})", reader.name
        )
    version = reader.varint()
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise BytecodeError(
            f"unsupported format version {version} "
            f"(this reader supports: {supported})",
            reader.name,
        )
    kind = reader.varint()
    if kind != expected_kind:
        names = {KIND_MODULE: "an IR module", KIND_DIALECTS: "IRDL dialects"}
        raise BytecodeError(
            f"artifact holds {names.get(kind, f'unknown payload {kind}')}, "
            f"expected {names[expected_kind]}",
            reader.name,
        )


def _read_sections(reader: Reader) -> dict[int, Reader]:
    """Collect known section frames, skipping unrecognised ids."""
    sections: dict[int, Reader] = {}
    known = (
        enc.SECTION_STRINGS,
        enc.SECTION_ATTRS,
        enc.SECTION_OPS,
        enc.SECTION_DIALECTS,
        enc.SECTION_SUPPRESSIONS,
        enc.SECTION_LOCATIONS,
        enc.SECTION_OP_INDEX,
    )
    skipped = 0
    while not reader.at_end():
        section_id = reader.varint()
        length = reader.varint()
        sub = reader.subreader(length)
        if section_id in known:
            if section_id in sections:
                raise BytecodeError(
                    f"duplicate section {section_id}", reader.name
                )
            sections[section_id] = sub
        else:
            skipped += 1
    if skipped and OBS.metrics.enabled:
        OBS.metrics.counter("bytecode.decode.sections_skipped").inc(skipped)
    return sections


def _require_section(
    sections: dict[int, Reader], section_id: int, what: str, name: str
) -> Reader:
    section = sections.get(section_id)
    if section is None:
        raise BytecodeError(f"missing {what} section", name)
    return section


def _read_string_table(sections: dict[int, Reader], name: str) -> list[str]:
    reader = _require_section(sections, enc.SECTION_STRINGS, "string", name)
    count = reader.count("string count")
    return [reader.string_bytes() for _ in range(count)]


class _StringTable:
    __slots__ = ("strings",)

    def __init__(self, strings: list[str]):
        self.strings = strings

    def get(self, reader: Reader) -> str:
        index = reader.bounded_varint(len(self.strings), "string reference")
        return self.strings[index]


# ---------------------------------------------------------------------------
# Attribute pool
# ---------------------------------------------------------------------------


class _AttrTable:
    """Decodes the attribute pool in one forward pass.

    References inside an entry are bounded by the number of entries
    decoded *before* it, so the pool is acyclic by construction.
    """

    __slots__ = ("entries", "kinds", "context")

    def __init__(self, context: Context):
        self.entries: list[Attribute | ParamValue] = []
        #: Per entry ``_TYPE``, ``_ATTR`` or ``_PARAM``: a reference's
        #: kind is checked with one index, here and in the op reader.
        self.kinds = bytearray()
        self.context = context

    def get(self, reader: Reader, kind: int = _PARAM) -> Any:
        """The entry referenced next, of at least ``kind``."""
        index = reader.bounded_varint(len(self.entries), "attribute reference")
        if self.kinds[index] < kind:
            raise reader.error(f"reference {index} is not a {_KINDS[kind]}")
        return self.entries[index]

    def load(self, reader: Reader, strings: _StringTable) -> None:
        for _ in range(reader.count("attribute count")):
            value = self._build(reader.varint(), reader, strings)
            if isinstance(value, Attribute):
                value.verify()
                value = self.context.intern(value)
            self.entries.append(value)
            self.kinds.append(
                _TYPE if isinstance(value, TypeAttribute)
                else _ATTR if isinstance(value, Attribute) else _PARAM
            )

    def _build(
        self, tag: int, reader: Reader, strings: _StringTable
    ) -> Attribute | ParamValue:
        if tag == enc.TAG_INTEGER_TYPE:
            bitwidth = reader.varint()
            code = reader.varint()
            signedness = _SIGNEDNESS_FROM_CODE.get(code)
            if signedness is None:
                raise reader.error(f"invalid signedness code {code}")
            return IntegerType(bitwidth, signedness)
        if tag == enc.TAG_INDEX_TYPE:
            return IndexType()
        if tag == enc.TAG_FLOAT_TYPE:
            return FloatType(reader.varint())
        if tag == enc.TAG_FUNCTION_TYPE:
            inputs = [self.get(reader, _TYPE) for _ in range(reader.varint())]
            results = [self.get(reader, _TYPE) for _ in range(reader.varint())]
            return FunctionType(inputs, results)
        if tag in (enc.TAG_TENSOR_TYPE, enc.TAG_VECTOR_TYPE,
                   enc.TAG_MEMREF_TYPE):
            rank = reader.count("shape rank")
            shape = [reader.signed() for _ in range(rank)]
            element = self.get(reader, _TYPE)
            cls = {
                enc.TAG_TENSOR_TYPE: TensorType,
                enc.TAG_VECTOR_TYPE: VectorType,
                enc.TAG_MEMREF_TYPE: MemRefType,
            }[tag]
            return cls(shape, element)
        if tag == enc.TAG_STRING_ATTR:
            return StringAttr(strings.get(reader))
        if tag == enc.TAG_INTEGER_ATTR:
            value = reader.signed()
            return IntegerAttr(value, self.get(reader, _TYPE))
        if tag == enc.TAG_FLOAT_ATTR:
            value = reader.f64_bits()
            return FloatAttr(value, self.get(reader, _TYPE))
        if tag == enc.TAG_UNIT_ATTR:
            return UnitAttr()
        if tag == enc.TAG_TYPE_ATTR:
            return TypeAttr(self.get(reader, _TYPE))
        if tag == enc.TAG_ARRAY_ATTR:
            count = reader.count("array length")
            return ArrayAttr([self.get(reader, _ATTR) for _ in range(count)])
        if tag == enc.TAG_DICTIONARY_ATTR:
            count = reader.count("dictionary size")
            entries: dict[str, Attribute] = {}
            for _ in range(count):
                key = strings.get(reader)
                entries[key] = self.get(reader, _ATTR)
            return DictionaryAttr(entries)
        if tag == enc.TAG_SYMBOL_REF_ATTR:
            return SymbolRefAttr(strings.get(reader))
        if tag == enc.TAG_DYNAMIC_ATTR:
            qualified_name = strings.get(reader)
            is_type = reader.varint()
            count = reader.count("parameter count")
            params = [self.get(reader) for _ in range(count)]
            binding = self.context.get_type_or_attr_def(qualified_name)
            if binding is None:
                raise reader.error(
                    f"references {qualified_name!r}, which is not "
                    "registered in this context"
                )
            attr = binding.instantiate(params)
            if bool(is_type) != isinstance(attr, TypeAttribute):
                raise reader.error(
                    f"{qualified_name!r} type/attribute kind mismatch"
                )
            return attr
        if tag == enc.TAG_INTEGER_PARAM:
            value = reader.signed()
            bitwidth = reader.varint()
            signed = reader.varint()
            return IntegerParam(value, bitwidth, bool(signed))
        if tag == enc.TAG_FLOAT_PARAM:
            value = reader.f64_bits()
            return FloatParam(value, reader.varint())
        if tag == enc.TAG_STRING_PARAM:
            return StringParam(strings.get(reader))
        if tag == enc.TAG_ENUM_PARAM:
            enum_name = strings.get(reader)
            return EnumParam(enum_name, strings.get(reader))
        if tag == enc.TAG_ARRAY_PARAM:
            count = reader.count("array length")
            return ArrayParam(tuple(self.get(reader) for _ in range(count)))
        if tag == enc.TAG_LOCATION_PARAM:
            filename = strings.get(reader)
            line = reader.varint()
            return LocationParam(filename, line, reader.varint())
        if tag == enc.TAG_TYPEID_PARAM:
            return TypeIdParam(strings.get(reader))
        if tag == enc.TAG_OPAQUE_PARAM:
            class_name = strings.get(reader)
            return OpaqueParam(class_name, strings.get(reader))
        raise reader.error(f"unknown attribute pool tag {tag}")


# ---------------------------------------------------------------------------
# Op stream
# ---------------------------------------------------------------------------


def _varint(buf, pos: int) -> tuple[int, int]:
    """The multi-byte LEB128 varint at ``buf[pos]``: ``(value, next pos)``.

    The op reader inlines one-byte varints; this takes the rest, two-byte
    ones first.  A read past ``buf`` raises ``IndexError``.
    """
    value = buf[pos] & 0x7F
    byte = buf[pos + 1]
    if byte < 0x80:
        return value | byte << 7, pos + 2
    shift = 7
    while byte > 0x7F:
        value |= (byte & 0x7F) << shift
        shift += 7
        if shift > 63:
            raise ValueError("varint is longer than 10 bytes")
        pos += 1
        byte = buf[pos + 1]
    return value | byte << shift, pos + 2


#: The bytes without a continuation bit: deleting them from a payload
#: leaves nothing iff each of its varints is one byte long.
_ONE_BYTE = bytes(range(0x80))


def _read_index(reader: Reader) -> bytes | list[int]:
    """The op-index payload as flat fields, three per top-level op (byte
    length, value count, subtree op count): the payload itself when every
    field is one byte.  Slicing, ``sum`` and ``in`` run at C speed."""
    count = reader.varint()
    fields = bytes(reader.data[reader.pos:reader.end])
    if fields.translate(None, _ONE_BYTE):
        body, fields, pos = fields, [], 0
        while pos < len(body):
            value, pos = body[pos], pos + 1
            if value > 0x7F:
                value, pos = _varint(body, pos - 1)
            fields.append(value)
    if len(fields) != count * 3:
        raise reader.error(
            f"op index declares {count} entries, carries {len(fields)} fields"
        )
    return fields


def _read_locations(reader: Reader, strings: _StringTable) -> dict:
    """The location pool, then the sparse mapping from op pre-order
    (``walk()``) index to pool entry; the caller bounds the indices.

    Fused entries may only reference earlier slots, so the pool decodes
    in one forward pass.
    """
    pool: list[Location] = []
    for _ in range(reader.count("location count")):
        tag = reader.varint()
        if tag == enc.LOC_FILE:
            filename = strings.get(reader)
            line = reader.varint()
            pool.append(FileLineColLoc(filename, line, reader.varint()))
        elif tag == enc.LOC_FUSED:
            pool.append(FusedLoc([
                pool[reader.bounded_varint(len(pool), "location reference")]
                for _ in range(reader.count("fused location arity"))
            ]))
        else:
            raise reader.error(f"unknown location pool tag {tag}")
    mapping: dict[int, Location] = {}
    for _ in range(reader.count("location mapping count")):
        op_index = reader.varint()
        mapping[op_index] = pool[
            reader.bounded_varint(len(pool), "location reference")
        ]
    if not reader.at_end():
        raise reader.error(
            f"{reader.remaining} trailing bytes after the last location"
        )
    return mapping


class _Values:
    """The module-wide SSA value numbering, one slot per global index.

    Definitions fill the span ``[cursor, end)``: the whole numbering in
    a whole-stream read, the span the op index declares for a forced
    top-level op.  An operand naming a value not defined yet — a CFG
    forward reference, or one into a top-level op not forced yet — gets
    a typed placeholder that the definition replaces.
    """

    __slots__ = ("slots", "placeholders", "cursor", "end", "name")

    def __init__(self, size: int, name: str):
        self.slots: list[SSAValue | None] = [None] * size
        self.placeholders: dict[int, SSAValue] = {}
        self.cursor = 0
        self.end = size
        self.name = name

    def operand(self, index: int, value_type: Attribute) -> SSAValue:
        """An operand lookup's slow path: not defined yet, or typed
        differently."""
        value = self.slots[index] or self.placeholders.get(index)
        if value is None:
            value = self.placeholders[index] = SSAValue(value_type)
        elif value.type != value_type:
            raise BytecodeError(
                f"operand references value {index} as {value_type}, but "
                f"it has type {value.type}",
                self.name,
            )
        return value

    def define(self, values, hints: dict[int, str] | None) -> None:
        """Define ``values`` at the next indices, with their name hints."""
        index = self.cursor
        self.cursor += len(values)
        if self.cursor > self.end:
            raise BytecodeError(
                "op stream defines more values than it declares", self.name
            )
        for value in values:
            if self.slots[index] is not None:
                raise BytecodeError(f"value {index} defined twice", self.name)
            self.slots[index] = value
            placeholder = self.placeholders.pop(index, None)
            if placeholder is not None:
                if placeholder.type != value.type:
                    raise BytecodeError(
                        f"value {index} was forward-referenced as "
                        f"{placeholder.type} but defined as {value.type}",
                        self.name,
                    )
                placeholder.replace_all_uses_with(value)
            index += 1
        if hints:
            for position, hint in hints.items():
                values[position].name_hint = hint

    def finish(self) -> None:
        if self.placeholders:
            missing = sorted(self.placeholders)
            raise BytecodeError(
                f"operands reference undefined values {missing}", self.name
            )


#: Marks an op-definition cache slot not looked up yet.
_UNRESOLVED = object()


class _ModuleDecoder:
    """The one decoder of a module artifact's op stream.

    Construction reads the tables and the root op.  With ``use_index``
    and an op-index section, the top-level ops stay byte spans that
    :meth:`force` materializes one at a time, in any order (the lazy
    reader); otherwise the read goes on through the whole stream,
    forcing each top-level op in order (the eager decoder).  Every op
    goes through :meth:`_read_op`, over a ``bytes`` span: one-byte
    varints are inlined, and a read past the span or a reference past
    its table raises ``IndexError``, reported as :class:`BytecodeError`.
    """

    def __init__(self, context: Context, data, name: str, use_index: bool):
        self.context = context
        self.data = data
        self.name = name
        reader = Reader(data, name)
        _read_header(reader, KIND_MODULE)
        sections = _read_sections(reader)
        strings = _StringTable(_read_string_table(sections, name))
        attrs = _AttrTable(context)
        attrs.load(
            _require_section(sections, enc.SECTION_ATTRS, "attribute", name),
            strings,
        )
        self.strings, self.attrs = strings.strings, attrs.entries
        self.kinds = attrs.kinds
        self.op_defs = [_UNRESOLVED] * len(self.strings)
        locations = sections.get(enc.SECTION_LOCATIONS)
        self.locations = (
            {} if locations is None else _read_locations(locations, strings)
        )
        ops = _require_section(sections, enc.SECTION_OPS, "op", name)
        total = ops.varint()
        size = ops.end - ops.pos
        index = sections.get(enc.SECTION_OP_INDEX) if use_index else None
        self.lazy = index is not None
        if self.lazy:
            if total > size:
                raise ops.error(f"{total} values declared in {size} bytes")
            fields = _read_index(index)
            #: Per top-level entry: the index fields, and the forced op.
            self.lengths = fields[0::3]
            self.value_counts = fields[1::3]
            self.op_counts = fields[2::3]
            self.ops: list[Operation | None] = [None] * len(self.op_counts)
        else:
            # Each definition takes a byte: a larger count is unreachable.
            total = min(total, size)
            self.op_counts, self.ops = [], []
        self.values = _Values(total, name)
        self.walk = self.entries = 0
        #: Per run of top-level ops (one block's): first entry, block, and
        #: the byte offset, value index and walk index it starts at.
        self.runs: list[tuple[int, Block, int, int, int]] = []
        self.run_bases: list[int] = []
        self.forced: list[list[int]] = []
        self.spans: tuple[array, array, array] | None = None
        self.next_entry, self.next_starts = -1, (0, 0, 0)
        self.base = self.ops_start = ops.pos
        with memoryview(data) as view, view[ops.pos:ops.end] as buf:
            # Lazily the shell is a few bytes between skipped runs: view
            # them in place.  Eagerly every byte is read: copy them once.
            self.root, pos = self._read_op(
                buf if self.lazy else bytes(buf), 0, [], top=True
            )
            if pos != len(buf):
                raise self._error(pos, "trailing bytes after the root op")
        if not self.lazy:
            self.values.finish()
        elif (self.entries, self.values.cursor) != (len(self.ops), total):
            raise ops.error(f"op index covers {len(self.ops)} top-level ops "
                            f"and {self.values.cursor} values, op stream "
                            f"{self.entries} and {total}")
        if self.locations and max(self.locations) >= self.walk:
            raise BytecodeError("location op index out of range", name)
        if OBS.metrics.enabled:  # lazily the root, eagerly every op
            read = 1 if self.lazy else self.walk
            OBS.metrics.counter("bytecode.decode.ops").inc(read)

    def _error(self, pos: int, message: str) -> BytecodeError:
        return BytecodeError(f"at byte {self.base + pos}: {message}",
                             self.name)

    def _resolve_op(self, ref: int):
        """The op definition of string ``ref``, looked up once."""
        name = self.strings[ref]
        definition = self.context.get_op_def(name)
        if definition is None and not self.context.allow_unregistered:
            raise BytecodeError(f"op {name!r} is not registered", self.name)
        self.op_defs[ref] = definition
        return definition

    def _read_types(self, buf, pos: int):
        """Count, then per value a type and a name hint: ``(types,
        hints or None, pos)``."""
        count, pos = buf[pos], pos + 1
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        types, hints = [], None
        for position in range(count):
            ref, pos = buf[pos], pos + 1
            if ref > 0x7F:
                ref, pos = _varint(buf, pos - 1)
            if self.kinds[ref] != _TYPE:
                raise self._error(pos, f"reference {ref} is not a type")
            types.append(self.attrs[ref])
            flag, pos = buf[pos], pos + 1
            if flag > 0x7F:
                flag, pos = _varint(buf, pos - 1)
            if flag == 1:
                ref, pos = buf[pos], pos + 1
                if ref > 0x7F:
                    ref, pos = _varint(buf, pos - 1)
                hints = hints or {}
                hints[position] = self.strings[ref]
            elif flag:
                raise self._error(pos, f"invalid name-hint flag {flag}")
        return types, hints, pos

    def _read_op(self, buf, pos: int, blocks: list[Block],
                 top: bool = False) -> tuple[Operation, int]:
        """One op and its regions at ``buf[pos]``; ``blocks`` are the
        successor targets.  ``top`` (the root) hands the op runs of its
        blocks to :meth:`_read_run`."""
        attrs, kinds, values = self.attrs, self.kinds, self.values
        name, pos = buf[pos], pos + 1
        if name > 0x7F:
            name, pos = _varint(buf, pos - 1)
        definition = self.op_defs[name]
        if definition is _UNRESOLVED:
            definition = self._resolve_op(name)
        count, pos = buf[pos], pos + 1
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        operands = []
        for _ in range(count):
            index, pos = buf[pos], pos + 1
            if index > 0x7F:
                index, pos = _varint(buf, pos - 1)
            ref, pos = buf[pos], pos + 1
            if ref > 0x7F:
                ref, pos = _varint(buf, pos - 1)
            if kinds[ref] != _TYPE:
                raise self._error(pos, f"reference {ref} is not a type")
            value = values.slots[index]
            if value is None or value.type is not attrs[ref]:
                value = values.operand(index, attrs[ref])
            operands.append(value)
        result_types, hints, pos = self._read_types(buf, pos)
        count, pos = buf[pos], pos + 1
        attributes = {}
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        for _ in range(count):
            key, pos = buf[pos], pos + 1
            if key > 0x7F:
                key, pos = _varint(buf, pos - 1)
            ref, pos = buf[pos], pos + 1
            if ref > 0x7F:
                ref, pos = _varint(buf, pos - 1)
            if kinds[ref] == _PARAM:
                raise self._error(pos, f"reference {ref} is not an attribute")
            attributes[self.strings[key]] = attrs[ref]
        count, pos = buf[pos], pos + 1
        successors = []
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        for _ in range(count):
            ref, pos = buf[pos], pos + 1
            if ref > 0x7F:
                ref, pos = _varint(buf, pos - 1)
            successors.append(blocks[ref])
        op = Operation(self.strings[name], operands, result_types, attributes,
                       successors, definition=definition)
        if self.locations and self.walk in self.locations:
            op.location = self.locations[self.walk]
        self.walk += 1
        if result_types:
            values.define(op.results, hints)
        count, pos = buf[pos], pos + 1
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        for _ in range(count):
            region, pos = self._read_region(buf, pos, top)
            op.add_region(region)
        return op, pos

    def _read_region(self, buf, pos: int, top: bool) -> tuple[Region, int]:
        count, pos = buf[pos], pos + 1
        if count > 0x7F:
            count, pos = _varint(buf, pos - 1)
        region = Region()
        for _ in range(count):
            arg_types, hints, pos = self._read_types(buf, pos)
            block = region.add_block(Block(arg_types))
            if arg_types:
                self.values.define(block.args, hints)
        for block in region.blocks:
            count, pos = buf[pos], pos + 1
            if count > 0x7F:
                count, pos = _varint(buf, pos - 1)
            if top:
                pos = self._read_run(buf, pos, block, count)
                continue
            for _ in range(count):
                op, pos = self._read_op(buf, pos, region.blocks)
                block.add_op(op)
        return region, pos

    def _read_run(self, buf, pos: int, block: Block, count: int) -> int:
        """The ``count`` top-level ops of ``block``: read and forced in
        order, or, lazily, checked against their index entries and
        stepped over."""
        base = self.entries
        self.entries += count
        if not count:
            return pos
        if not self.lazy:
            for _ in range(count):
                walk = self.walk
                op, pos = self._read_op(buf, pos, block.parent.blocks)
                self.ops.append(block.add_op(op))
                self.op_counts.append(self.walk - walk)
            return pos
        if self.entries > len(self.ops):
            raise self._error(pos, "op stream holds more top-level ops than "
                              "the op index declares")
        if 0 in self.op_counts[base:self.entries]:
            raise self._error(pos, "op-index entry with an empty subtree")
        self.runs.append((base, block, pos, self.values.cursor, self.walk))
        self.run_bases.append(base)
        self.forced.append([])
        pos += sum(self.lengths[base:self.entries])
        if pos > len(buf):
            raise self._error(len(buf), "op-index spans overrun the section")
        self.values.cursor += sum(self.value_counts[base:self.entries])
        self.walk += sum(self.op_counts[base:self.entries])
        return pos

    # ------------------------------------------------------------------
    # Forcing
    # ------------------------------------------------------------------

    def _starts(self, entry: int, run: int) -> tuple[int, int, int]:
        """Entry ``entry``'s byte offset, first value and walk index.

        Spans tile each run's bytes, values and walk order, so all three
        are prefix sums over the run.  Forcing in order carries them on
        from the entry before; the first jump elsewhere builds them all.
        """
        first = self.runs[run]
        if entry == first[0]:
            return first[2:]
        if entry == self.next_entry:
            return self.next_starts
        if self.spans is None:
            self.spans = array("q"), array("q"), array("q")
            ends = [*self.run_bases[1:], len(self.ops)]
            for (base, _, *firsts), end in zip(self.runs, ends):
                for sums, counts, first in zip(
                    self.spans,
                    (self.lengths, self.value_counts, self.op_counts),
                    firsts,
                ):
                    sums.extend(accumulate(counts[base:end], initial=first))
                    sums.pop()
        return tuple(sums[entry] for sums in self.spans)

    def _span(self, entry: int, offset: int) -> bytes:
        """Entry ``entry``'s bytes, copied out of the artifact."""
        if self.data is None:
            raise BytecodeError("lazy module reader is closed", self.name)
        self.base = start = self.ops_start + offset
        return self.data[start:start + self.lengths[entry]]

    def peek_name(self, entry: int) -> str:
        """An unforced top-level op's name, from its first bytes."""
        run = bisect_right(self.run_bases, entry) - 1
        buf = self._span(entry, self._starts(entry, run)[0])
        ref = buf[0] if buf[0] < 0x80 else _varint(buf, 0)[0]
        return self.strings[ref]

    def force(self, entry: int) -> Operation:
        """Materialize top-level op ``entry``; idempotent."""
        op = self.ops[entry]
        if op is not None:
            return op
        try:
            run = bisect_right(self.run_bases, entry) - 1
            offset, start, walk = self._starts(entry, run)
            buf = self._span(entry, offset)
            values = self.values
            values.cursor = start
            values.end = start + self.value_counts[entry]
            self.walk = walk
            block = self.runs[run][1]
            op, pos = self._read_op(buf, 0, block.parent.blocks)
            if pos != len(buf):
                raise self._error(pos, f"trailing bytes after op #{entry}")
            if self.walk - walk != self.op_counts[entry]:
                raise self._error(pos, f"op #{entry} holds {self.walk - walk}"
                                  " ops, not the op count its index declares")
            if values.cursor != values.end:
                raise self._error(pos, f"op #{entry} defines fewer values "
                                  "than its index entry declares")
        except BytecodeError:
            raise
        except Exception as err:
            raise _malformed(err, self.name) from err
        self.next_entry = entry + 1
        self.next_starts = offset + len(buf), values.end, self.walk
        forced = self.forced[run]
        position = bisect_left(forced, entry)
        block.insert_op(op, position)
        forced.insert(position, entry)
        self.ops[entry] = op
        if OBS.metrics.enabled:
            OBS.metrics.counter("bytecode.lazy.ops_forced").inc()
            OBS.metrics.counter("bytecode.decode.ops").inc(self.walk - walk)
        return op


@_wrap_errors
def decode_module(
    context: Context, data: bytes, *, name: str = "<bytecode>"
) -> Operation:
    """Deserialize a module artifact into an operation tree.

    Ops bind to the definitions registered in ``context`` (or stay
    unbound if it allows unregistered constructs).  The op index goes
    unread.  Any malformed input raises :class:`BytecodeError`.  The
    cyclic collector is paused while the module is built
    (:data:`~repro.ir.gcpause.BULK_BUILD`).
    """
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.decode", category="bytecode"), \
            BULK_BUILD.paused():
        root = _ModuleDecoder(context, data, name, use_index=False).root
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.decode.modules").inc()
        metrics.histogram("bytecode.decode.module_bytes").observe(len(data))
        metrics.timer("bytecode.decode.time").record(
            time.perf_counter() - start
        )
    return root


# ---------------------------------------------------------------------------
# Dialect decoding
# ---------------------------------------------------------------------------


class _DialectReader:
    def __init__(self, strings: _StringTable):
        self.strings = strings

    def _optional_string(self, reader: Reader) -> str | None:
        flag = reader.varint()
        if flag == 0:
            return None
        if flag != 1:
            raise reader.error(f"invalid optional-string flag {flag}")
        return self.strings.get(reader)

    def _string_list(self, reader: Reader) -> list[str]:
        count = reader.count("list length")
        return [self.strings.get(reader) for _ in range(count)]

    def _sigil(self, reader: Reader) -> str | None:
        code = reader.varint()
        if code not in _SIGIL_FROM_CODE:
            raise reader.error(f"invalid sigil code {code}")
        return _SIGIL_FROM_CODE[code]

    def _expr(self, reader: Reader) -> ast.ConstraintExpr:
        tag = reader.varint()
        if tag == enc.EXPR_REF:
            sigil = self._sigil(reader)
            ref_name = self.strings.get(reader)
            has_params = reader.varint()
            params = None
            if has_params:
                count = reader.count("parameter count")
                params = [self._expr(reader) for _ in range(count)]
            return ast.RefExpr(sigil, ref_name, params)
        if tag == enc.EXPR_INT_LITERAL:
            value = reader.signed()
            return ast.IntLiteralExpr(value, self._optional_string(reader))
        if tag == enc.EXPR_STRING_LITERAL:
            return ast.StringLiteralExpr(self.strings.get(reader))
        if tag == enc.EXPR_LIST:
            count = reader.count("list length")
            return ast.ListExpr([self._expr(reader) for _ in range(count)])
        raise reader.error(f"unknown constraint expression tag {tag}")

    def _param_decl(self, reader: Reader) -> ast.ParamDecl:
        name = self.strings.get(reader)
        return ast.ParamDecl(name, self._expr(reader))

    def _arg_decl(self, reader: Reader) -> ast.ArgDecl:
        name = self.strings.get(reader)
        constraint = self._expr(reader)
        code = reader.varint()
        variadicity = _VARIADICITY_FROM_CODE.get(code)
        if variadicity is None:
            raise reader.error(f"invalid variadicity code {code}")
        return ast.ArgDecl(name, constraint, variadicity)

    def _type_decl(self, reader: Reader) -> ast.TypeDecl:
        name = self.strings.get(reader)
        is_type = bool(reader.varint())
        count = reader.count("parameter count")
        parameters = [self._param_decl(reader) for _ in range(count)]
        summary = self.strings.get(reader)
        format_str = self._optional_string(reader)
        py_constraints = self._string_list(reader)
        return ast.TypeDecl(
            name, is_type, parameters, summary, format_str, py_constraints
        )

    def _operation_decl(self, reader: Reader) -> ast.OperationDecl:
        name = self.strings.get(reader)
        var_count = reader.count("constraint-var count")
        constraint_vars = []
        for _ in range(var_count):
            var_name = self.strings.get(reader)
            sigil = self._sigil(reader)
            constraint_vars.append(
                ast.ConstraintVarDecl(var_name, sigil, self._expr(reader))
            )
        arg_lists = []
        for _ in range(3):
            count = reader.count("argument count")
            arg_lists.append([self._arg_decl(reader) for _ in range(count)])
        operands, results, attributes = arg_lists
        region_count = reader.count("region count")
        regions = []
        for _ in range(region_count):
            region_name = self.strings.get(reader)
            arg_count = reader.count("region argument count")
            arguments = [self._arg_decl(reader) for _ in range(arg_count)]
            terminator = self._optional_string(reader)
            regions.append(ast.RegionDecl(region_name, arguments, terminator))
        has_successors = reader.varint()
        successors = self._string_list(reader) if has_successors else None
        format_str = self._optional_string(reader)
        summary = self.strings.get(reader)
        py_constraints = self._string_list(reader)
        return ast.OperationDecl(
            name,
            constraint_vars,
            operands,
            results,
            attributes,
            regions,
            successors,
            format_str,
            summary,
            py_constraints,
        )

    def dialect(self, reader: Reader) -> ast.DialectDecl:
        name = self.strings.get(reader)
        decl = ast.DialectDecl(name)
        count = reader.count("type count")
        decl.types = [self._type_decl(reader) for _ in range(count)]
        count = reader.count("attribute count")
        decl.attributes = [self._type_decl(reader) for _ in range(count)]
        count = reader.count("operation count")
        decl.operations = [self._operation_decl(reader) for _ in range(count)]
        for _ in range(reader.count("alias count")):
            alias_name = self.strings.get(reader)
            sigil = self._sigil(reader)
            type_params = self._string_list(reader)
            decl.aliases.append(
                ast.AliasDecl(alias_name, sigil, type_params,
                              self._expr(reader))
            )
        for _ in range(reader.count("enum count")):
            enum_name = self.strings.get(reader)
            decl.enums.append(
                ast.EnumDecl(enum_name, self._string_list(reader))
            )
        for _ in range(reader.count("constraint count")):
            constraint_name = self.strings.get(reader)
            base = self._expr(reader)
            summary = self.strings.get(reader)
            decl.constraints.append(
                ast.ConstraintDecl(
                    constraint_name, base, summary,
                    self._optional_string(reader),
                )
            )
        for _ in range(reader.count("wrapper count")):
            decl.param_wrappers.append(
                ast.ParamWrapperDecl(
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                )
            )
        return decl


def _apply_suppressions(
    reader: Reader, strings: "_StringTable", decls: list[ast.DialectDecl]
) -> None:
    """Re-attach ``Suppress`` annotations from their optional section."""
    for _ in range(reader.count("suppression count")):
        dialect_index = reader.varint()
        kind = reader.varint()
        index = reader.varint()
        code = strings.get(reader)
        if dialect_index >= len(decls):
            raise reader.error(
                f"suppression refers to dialect {dialect_index}, "
                f"artifact has {len(decls)}"
            )
        decl = decls[dialect_index]
        if kind == enc.SUPPRESS_DIALECT:
            decl.suppressions.append(code)
            continue
        pools = {
            enc.SUPPRESS_TYPE: decl.types,
            enc.SUPPRESS_ATTRIBUTE: decl.attributes,
            enc.SUPPRESS_OPERATION: decl.operations,
        }
        items = pools.get(kind)
        if items is None:
            raise reader.error(f"unknown suppression target kind {kind}")
        if index >= len(items):
            raise reader.error(
                f"suppression refers to declaration {index}, "
                f"dialect has {len(items)}"
            )
        items[index].suppressions.append(code)
    if not reader.at_end():
        raise reader.error(
            f"{reader.remaining} trailing bytes after the last suppression"
        )


@_wrap_errors
def decode_dialects(
    data: bytes, *, name: str = "<bytecode>"
) -> list[ast.DialectDecl]:
    """Deserialize a dialects artifact into IRDL declaration ASTs.

    The returned declarations can be registered with
    :func:`repro.irdl.instantiate.register_dialect` without any textual
    parsing.  Any malformed input raises :class:`BytecodeError`.
    """
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.decode_dialects", category="bytecode"):
        reader = Reader(data, name)
        _read_header(reader, KIND_DIALECTS)
        sections = _read_sections(reader)
        strings = _StringTable(_read_string_table(sections, name))
        body = _require_section(
            sections, enc.SECTION_DIALECTS, "dialect", name
        )
        dialect_reader = _DialectReader(strings)
        count = body.count("dialect count")
        decls = [dialect_reader.dialect(body) for _ in range(count)]
        if not body.at_end():
            raise body.error(
                f"{body.remaining} trailing bytes after the last dialect"
            )
        suppressions = sections.get(enc.SECTION_SUPPRESSIONS)
        if suppressions is not None:
            _apply_suppressions(suppressions, strings, decls)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.decode.dialects").inc(len(decls))
        metrics.histogram("bytecode.decode.dialect_bytes").observe(len(data))
        metrics.timer("bytecode.decode.time").record(
            time.perf_counter() - start
        )
    return decls
