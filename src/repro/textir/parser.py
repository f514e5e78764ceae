"""Parser for the MLIR-like textual IR syntax.

Supports the *generic* operation form, which works for any registered or
unregistered operation::

    %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> (f32)

and *custom* assembly formats declared via IRDL's ``Format`` directive
(§4.7), dispatched through the operation's registered definition::

    %0 = cmath.norm %p : f32

The parser resolves SSA use-def chains (including forward references to
values defined later in another block), block successors, dialect types
and attributes (through the context registry, so IRDL-instantiated
dialects parse with no extra code), and nested regions.

It reads tokens through the shared :class:`~repro.textir.lexer.TokenStream`
cursor.  Within one parse, builtin types, bracket-free dialect types
and attributes, and a generic op's ``(...) -> (...)`` signature (keyed
on the rest of its line) are memoized on their exact source text: the
same text always parses to the same interned object, so a hit skips
the tokens and returns it.  Operation names are resolved to their
definitions once per name, and operations are built directly.
"""

from __future__ import annotations

import re
import struct
from typing import Any

from repro.builtin import attributes as battrs
from repro.builtin import types as btypes
from repro.ir.attributes import Attribute
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.dialect import OpDefBinding
from repro.ir.exceptions import UnregisteredConstructError, VerifyError
from repro.ir.gcpause import BULK_BUILD
from repro.ir.location import (
    UNKNOWN_LOC,
    FileLineColLoc,
    FusedLoc,
    Location,
)
from repro.ir.operation import Operation
from repro.ir.params import (
    ArrayParam,
    EnumParam,
    FloatParam,
    IntegerParam,
    LocationParam,
    OpaqueParam,
    StringParam,
    TypeIdParam,
)
from repro.ir.region import Region
from repro.ir.uniquer import intern as intern_attr
from repro.ir.value import SSAValue
from repro.obs import timing as _timing
from repro.obs.instrument import OBS, count_ops
from repro.textir.lexer import MAX_NESTING, Token, TokenKind, TokenStream
from repro.utils.diagnostics import DiagnosticError
from repro.utils.escapes import unescape
from repro.utils.source import SourceFile

_INT_TYPE_RE = re.compile(r"^(i|si|ui)([0-9]+)$")
_FLOAT_TYPE_RE = re.compile(r"^f(16|32|64)$")
_PARAM_INT_RE = re.compile(r"^(u?)int(8|16|32|64)_t$")
# The continuation of a bit-exact hex float literal ``0x<bits>``.  The
# lexer splits it into INTEGER "0" followed by this BARE_IDENT (the same
# mechanism shaped types like ``tensor<4x?xf32>`` rely on).
_HEX_FLOAT_BITS_RE = re.compile(r"^x[0-9A-Fa-f]{1,16}$")
_SHAPED = ("tensor", "vector", "memref")
#: The longest line rest tried as a function-type memo key; a bound on
#: the text sliced per generic op however long its line is.
_SIGNATURE_KEY_MAX = 1024
_SIGNEDNESS = {
    "i": btypes.Signedness.SIGNLESS,
    "si": btypes.Signedness.SIGNED,
    "ui": btypes.Signedness.UNSIGNED,
}

_PERCENT = TokenKind.PERCENT_IDENT
_CARET = TokenKind.CARET_IDENT
_BANG = TokenKind.BANG_IDENT
_HASH = TokenKind.HASH_IDENT
_BARE = TokenKind.BARE_IDENT
_STRING = TokenKind.STRING
_INTEGER = TokenKind.INTEGER
_FLOAT = TokenKind.FLOAT
_MINUS = TokenKind.MINUS
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_LBRACE = TokenKind.LBRACE
_RBRACE = TokenKind.RBRACE
_LBRACKET = TokenKind.LBRACKET
_RBRACKET = TokenKind.RBRACKET
_LESS = TokenKind.LESS
_GREATER = TokenKind.GREATER
_COMMA = TokenKind.COMMA
_COLON = TokenKind.COLON
_EQUAL = TokenKind.EQUAL
_ARROW = TokenKind.ARROW
_DOT = TokenKind.DOT
_EOF = TokenKind.EOF


class _PlaceholderValue(SSAValue):
    """A forward-referenced SSA value, replaced once its definition parses."""

    __slots__ = ("ref_name",)

    def __init__(self, value_type: Attribute, ref_name: str):
        super().__init__(value_type)
        self.ref_name = ref_name


class IRParser(TokenStream):
    """Recursive-descent parser over the token stream."""

    def __init__(self, context: Context, source: SourceFile | str,
                 name: str = "<input>"):
        super().__init__(source, name)
        self.context = context
        # SSA name scopes: one per nested region, innermost last.  Uses may
        # forward-reference values defined later in the same region (CFG
        # back-edges); placeholders live in the scope they were created in.
        self._value_scopes: list[dict[str, SSAValue]] = [{}]
        self._pending_scopes: list[dict[str, list[_PlaceholderValue]]] = [{}]
        # Block scope stack, one entry per region being parsed.
        self._block_scopes: list[dict[str, Block]] = []
        #: Parsed types and attributes by their exact source text.
        self._memo: dict[str, Attribute] = {}
        #: Operation name and definition by the name's lexeme (quoted for
        #: the generic form), resolved once per name per parse.
        self._op_defs: dict[str, tuple[str, OpDefBinding | None]] = {}

    # ------------------------------------------------------------------
    # SSA value scope
    # ------------------------------------------------------------------

    def parse_ssa_name(self, what: str) -> tuple[str, int]:
        """Consume a ``%name``: its name without the sigil, and its offset.

        The offset stands in for the token; :meth:`error_at` rebuilds
        the token only for a diagnostic.
        """
        if self.kind is not _PERCENT:
            raise self._expected(what)
        i = self._i
        start = self._starts[i]
        name = self._text[start + 1:self._ends[i]]
        self.advance()
        return name, start

    def error_at(self, message: str, at: int | None) -> DiagnosticError:
        """A diagnostic at the token starting at offset ``at``, or at the
        current token."""
        return self.error(message, None if at is None else self.token_at(at))

    def resolve_value(self, name: str, value_type: Attribute,
                      at: int | None = None) -> SSAValue:
        """Resolve an operand reference, creating a placeholder if needed.

        ``at`` is the offset of the reference, for diagnostics.
        """
        for scope in reversed(self._value_scopes):
            existing = scope.get(name)
            if existing is not None:
                if existing.type != value_type:
                    raise self.error_at(
                        f"operand %{name} has type {existing.type} but is "
                        f"used with type {value_type}",
                        at,
                    )
                return existing
        placeholder = _PlaceholderValue(value_type, name)
        self._pending_scopes[-1].setdefault(name, []).append(placeholder)
        return placeholder

    def define_value(self, name: str, value: SSAValue,
                     at: int | None = None) -> None:
        scope = self._value_scopes[-1]
        if name in scope:
            raise self.error_at(f"SSA value %{name} is defined twice", at)
        value.name_hint = name
        scope[name] = value
        pending = self._pending_scopes[-1]
        if name not in pending:
            return
        for placeholder in pending.pop(name):
            if placeholder.type != value.type:
                raise self.error_at(
                    f"%{name} was forward-referenced with type "
                    f"{placeholder.type} but is defined with type {value.type}",
                    at,
                )
            placeholder.replace_all_uses_with(value)

    def _push_value_scope(self) -> None:
        self._value_scopes.append({})
        self._pending_scopes.append({})

    def _pop_value_scope(self) -> None:
        self._value_scopes.pop()
        pending = self._pending_scopes.pop()
        if pending:
            names = ", ".join(f"%{n}" for n in sorted(pending))
            raise self.error(f"use of undefined SSA value(s): {names}")

    def _check_no_pending(self) -> None:
        if self._pending_scopes[-1]:
            names = ", ".join(f"%{n}" for n in sorted(self._pending_scopes[-1]))
            raise self.error(f"use of undefined SSA value(s): {names}")

    # ------------------------------------------------------------------
    # Memo of type and attribute parses
    # ------------------------------------------------------------------

    def _memo_key(self) -> str | None:
        """The source text a dialect type or attribute at the current
        token spans, if its parse can be memoized: either the bare
        ``!name``, or ``!name<...>`` with the ``<`` right after the name
        and no ``<`` nested inside.
        """
        i = self._i
        start = self._starts[i]
        end = self._ends[i]
        text = self._text
        if text.startswith("<", end):
            close = text.find(">", end)
            if close < 0 or text.find("<", end + 1, close) >= 0:
                return None
            return text[start:close + 1]
        if self.peek_kind() is _LESS:
            return None
        return text[start:end]

    def _signature_key(self) -> str | None:
        """The rest of the line from the current token, if it ends on a
        ``)`` within :data:`_SIGNATURE_KEY_MAX` characters: the memo key
        of a function type that may span exactly it (a generic op's
        ``(...) -> (...)`` does).
        """
        start = self._starts[self._i]
        text = self._text
        limit = start + _SIGNATURE_KEY_MAX
        end = text.find("\n", start, limit)
        if end < 0:
            if limit < len(text):
                return None
            end = len(text)
        key = text[start:end].rstrip()
        return key if key.endswith(")") else None

    def _memo_hit(self, key: str | None) -> Attribute | None:
        """The memoized parse of ``key``, skipping its tokens on a hit.

        A hit that could have nested past :data:`MAX_NESTING` here (each
        level opens a bracket) is parsed instead, so the limit's
        diagnostic is the same with or without the memo.
        """
        if key is None:
            return None
        cached = self._memo.get(key)
        if cached is not None:
            depth = self.depth
            if (depth + len(key) > MAX_NESTING
                    and depth + sum(map(key.count, "(<[{")) > MAX_NESTING):
                return None
            self.skip_to(self._starts[self._i] + len(key))
        return cached

    def _memo_store(self, key: str | None, start: int, result: Attribute) -> None:
        """Memoize ``result`` if its parse spanned exactly ``key``."""
        if key is not None and self.prev_end == start + len(key):
            self._memo[key] = result

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> Attribute:
        kind = self.kind
        if kind is _BARE:
            cached = self._memo.get(self.text)
            if cached is not None:
                self.advance()
                return cached
            return self._parse_builtin_type(self.next())
        if kind is _BANG:
            return self._parse_dialect_type()
        if kind is _LPAREN:
            return self._parse_function_type()
        raise self.error(f"expected a type, found {self.text!r}")

    def try_parse_type(self) -> Attribute | None:
        kind = self.kind
        if kind is _BANG or kind is _LPAREN:
            return self.parse_type()
        if kind is _BARE and self._is_builtin_type_name(self.text):
            return self.parse_type()
        return None

    def _is_builtin_type_name(self, name: str) -> bool:
        return bool(
            name in self._memo
            or _INT_TYPE_RE.match(name)
            or _FLOAT_TYPE_RE.match(name)
            or name in ("index", "tensor", "vector", "memref", "none")
        )

    def _parse_builtin_type(self, token: Token) -> Attribute:
        name = token.text
        if name in _SHAPED:
            return self._parse_shaped_type(name, token)
        match = _INT_TYPE_RE.match(name)
        if match:
            prefix, width = match.groups()
            result = btypes.IntegerType.get(int(width), _SIGNEDNESS[prefix])
        elif match := _FLOAT_TYPE_RE.match(name):
            result = btypes.FloatType.get(int(match.group(1)))
        elif name == "index":
            result = btypes.index
        else:
            raise self.error(f"unknown builtin type {name!r}", token)
        self._memo[name] = result
        return result

    def _parse_shaped_type(self, kind: str, token: Token) -> Attribute:
        """Parse ``tensor<4x?xf32>``-style shaped types.

        The lexer fuses dimension lists with the following identifier
        (``4x?xf32`` lexes as INTEGER "4" then BARE "x?xf32"), so dimension
        words are re-split on ``x`` here.
        """
        self.enter()
        self.consume(_LESS, "'<'")
        shape: list[int] = []
        element: Attribute | None = None
        while element is None:
            tok_kind = self.kind
            if tok_kind is TokenKind.QUESTION:
                self.advance()
                shape.append(btypes.DYNAMIC)
            elif tok_kind is _INTEGER:
                shape.append(int(self.text))
                self.advance()
            elif tok_kind is _BARE:
                element = self._scan_shape_word(self.next(), shape)
            elif tok_kind is _BANG or tok_kind is _LPAREN:
                element = self.parse_type()
            else:
                raise self.error(
                    f"expected a dimension or element type, found {self.text!r}"
                )
        self.consume(_GREATER, "'>'")
        self.leave()
        cls = {"tensor": btypes.TensorType, "vector": btypes.VectorType,
               "memref": btypes.MemRefType}[kind]
        return cls.get(shape, element)

    def _scan_shape_word(self, token: Token, shape: list[int]) -> Attribute | None:
        """Consume a word like ``x4x?xf32``: dimensions and maybe the element.

        Returns the element type if the word contains one, else ``None``
        (the word ended on a dimension separator, e.g. before ``!`` types).
        """
        text = token.text
        if not text.startswith("x") and self._is_builtin_type_name(text):
            return self._parse_builtin_type(token)
        parts = text.split("x")
        if parts[0]:
            raise self.error(f"invalid shape element {text!r}", token)
        for index, part in enumerate(parts[1:], start=1):
            if part == "":
                continue  # consecutive separators, e.g. trailing 'x'
            if part == "?":
                shape.append(btypes.DYNAMIC)
            elif part.isdigit():
                shape.append(int(part))
            else:
                element_text = "x".join(parts[index:])
                if element_text in _SHAPED:
                    # The element is itself shaped; its '<...>' parameters
                    # are still in the main token stream.
                    return self._parse_shaped_type(element_text, token)
                if self._is_builtin_type_name(element_text):
                    sub = IRParser(self.context, element_text, "<shape-element>")
                    return sub.parse_type()
                raise self.error(
                    f"unknown element type {element_text!r}", token
                )
        return None

    def _parse_function_type(self) -> Attribute:
        self.enter()
        result = self._parse_signature()
        self.leave()
        return result

    def _parse_signature(self) -> Attribute:
        """``(inputs) -> results``, memoized on the rest of its line."""
        key = self._signature_key()
        cached = self._memo_hit(key)
        if cached is not None:
            return cached
        start = self._starts[self._i]
        inputs = self._parse_type_list()
        self.consume(_ARROW, "'->'")
        results = self._parse_type_or_type_list()
        result = btypes.FunctionType.get(inputs, results)
        self._memo_store(key, start, result)
        return result

    def _parse_type_list(self) -> list[Attribute]:
        """A parenthesized, comma-separated list of types."""
        self.consume(_LPAREN, "'('")
        types: list[Attribute] = []
        if self.kind is not _RPAREN:
            types.append(self.parse_type())
            while self.kind is _COMMA:
                self.advance()
                types.append(self.parse_type())
        self.consume(_RPAREN, "')'")
        return types

    def _parse_type_or_type_list(self) -> list[Attribute]:
        if self.kind is _LPAREN:
            return self._parse_type_list()
        return [self.parse_type()]

    def _parse_dialect_type(self) -> Attribute:
        key = self._memo_key()
        cached = self._memo_hit(key)
        if cached is not None:
            return cached
        token = self.next()
        qualified = token.value
        if "." not in qualified:
            # Unqualified references default to the builtin namespace (§4.2).
            qualified = f"builtin.{qualified}"
        type_def = self.context.get_type_def(qualified)
        if type_def is None:
            raise self.error(f"unknown type '!{token.value}'", token)
        params = self._parse_dialect_params(type_def)
        try:
            result = type_def.instantiate(params)
        except VerifyError as err:
            raise self.error(str(err), token) from err
        self._memo_store(key, token.start, result)
        return result

    def _parse_dialect_params(self, definition) -> list[Any]:
        """The ``<...>`` parameter list, honouring custom formats (§4.7)."""
        params: list[Any] = []
        if self.kind is _LESS:
            self.enter()
            self.advance()
            program = getattr(definition, "param_format", None)
            if program is not None:
                params = program.parse(self)
            elif self.kind is not _GREATER:
                params.append(self.parse_param())
                while self.accept(_COMMA):
                    params.append(self.parse_param())
            self.consume(_GREATER, "'>'")
            self.leave()
        return params

    # ------------------------------------------------------------------
    # Type/attribute parameters
    # ------------------------------------------------------------------

    def parse_param(self) -> Any:
        """Parse one parameter of a parametrized type or attribute."""
        kind = self.kind
        if kind is _INTEGER or kind is _FLOAT or kind is _MINUS:
            return self._parse_numeric_param()
        if kind is _STRING:
            return StringParam(self.next().value)
        if kind is _LBRACKET:
            self.enter()
            self.advance()
            elements: list[Any] = []
            if self.kind is not _RBRACKET:
                elements.append(self.parse_param())
                while self.accept(_COMMA):
                    elements.append(self.parse_param())
            self.consume(_RBRACKET, "']'")
            self.leave()
            return ArrayParam(tuple(elements))
        if kind is _HASH:
            return self.parse_attribute()
        if kind is _BARE:
            text = self.text
            if text == "loc":
                return self._parse_location_param()
            if text == "typeid":
                return self._parse_typeid_param()
            if text == "opaque":
                return self._parse_opaque_param()
            if self.peek_kind() is _DOT:
                return self._parse_enum_param()
            if self._is_builtin_type_name(text):
                return self.parse_type()
            raise self.error(f"unknown parameter {text!r}")
        if kind is _BANG or kind is _LPAREN:
            return self.parse_type()
        raise self.error(f"expected a parameter, found {self.text!r}")

    def _accept_hex_float(self, int_text: str, negative: bool) -> float | None:
        """The value of a bit-exact ``0x<bits>`` float literal, if present.

        ``int_text`` is an already-consumed INTEGER; the hex digits
        arrive as a following BARE_IDENT starting with ``x``.  Returns
        ``None`` when the upcoming tokens are not a hex float.
        """
        if int_text != "0" or self.kind is not _BARE:
            return None
        bits_text = self.text
        if not _HEX_FLOAT_BITS_RE.match(bits_text):
            return None
        if negative:
            raise self.error(
                "hex float literals carry their sign in the bit pattern; "
                "remove the leading '-'"
            )
        self.advance()
        bits = int(bits_text[1:], 16)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    def _parse_numeric_param(self) -> Any:
        negative = self.accept(_MINUS)
        if self.kind is _FLOAT:
            value = float(self.text)
            self.advance()
            value = -value if negative else value
            width = 64
            if self.accept(_COLON):
                suffix = self.expect(_BARE, "float width")
                match = _FLOAT_TYPE_RE.match(suffix.text)
                if not match:
                    raise self.error(f"invalid float suffix {suffix.text!r}", suffix)
                width = int(match.group(1))
            return FloatParam(value, width)
        text = self.expect_text(_INTEGER, "integer literal")
        hex_value = self._accept_hex_float(text, negative)
        value = -int(text) if negative else int(text)
        suffix = ""
        if self.kind is _COLON and self.peek_kind() is _BARE:
            suffix = self.peek(1).text
        if hex_value is not None:
            if _FLOAT_TYPE_RE.match(suffix):
                self.advance()
                self.advance()
                return FloatParam(hex_value, int(suffix[1:]))
            return FloatParam(hex_value, 64)
        if match := _PARAM_INT_RE.match(suffix):
            self.advance()
            self.advance()
            return IntegerParam(value, int(match.group(2)), match.group(1) != "u")
        if _FLOAT_TYPE_RE.match(suffix):
            self.advance()
            self.advance()
            return FloatParam(float(value), int(suffix[1:]))
        return IntegerParam(value, 32, True)

    def _parse_enum_param(self) -> EnumParam:
        enum_token = self.expect(_BARE, "enum name")
        self.consume(_DOT, "'.'")
        ctor_token = self.expect(_BARE, "enum constructor")
        enum = self._resolve_enum(enum_token.text, enum_token)
        if not enum.has_constructor(ctor_token.text):
            raise self.error(
                f"enum {enum.qualified_name} has no constructor "
                f"{ctor_token.text!r}",
                ctor_token,
            )
        return EnumParam(enum.qualified_name, ctor_token.text)

    def _resolve_enum(self, name: str, token: Token):
        if "." in name:
            enum = self.context.get_enum(name)
            if enum is not None:
                return enum
            raise self.error(f"unknown enum {name!r}", token)
        matches = [
            dialect.enums[name]
            for dialect in self.context.dialects.values()
            if name in dialect.enums
        ]
        if not matches:
            raise self.error(f"unknown enum {name!r}", token)
        if len(matches) > 1:
            options = ", ".join(e.qualified_name for e in matches)
            raise self.error(
                f"ambiguous enum {name!r}; candidates: {options}", token
            )
        return matches[0]

    def _parse_file_line_col(self) -> tuple[str, int, int]:
        """``"file":line:col``, the body of a file location."""
        filename = self.expect(_STRING, "filename string").value
        self.consume(_COLON, "':'")
        line = int(self.expect_text(_INTEGER, "line number"))
        self.consume(_COLON, "':'")
        column = int(self.expect_text(_INTEGER, "column number"))
        return filename, line, column

    def _parse_location_param(self) -> LocationParam:
        self.consume(_BARE, "'loc'")
        self.consume(_LPAREN, "'('")
        location = LocationParam(*self._parse_file_line_col())
        self.consume(_RPAREN, "')'")
        return location

    def _parse_typeid_param(self) -> TypeIdParam:
        self.consume(_BARE, "'typeid'")
        self.consume(_LESS, "'<'")
        parts = [self.expect_text(_BARE, "class name")]
        while self.accept(_DOT):
            parts.append(self.expect_text(_BARE, "class name"))
        self.consume(_GREATER, "'>'")
        return TypeIdParam(".".join(parts))

    def _parse_opaque_param(self) -> OpaqueParam:
        self.consume(_BARE, "'opaque'")
        self.consume(_LESS, "'<'")
        class_name = self.expect(_STRING, "class name string").value
        self.consume(_COMMA, "','")
        value = self.expect(_STRING, "value string").value
        self.consume(_GREATER, "'>'")
        return OpaqueParam(class_name, value)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        kind = self.kind
        if kind is _STRING:
            return battrs.StringAttr.get(self.next().value)
        if kind is _INTEGER or kind is _FLOAT or kind is _MINUS:
            return self._parse_numeric_attribute()
        if kind is _LBRACKET:
            self.enter()
            self.advance()
            elements: list[Attribute] = []
            if self.kind is not _RBRACKET:
                elements.append(self.parse_attribute())
                while self.accept(_COMMA):
                    elements.append(self.parse_attribute())
            self.consume(_RBRACKET, "']'")
            self.leave()
            return battrs.ArrayAttr.get(elements)
        if kind is _LBRACE:
            return self._parse_dictionary_attribute()
        if kind is TokenKind.AT_IDENT:
            return battrs.SymbolRefAttr.get(self.next().value)
        if kind is _HASH:
            return self._parse_dialect_attribute()
        if kind is _BARE:
            text = self.text
            if text == "unit":
                self.advance()
                return battrs.UnitAttr.get()
            if text == "true":
                self.advance()
                return battrs.IntegerAttr.get(1, btypes.i1)
            if text == "false":
                self.advance()
                return battrs.IntegerAttr.get(0, btypes.i1)
            if self._is_builtin_type_name(text):
                # Types are attributes; a bare type in attribute position
                # denotes itself.
                return self.parse_type()
        if kind is _BANG or kind is _LPAREN:
            return self.parse_type()
        raise self.error(f"expected an attribute, found {self.text!r}")

    def _parse_numeric_attribute(self) -> Attribute:
        negative = self.accept(_MINUS)
        kind = self.kind
        if kind is _FLOAT:
            value = float(self.text)
            self.advance()
            attr_type: Attribute = btypes.f64
            if self.accept(_COLON):
                attr_type = self.parse_type()
            return battrs.FloatAttr.get(-value if negative else value, attr_type)
        if kind is not _INTEGER:
            raise self.error("expected a number")
        text = self.text
        self.advance()
        hex_value = self._accept_hex_float(text, negative)
        if hex_value is not None:
            attr_type = btypes.f64
            if self.accept(_COLON):
                attr_type = self.parse_type()
            return battrs.FloatAttr.get(hex_value, attr_type)
        int_value = -int(text) if negative else int(text)
        if self.accept(_COLON):
            attr_type = self.parse_type()
            if isinstance(attr_type, btypes.FloatType):
                return battrs.FloatAttr.get(float(int_value), attr_type)
            return battrs.IntegerAttr.get(int_value, attr_type)
        return battrs.IntegerAttr.get(int_value)

    def _parse_dictionary_attribute(self) -> Attribute:
        self.enter()
        self.consume(_LBRACE, "'{'")
        entries: dict[str, Attribute] = {}
        while self.kind is not _RBRACE:
            key = self.expect_text(_BARE, "attribute name")
            if self.accept(_EQUAL):
                entries[key] = self.parse_attribute()
            else:
                entries[key] = battrs.UnitAttr.get()
            if not self.accept(_COMMA):
                break
        self.consume(_RBRACE, "'}'")
        self.leave()
        return intern_attr(battrs.DictionaryAttr(entries))

    def _parse_dialect_attribute(self) -> Attribute:
        key = self._memo_key()
        cached = self._memo_hit(key)
        if cached is not None:
            return cached
        token = self.next()
        qualified = token.value
        if "." not in qualified:
            qualified = f"builtin.{qualified}"
        attr_def = self.context.get_attr_def(qualified)
        if attr_def is None:
            raise self.error(f"unknown attribute '#{token.value}'", token)
        params = self._parse_dialect_params(attr_def)
        try:
            result = attr_def.instantiate(params)
        except VerifyError as err:
            raise self.error(str(err), token) from err
        self._memo_store(key, token.start, result)
        return result

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def parse_operation(self) -> Operation:
        # The op header is read without Token objects: names and the op
        # name's position are kept as (text, offset) pairs, and a Token
        # is rebuilt only for a diagnostic.
        names: list[tuple[str, int]] = []
        if self.kind is _PERCENT:
            names.append(self.parse_ssa_name("result name"))
            while self.accept(_COMMA):
                names.append(self.parse_ssa_name("result name"))
            self.consume(_EQUAL, "'='")
        kind = self.kind
        at = self._starts[self._i]
        if kind is _STRING:
            op = self._parse_generic_operation(at)
        elif kind is _BARE:
            op = self._parse_custom_operation()
        else:
            raise self.error(f"expected an operation, found {self.text!r}")
        if len(names) != len(op.results):
            raise self.error_at(
                f"operation {op.name} produced {len(op.results)} results but "
                f"{len(names)} names were bound",
                at,
            )
        for (name, name_at), result in zip(names, op.results):
            self.define_value(name, result, name_at)
        # Provenance: an explicit trailing ``loc(...)`` wins (so printed
        # IR round-trips); otherwise the op is attributed to the start
        # of its name token in this source file.
        if self.kind is _BARE and self.text == "loc" and self.peek_kind() is _LPAREN:
            self.advance()
            self.advance()
            op.location = self._parse_location_value()
            self.consume(_RPAREN, "')'")
        elif op.location.is_unknown:
            source = self.source
            op.location = FileLineColLoc(source.name, *source.line_col(at))
        return op

    def _parse_location_value(self) -> Location:
        kind = self.kind
        if kind is _BARE and self.text == "unknown":
            self.advance()
            return UNKNOWN_LOC
        if kind is _BARE and self.text == "fused":
            self.enter()
            self.advance()
            self.consume(_LBRACKET, "'['")
            parts = [self._parse_location_value()]
            while self.accept(_COMMA):
                parts.append(self._parse_location_value())
            self.consume(_RBRACKET, "']'")
            self.leave()
            return FusedLoc(parts)
        if kind is _STRING:
            return FileLineColLoc(*self._parse_file_line_col())
        raise self.error(f"expected a location, found {self.text!r}")

    def _parse_generic_operation(self, at: int) -> Operation:
        lexeme = self.text
        self.advance()
        operand_names = self._parse_operand_name_list()
        successors = self._parse_successor_list()
        regions: list[Region] = []
        if self.kind is _LPAREN:
            self.advance()
            regions.append(self.parse_region())
            while self.accept(_COMMA):
                regions.append(self.parse_region())
            self.consume(_RPAREN, "')'")
        attributes: dict[str, Attribute] = {}
        if self.kind is _LBRACE:
            attr_dict = self._parse_dictionary_attribute()
            attributes = attr_dict.entries  # type: ignore[union-attr]
        self.consume(_COLON, "':' before the operation type")
        signature = self._parse_signature()
        operand_types = signature.inputs
        if len(operand_names) != len(operand_types):
            raise self.error_at(
                f"operation has {len(operand_names)} operands but "
                f"{len(operand_types)} operand types",
                at,
            )
        operands = [
            self.resolve_value(name, ty, name_at)
            for (name, name_at), ty in zip(operand_names, operand_types)
        ]
        resolved = self._op_defs.get(lexeme)
        if resolved is None:
            name = unescape(lexeme[1:-1])
            try:
                definition = self.context.resolve_op_def(name)
            except UnregisteredConstructError as err:
                raise self.error_at(str(err), at) from err
            resolved = self._op_defs[lexeme] = (name, definition)
        return Operation(resolved[0], operands, signature.result_types,
                         attributes, successors, regions, resolved[1])

    def _parse_custom_operation(self) -> Operation:
        at = self._starts[self._i]
        parts = [self.expect_text(_BARE, "operation name")]
        while self.kind is _DOT:
            self.advance()
            parts.append(self.expect_text(_BARE, "operation name"))
        op_name = ".".join(parts)
        resolved = self._op_defs.get(op_name)
        if resolved is None:
            definition = self.context.get_op_def(op_name)
            if definition is None:
                raise self.error_at(f"unknown operation {op_name!r}", at)
            if not definition.has_custom_format():
                raise self.error_at(
                    f"operation {op_name!r} has no custom assembly format; "
                    "use the generic form",
                    at,
                )
            resolved = self._op_defs[op_name] = (op_name, definition)
        try:
            return resolved[1].parse_custom(self)
        except VerifyError as err:
            # The constraint variables the format read have no solution.
            raise self.error_at(str(err), at) from err

    def _parse_operand_name_list(self) -> list[tuple[str, int]]:
        self.consume(_LPAREN, "'('")
        names: list[tuple[str, int]] = []
        if self.kind is not _RPAREN:
            names.append(self.parse_ssa_name("operand"))
            while self.accept(_COMMA):
                names.append(self.parse_ssa_name("operand"))
        self.consume(_RPAREN, "')'")
        return names

    def _parse_successor_list(self) -> list[Block]:
        successors: list[Block] = []
        if self.kind is _LBRACKET:
            self.advance()
            successors.append(self._successor_block())
            while self.accept(_COMMA):
                successors.append(self._successor_block())
            self.consume(_RBRACKET, "']'")
        return successors

    def _successor_block(self) -> Block:
        token = self.expect(_CARET, "successor block")
        if not self._block_scopes:
            raise self.error("successor reference outside a region", token)
        scope = self._block_scopes[-1]
        block = scope.get(token.value)
        if block is None:
            block = Block()
            scope[token.value] = block
        return block

    # ------------------------------------------------------------------
    # Regions and blocks
    # ------------------------------------------------------------------

    def parse_region(self) -> Region:
        self.enter()
        self.consume(_LBRACE, "'{'")
        region = Region()
        scope: dict[str, Block] = {}
        self._block_scopes.append(scope)
        self._push_value_scope()
        defined: set[str] = set()
        try:
            # Anonymous entry block (no leading label).
            if self.kind is not _CARET and self.kind is not _RBRACE:
                entry = Block()
                region.add_block(entry)
                self._parse_block_body(entry)
            while self.kind is _CARET:
                label = self.next()
                block = scope.get(label.value)
                if block is None:
                    block = Block()
                    scope[label.value] = block
                elif label.value in defined:
                    raise self.error(
                        f"block ^{label.value} is defined twice", label
                    )
                defined.add(label.value)
                if self.accept(_LPAREN):
                    while self.kind is _PERCENT:
                        name, at = self.parse_ssa_name("block argument")
                        self.consume(_COLON, "':'")
                        arg = block.insert_arg(self.parse_type())
                        self.define_value(name, arg, at)
                        if not self.accept(_COMMA):
                            break
                    self.consume(_RPAREN, "')'")
                self.consume(_COLON, "':'")
                region.add_block(block)
                self._parse_block_body(block)
            self.consume(_RBRACE, "'}'")
            undefined = [name for name in scope if name not in defined]
            if undefined:
                names = ", ".join(f"^{n}" for n in sorted(undefined))
                raise self.error(f"use of undefined block(s): {names}")
            self._pop_value_scope()
        finally:
            self._block_scopes.pop()
        self.leave()
        return region

    def _parse_block_body(self, block: Block) -> None:
        kind = self.kind
        while kind is not _CARET and kind is not _RBRACE and kind is not _EOF:
            block.add_op(self.parse_operation())
            kind = self.kind

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a whole file: one op, or several wrapped in builtin.module."""
        ops: list[Operation] = []
        while self.kind is not _EOF:
            ops.append(self.parse_operation())
        self._check_no_pending()
        if len(ops) == 1 and ops[0].name == "builtin.module":
            return ops[0]
        region = Region([Block(ops=ops)])
        return self.context.create_operation(
            "builtin.module",
            regions=[region],
            # The synthesized wrapper is attributed to the whole file.
            location=FileLineColLoc(self.source.name, 1, 1),
        )

    def parse_single_op(self) -> Operation:
        op = self.parse_operation()
        self._check_no_pending()
        return op


def parse_module(context: Context, text: str, name: str = "<input>") -> Operation:
    """Parse textual IR into a ``builtin.module`` operation.

    The cyclic collector is paused while the module is built
    (:data:`~repro.ir.gcpause.BULK_BUILD`).
    """
    if not OBS.active:
        with BULK_BUILD.paused():
            return IRParser(context, text, name).parse_module()
    start = _timing.now()
    with OBS.tracer.span("textir.parse", category="textir", file=name), \
            BULK_BUILD.paused():
        parser = IRParser(context, text, name)
        module = parser.parse_module()
    metrics = OBS.metrics
    if metrics.enabled:
        scope = metrics.scope("textir")
        scope.timer("parser.parse_time").record(_timing.now() - start)
        scope.counter("lexer.tokens").inc(parser.tokens_consumed)
        ops_parsed = count_ops(module)
        scope.counter("parser.ops_parsed").inc(ops_parsed)
        scope.histogram("parser.module_ops").observe(ops_parsed)
    return module
