"""Mutation fuzzing the text front ends: malformed input only raises Diagnostics.

The robustness contract of the three text parsers (textual IR, IRDL and
pattern files) is that no input — truncated, character-flipped, or with
tokens deleted or duplicated — escapes as anything but a
:class:`~repro.utils.DiagnosticError`: never a raw ``IndexError``,
``KeyError``, ``RecursionError`` or ``StopIteration``.  The same holds
for a byte payload that is not valid UTF-8: it never escapes as a
``UnicodeDecodeError``.  All mutations
derive from fixed seeds so failures reproduce exactly.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.builtin import default_context
from repro.corpus import cmath_source, dialect_source
from repro.irdl import register_irdl
from repro.irdl.parser import parse_irdl
from repro.rewriting.declarative import PatternParser
from repro.server.session import Session
from repro.textir import Lexer
from repro.textir.parser import parse_module
from repro.utils import DiagnosticError, SourceFile

ROOT = Path(__file__).resolve().parents[2]

IR_INPUT = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>, %x: f32):
  %prod = "cmath.mul"(%p, %q)
      : (!cmath.complex<f32>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
  %len = cmath.norm %prod : f32
  %m = cmath.mul %p, %q : f32
  %s = "arith.mulf"(%len, %x) : (f32, f32) -> (f32) loc("in.mlir":3:4)
  "cf.br"(%s)[^bb1] : (f32) -> ()
^bb1(%r: f32):
  "func.return"(%r) : (f32) -> ()
}) {sym_name = "mag2", function_type = (!cmath.complex<f32>,
    !cmath.complex<f32>, f32) -> f32,
    extras = [1 : i32, -2.5 : f64, 0x3FF0000000000000 : f64, "s\\n",
              {nested = true, u}, tensor<2x?xf32>, @sym, unit]} : () -> ()
"""

PATTERN_INPUT = (ROOT / "examples/patterns/conorm.pattern").read_text()

#: Characters a flip writes: every sigil, bracket and quote, escapes,
#: digits, trivia and one character the lexer never accepts.
FLIP_CHARS = '%^@!#"\\$-.:,=<>(){}[]0x \n/§'

IRDL_INPUTS = {
    "cmath": cmath_source(),
    "arith": dialect_source("arith"),
}


def fresh_context():
    context = default_context()
    register_irdl(context, cmath_source())
    return context


CONTEXT = fresh_context()


def parse_ir(text: str) -> None:
    parse_module(CONTEXT, text, "<fuzz>")


def parse_patterns(text: str) -> None:
    PatternParser(text, "<fuzz>").parse_file()


def parse_dialects(text: str) -> None:
    parse_irdl(text, "<fuzz>")


SURFACES = {
    "ir": (parse_ir, IR_INPUT),
    "pattern": (parse_patterns, PATTERN_INPUT),
    **{f"irdl-{name}": (parse_dialects, text)
       for name, text in IRDL_INPUTS.items()},
}


def check(parse, text: str) -> None:
    """Parse; anything but success or a DiagnosticError fails the test."""
    try:
        parse(text)
    except DiagnosticError as err:
        assert err.diagnostics, text
        str(err)  # rendering the diagnostic must not fail either


def token_spans(text: str) -> list[tuple[int, int]]:
    return [(t.span.start, t.span.end)
            for t in Lexer(SourceFile(text)).tokenize()[:-1]]


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_unmutated_inputs_parse(surface):
    parse, text = SURFACES[surface]
    parse(text)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_truncation(surface):
    parse, text = SURFACES[surface]
    step = max(1, len(text) // 600)
    for length in range(0, len(text), step):
        check(parse, text[:length])


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_character_flips(surface):
    parse, text = SURFACES[surface]
    rng = random.Random(f"flip-{surface}")
    for _ in range(600):
        pos = rng.randrange(len(text))
        flipped = text[:pos] + rng.choice(FLIP_CHARS) + text[pos + 1:]
        check(parse, flipped)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_token_deletion_and_duplication(surface):
    parse, text = SURFACES[surface]
    spans = token_spans(text)
    rng = random.Random(f"tokens-{surface}")
    for _ in range(400):
        mutated = text
        for _ in range(rng.randrange(1, 4)):
            start, end = spans[rng.randrange(len(spans))]
            if start > len(mutated):
                continue
            if rng.random() < 0.5:
                mutated = mutated[:start] + mutated[end:]
            else:
                mutated = mutated[:end] + " " + mutated[start:end] + mutated[end:]
        check(parse, mutated)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_token_repeated_many_times(surface):
    """Long runs of one token: deep nesting when it opens a bracket."""
    parse, text = SURFACES[surface]
    spans = token_spans(text)
    rng = random.Random(f"repeat-{surface}")
    for _ in range(40):
        start, end = spans[rng.randrange(len(spans))]
        count = rng.choice((2, 300, 1500))
        check(parse, text[:start] + text[start:end] * count + text[end:])


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_every_token_deleted(surface):
    parse, text = SURFACES[surface]
    for start, end in token_spans(text):
        check(parse, text[:start] + text[end:])


def test_pure_garbage():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        garbage = "".join(rng.choice(FLIP_CHARS + "abcfi3")
                          for _ in range(rng.randrange(0, 60)))
        for parse, _ in SURFACES.values():
            check(parse, garbage)


#: Byte sequences that are not UTF-8: a stray continuation byte, bytes
#: that never occur, a truncated two-byte sequence, an overlong
#: encoding and an encoded surrogate.
INVALID_UTF8 = (b"\x80", b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80")


def test_invalid_utf8_bytes():
    """Invalid UTF-8 in a text payload is a diagnostic naming its offset."""
    session = Session()
    session.register_dialect_data(cmath_source().encode(), "cmath.irdl")
    data = IR_INPUT.encode("utf-8")
    rng = random.Random("utf8")
    for _ in range(200):
        pos = rng.randrange(len(data) + 1)
        bad = rng.choice(INVALID_UTF8)
        with pytest.raises(DiagnosticError,
                           match=f"invalid UTF-8 at byte offset {pos} "):
            session.load_module(data[:pos] + bad + data[pos:], "<fuzz>")
