"""Golden token streams: the lexer must reproduce them exactly.

Each fixture under ``golden/`` pins the full token stream of one input
as ``[kind, text, start, end]`` rows (EOF included), or, for malformed
input, the diagnostic's message and span.  Inputs are every corpus
dialect, every example pattern and textual IR file, one small seeded
conorm module, and hand-written lexer edge and error cases.

Fixtures were recorded once and are the reference for any rewrite of
the lexer; re-record only for a deliberate change of the token syntax::

    PYTHONPATH=src python tests/textir/test_golden_tokens.py --record
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.textir import Lexer
from repro.utils import DiagnosticError, SourceFile

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[2]

#: Hand-written inputs: lexer edge cases and every lexer error class.
INLINE_CASES = {
    "bad-sigil": "%x = %  foo",
    "bad-sigil-eof": "^",
    "unterminated-string": '"abc\n"',
    "unterminated-string-escape-eof": '"abc\\',
    "unterminated-string-escape": '  "a\\"b',
    "stray-dollar": "a $ b",
    "int-dot-ident": "4.x",
    "int-exponent-no-digits": "1e",
    "arrow-and-minus": "-> - -1 --> ->- -x",
    "unexpected-char": "%a = §",
    "lone-slash": "a / b",
    "numbers": "0 42 -7 4.25 -0.5 1e10 1E-3 2.5e+7 4. .5 0x3FF0000000000000",
    "strings": r'"" "a\"b" "c\\d" "tab\tnl\n" "\x"',
    "sigils": "%v ^bb0 @sym !cmath.complex #attr %a$b.c %0 @x.y$z",
    "punctuation": "(){}[]<>,:=?*+.",
    "shaped-types": "tensor<4x?xf32> vector<2x3x!cmath.complex<f64>> memref<?xi8>",
    "comments": "a // comment -> %x\n// whole line\nb//tail",
    "unicode-idents": "αβ _x x9 $ ",
    "trailing-trivia": "  a  \n\t\r\n  ",
    "empty": "",
    # Long inputs: token counts around multiples of the lexer's chunk
    # size (2048), trailing trivia and errors past the first chunks.
    "long-exact-chunk": "a " * 2047 + "a",
    "long-exact-chunk-trailing-trivia": "a " * 2048,
    "long-exact-chunk-trailing-comment": "a " * 2048 + "// end",
    "long-error-late": "(x, " * 1500 + "§",
    "long-unterminated-string-late": "[1] " * 1100 + '"abc',
}


def _conorm_input() -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads.conorm_module(7, 12).text


def _file_inputs() -> dict[str, str]:
    files = sorted((ROOT / "src/repro/corpus/dialects").glob("*.irdl"))
    files += sorted((ROOT / "examples").rglob("*.pattern"))
    files += sorted((ROOT / "examples").rglob("*.mlir"))
    return {p.name: str(p.relative_to(ROOT)) for p in files}


def _stream(text: str, name: str) -> dict:
    try:
        tokens = Lexer(SourceFile(text, name)).tokenize()
    except DiagnosticError as err:
        (diag,) = err.diagnostics
        return {"error": {"message": diag.message,
                          "start": diag.span.start, "end": diag.span.end}}
    return {"tokens": [[t.kind.name, t.text, t.span.start, t.span.end]
                       for t in tokens]}


def _fixture_text(fixture: dict) -> str:
    if "path" in fixture:
        return (ROOT / fixture["path"]).read_text()
    return fixture["input"]


def _dump(fixture: dict) -> str:
    rows = fixture.pop("tokens", None)
    body = json.dumps(fixture, ensure_ascii=False)
    if rows is None:
        return body + "\n"
    lines = ",\n".join("  " + json.dumps(r, ensure_ascii=False) for r in rows)
    return body[:-1] + ', "tokens": [\n' + lines + "\n]}\n"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    fixtures = {name: {"path": path} for name, path in _file_inputs().items()}
    fixtures["conorm-seed7.mlir"] = {"input": _conorm_input()}
    fixtures.update((f"{name}.txt", {"input": text})
                    for name, text in INLINE_CASES.items())
    for name, fixture in fixtures.items():
        fixture.update(_stream(_fixture_text(fixture), name))
        (GOLDEN / f"{name}.json").write_text(_dump(fixture))


def _golden_files() -> list[Path]:
    return sorted(GOLDEN.glob("*.json"))


def test_fixtures_cover_every_input():
    names = {p.name[: -len(".json")] for p in _golden_files()}
    assert set(_file_inputs()) <= names
    assert {f"{n}.txt" for n in INLINE_CASES} <= names
    assert "conorm-seed7.mlir" in names


@pytest.mark.parametrize("path", _golden_files(), ids=lambda p: p.stem)
def test_token_stream_matches_golden(path: Path):
    fixture = json.loads(path.read_text())
    name = path.name[: -len(".json")]
    expected = {k: fixture[k] for k in ("tokens", "error") if k in fixture}
    assert _stream(_fixture_text(fixture), name) == expected


if __name__ == "__main__" and "--record" in sys.argv:
    os.chdir(ROOT)
    record()
