"""The per-definition signature memo shared by format parse, verify and print.

Each operation definition with constraint variables solves them once per
distinct signature.  Failures are never memoized, so an invalid op gets
the same diagnostic on every occurrence; the memo stays within its bound
and is safe when several threads share one dialect binding.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.builtin import default_context
from repro.corpus import cmath_source
from repro.ir import VerifyError
from repro.irdl import codegen, register_irdl
from repro.irdl.plan import SIGNATURE_MEMO_SIZE, SIGNATURE_USES
from repro.obs import MetricsRegistry, enable_metrics, reset
from repro.textir import parse_module, print_op
from repro.utils import DiagnosticError


def cmath_context():
    context = default_context()
    register_irdl(context, cmath_source())
    return context


def function(body: str, args: str = "%c: !cmath.complex<f32>") -> str:
    return ('"func.func"() ({\n^bb0(' + args + '):\n' + body
            + '  "func.return"() : () -> ()\n}) {sym_name = "f", '
            'function_type = (!cmath.complex<f32>) -> ()} : () -> ()\n')


def good(name: str) -> str:
    return f"  %{name} = cmath.norm %c : f32\n"


def bad_verify(name: str) -> str:
    """Generic form: it parses, but the operand binds T to f32 and the
    result asks for f64."""
    return f'  %{name} = "cmath.norm"(%c) : (!cmath.complex<f32>) -> (f64)\n'


BAD_PARSE = "  %b = cmath.norm %c : i32\n"


def parse_failure(context, text: str) -> str:
    """The message of the located diagnostic a parse failure raises."""
    with pytest.raises(DiagnosticError) as info:
        parse_module(context, text)
    (diagnostic,) = info.value.diagnostics
    assert diagnostic.span is not None
    return diagnostic.message


def verify_failure(op) -> str:
    with pytest.raises(VerifyError) as info:
        op.verify()
    return str(info.value)


def norm_ops(module):
    return [op for op in module.walk() if op.name == "cmath.norm"]


@pytest.fixture(params=[True, False], ids=["codegen", "interpretive"])
def codegen_mode(request):
    """Both the generated and the interpretive verifier and format."""
    codegen.set_enabled(request.param)
    yield request.param
    codegen.set_enabled(True)


def test_parse_failure_is_exact_on_every_occurrence(codegen_mode):
    reference = parse_failure(cmath_context(), function(BAD_PARSE))
    assert "satisfies none of the 2 alternatives" in reference
    context = cmath_context()
    # The valid signature is memoized first; the failing one never is.
    for _ in range(2):
        text = function(good("a") + BAD_PARSE)
        assert parse_failure(context, text) == reference


def test_verify_failure_is_exact_on_every_occurrence(codegen_mode):
    reference = verify_failure(
        norm_ops(parse_module(cmath_context(), function(bad_verify("v"))))[0])
    assert "already bound" in reference
    context = cmath_context()
    text = function(good("a") + bad_verify("v") + good("b")
                    + bad_verify("w"))
    for module in (parse_module(context, text), parse_module(context, text)):
        first_good, first_bad, second_good, second_bad = norm_ops(module)
        first_good.verify()
        assert verify_failure(first_bad) == reference
        second_good.verify()
        assert verify_failure(second_bad) == reference


def test_print_falls_back_on_every_invalid_occurrence(codegen_mode):
    text = function(good("a") + bad_verify("v") + good("b")
                    + bad_verify("w"))
    reference = print_op(parse_module(cmath_context(), text))
    assert reference.count("cmath.norm %c : f32") == 2
    assert reference.count('"cmath.norm"(%c)') == 2
    context = cmath_context()
    for _ in range(2):
        assert print_op(parse_module(context, text)) == reference


SIG_DIALECT = """
Dialect sig {
  Operation id {
    ConstraintVar (!T: !AnyType)
    Operands (x: !T)
    Results (r: !T)
    Format "$x : $T"
  }
}
"""


def many_signatures(count: int) -> str:
    """One op per integer width: ``count`` distinct signatures."""
    args = ", ".join(f"%a{k}: i{k}" for k in range(1, count + 1))
    inputs = ", ".join(f"i{k}" for k in range(1, count + 1))
    body = "".join(f"  %r{k} = sig.id %a{k} : i{k}\n"
                   for k in range(1, count + 1))
    return ('"func.func"() ({\n^bb0(' + args + '):\n' + body
            + '  "func.return"() : () -> ()\n}) {sym_name = "f", '
            f'function_type = ({inputs}) -> ()}} : () -> ()\n')


def test_memo_stays_within_its_bound():
    context = default_context()
    register_irdl(context, SIG_DIALECT)
    memo = context.get_op_def("sig.id").signature_memo
    text = many_signatures(SIGNATURE_MEMO_SIZE + 40)
    module = parse_module(context, text)
    module.verify()
    printed = print_op(module)
    for use in SIGNATURE_USES:
        assert memo.size(use) == SIGNATURE_MEMO_SIZE
    # Evicted signatures are solved again, with the same result.
    assert print_op(parse_module(context, printed)) == printed
    for use in SIGNATURE_USES:
        assert memo.size(use) == SIGNATURE_MEMO_SIZE


def test_counters_split_by_use_and_constraint_checks_stay_exact():
    context = cmath_context()
    module = parse_module(context, function(good("a") + good("b")))
    registry = enable_metrics(MetricsRegistry())
    try:
        module.verify()
        first = registry.value_of("irdl.verifier.constraint_checks")
        module.verify()
        print_op(parse_module(context, function(good("a") + good("b"))))
        # Two cmath.norm ops, one operand and one result each: every
        # verify counts its checks whether or not the memo answered.
        assert first == 4
        assert registry.value_of("irdl.verifier.constraint_checks") == 8
        assert registry.value_of("irdl.signature_memo.misses.verify") == 1
        assert registry.value_of("irdl.signature_memo.hits.verify") == 3
        # Parsed before metrics: both parses of this signature hit.
        assert registry.value_of("irdl.signature_memo.hits.parse") == 2
        # One probe per printed op: the printer recovers the bindings
        # once and passes them on.
        assert registry.value_of("irdl.signature_memo.misses.print") == 1
        assert registry.value_of("irdl.signature_memo.hits.print") == 1
    finally:
        reset()


def both_dialects():
    context = default_context()
    register_irdl(context, SIG_DIALECT)
    register_irdl(context, cmath_source())
    return context


def test_threads_sharing_a_binding_agree():
    context = both_dialects()
    texts = [many_signatures(SIGNATURE_MEMO_SIZE + 20),
             function(good("a") + bad_verify("v") + good("b"))]
    expected = [print_op(parse_module(both_dialects(), t)) for t in texts]
    failures: list[str] = []

    def work(index: int) -> None:
        try:
            for round_ in range(3):
                pick = (index + round_) % 2
                module = parse_module(context, texts[pick])
                if pick == 0:
                    module.verify()
                if print_op(module) != expected[pick]:
                    failures.append(f"thread {index}: output differs")
        except Exception as err:  # reported, and fails the test below
            failures.append(f"thread {index}: {err!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    memo = context.get_op_def("sig.id").signature_memo
    for use in SIGNATURE_USES:
        assert memo.size(use) <= SIGNATURE_MEMO_SIZE



SEGMENTS_DIALECT = """
Dialect seg {
  Operation pick {
    ConstraintVar (!T: !AnyType)
    Operands (xs: Variadic<!T>, ys: Variadic<!AnyType>)
    Results (r: !T)
  }
}
"""


def test_signature_does_not_decide_several_variadic_segments(codegen_mode):
    """With two variadic operand lists the segment sizes, not the types,
    decide which values bind T; the same signature passes with one
    split and fails with the other."""
    context = default_context()
    register_irdl(context, SEGMENTS_DIALECT)

    def pick(sizes: str) -> str:
        return ('"func.func"() ({\n^bb0(%i: i32, %f: f32):\n'
                '  %r = "seg.pick"(%i, %f) {operand_segment_sizes = '
                f'[{sizes}]}} : (i32, f32) -> (f32)\n'
                '  "func.return"() : () -> ()\n}) {sym_name = "f", '
                'function_type = (i32, f32) -> ()} : () -> ()\n')

    (passing,) = [op for op in parse_module(context, pick("0, 2")).walk()
                  if op.name == "seg.pick"]
    (failing,) = [op for op in parse_module(context, pick("1, 1")).walk()
                  if op.name == "seg.pick"]
    passing.verify()
    assert "already bound" in verify_failure(failing)


TAGGED_DIALECT = """
Dialect tag {
  Operation tagged {
    ConstraintVar (!T: !AnyType)
    Operands (x: !T)
    Attributes (a: !T)
  }
}
"""


def test_signature_does_not_decide_variable_dependent_attributes(codegen_mode):
    """An attribute constrained by a variable is checked against the
    operand's binding on every op, whatever the signature memo holds."""
    context = default_context()
    register_irdl(context, TAGGED_DIALECT)
    text = ('"func.func"() ({\n^bb0(%i: i32):\n'
            '  "tag.tagged"(%i) {a = i32} : (i32) -> ()\n'
            '  "tag.tagged"(%i) {a = f32} : (i32) -> ()\n'
            '  "func.return"() : () -> ()\n}) {sym_name = "f", '
            'function_type = (i32) -> ()} : () -> ()\n')
    passing, failing = [op for op in parse_module(context, text).walk()
                        if op.name == "tag.tagged"]
    passing.verify()
    assert "already bound" in verify_failure(failing)
