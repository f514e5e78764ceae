"""Builtin, func, arith, and cf dialects implemented natively.

These are the hand-written dialects the examples build IR with (the
paper's Listing 1 uses ``func``/``std`` operations next to the
IRDL-defined ``cmath`` dialect).  They demonstrate that native and
IRDL-instantiated dialects register through the same binding interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.builtin.attributes import FloatAttr, IntegerAttr, StringAttr, TypeAttr
from repro.builtin.types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    i1,
)
from repro.ir.dialect import DialectBinding, OpDefBinding
from repro.ir.exceptions import VerifyError

if TYPE_CHECKING:
    from repro.ir.operation import Operation


def _fail(message: str, op: "Operation") -> None:
    raise VerifyError(f"{op.name}: {message}", obj=op)


def _expect(condition: bool, message: str, op: "Operation") -> None:
    # Messages that format IR objects are built only on failure: call
    # _fail behind the check instead of passing an f-string here.
    if not condition:
        _fail(message, op)


# ---------------------------------------------------------------------------
# builtin dialect operations
# ---------------------------------------------------------------------------

def _verify_module(op: "Operation") -> None:
    _expect(not op.operands, "expects no operands", op)
    _expect(not op.results, "expects no results", op)
    _expect(len(op.regions) == 1, "expects exactly one region", op)


def _verify_unrealized_cast(op: "Operation") -> None:
    _expect(len(op.results) >= 1, "expects at least one result", op)


# ---------------------------------------------------------------------------
# func dialect
# ---------------------------------------------------------------------------

def _function_type_of(op: "Operation") -> FunctionType | None:
    """The function signature attribute, unwrapping an optional TypeAttr."""
    fn_attr = op.attributes.get("function_type")
    if isinstance(fn_attr, TypeAttr):
        fn_attr = fn_attr.type
    return fn_attr if isinstance(fn_attr, FunctionType) else None


def _verify_func(op: "Operation") -> None:
    _expect("sym_name" in op.attributes, "expects a sym_name attribute", op)
    _expect(
        isinstance(op.attributes.get("sym_name"), StringAttr),
        "sym_name must be a string attribute",
        op,
    )
    fn_type = _function_type_of(op)
    _expect(
        fn_type is not None,
        "expects a function_type attribute holding a function type",
        op,
    )
    assert fn_type is not None
    _expect(len(op.regions) == 1, "expects exactly one region", op)
    body = op.regions[0]
    entry = body.entry_block
    if entry is None:
        return  # external function declaration
    if len(entry.args) != len(fn_type.inputs):
        _fail(
            f"entry block has {len(entry.args)} arguments but the signature "
            f"has {len(fn_type.inputs)} inputs",
            op,
        )
    for arg, expected in zip(entry.args, fn_type.inputs):
        if arg.type != expected:
            _fail(
                f"entry argument type {arg.type} differs from signature "
                f"type {expected}",
                op,
            )


def _verify_return(op: "Operation") -> None:
    _expect(not op.results, "expects no results", op)
    parent = op.parent_op
    if parent is None or parent.name != "func.func":
        return
    fn_type = _function_type_of(parent)
    if fn_type is None:
        return
    expected = fn_type.result_types
    if len(op.operands) != len(expected):
        _fail(
            f"returns {len(op.operands)} values but the enclosing function "
            f"expects {len(expected)}",
            op,
        )
    for operand, result_type in zip(op.operands, expected):
        if operand.type != result_type:
            _fail(
                f"return operand type {operand.type} differs from function "
                f"result type {result_type}",
                op,
            )


def _verify_call(op: "Operation") -> None:
    _expect("callee" in op.attributes, "expects a callee attribute", op)


# ---------------------------------------------------------------------------
# arith dialect
# ---------------------------------------------------------------------------

def _verify_constant(op: "Operation") -> None:
    _expect(not op.operands, "expects no operands", op)
    _expect(len(op.results) == 1, "expects one result", op)
    value = op.attributes.get("value")
    _expect(value is not None, "expects a value attribute", op)
    if isinstance(value, (IntegerAttr, FloatAttr)) and (
        value.type != op.results[0].type
    ):
        _fail(
            f"constant value type {value.type} differs from result type "
            f"{op.results[0].type}",
            op,
        )


def _make_binary_verifier(type_check, type_desc: str):
    message = f"operands must be {type_desc}"

    def verify(op: "Operation") -> None:
        _expect(len(op.operands) == 2, "expects two operands", op)
        _expect(len(op.results) == 1, "expects one result", op)
        _expect(not op.regions, "expects no regions", op)
        lhs, rhs = op.operands
        res = op.results[0]
        _expect(lhs.type == rhs.type, "operand types must match", op)
        _expect(lhs.type == res.type, "operand and result types must match", op)
        _expect(type_check(lhs.type), message, op)

    return verify


_verify_int_binary = _make_binary_verifier(
    lambda t: isinstance(t, (IntegerType, IndexType)), "integers"
)
_verify_float_binary = _make_binary_verifier(
    lambda t: isinstance(t, FloatType), "floats"
)

CMPI_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
_CMPI_MESSAGE = f"predicate must be one of {CMPI_PREDICATES}"


def _verify_cmpi(op: "Operation") -> None:
    _expect(len(op.operands) == 2, "expects two operands", op)
    _expect(len(op.results) == 1, "expects one result", op)
    _expect(op.operands[0].type == op.operands[1].type, "operand types must match", op)
    _expect(op.results[0].type == i1, "result must be i1", op)
    predicate = op.attributes.get("predicate")
    _expect(
        isinstance(predicate, StringAttr) and predicate.data in CMPI_PREDICATES,
        _CMPI_MESSAGE,
        op,
    )


# ---------------------------------------------------------------------------
# cf dialect (unstructured control flow)
# ---------------------------------------------------------------------------

def _check_successor_args(op: "Operation", successor_index: int, values) -> None:
    successor = op.successors[successor_index]
    if len(values) != len(successor.args):
        _fail(
            f"successor #{successor_index} expects {len(successor.args)} "
            f"arguments, got {len(values)}",
            op,
        )
    for value, arg in zip(values, successor.args):
        if value.type != arg.type:
            _fail(
                f"block argument type mismatch: {value.type} vs {arg.type}",
                op,
            )


def _verify_br(op: "Operation") -> None:
    _expect(len(op.successors) == 1, "expects one successor", op)
    _check_successor_args(op, 0, op.operands)


def _verify_cond_br(op: "Operation") -> None:
    _expect(len(op.successors) == 2, "expects two successors", op)
    _expect(len(op.operands) >= 1, "expects a condition operand", op)
    _expect(op.operands[0].type == i1, "condition must be i1", op)
    # Remaining operands split between successors via segment attributes is
    # not modelled for the native dialect; both successors must take no
    # arguments unless explicitly checked by the user.


# ---------------------------------------------------------------------------
# Dialect construction
# ---------------------------------------------------------------------------

def make_builtin_op_bindings(dialect: DialectBinding) -> None:
    dialect.register_op(
        OpDefBinding("builtin.module", summary="A top-level container",
                     verifier=_verify_module)
    )
    dialect.register_op(
        OpDefBinding(
            "builtin.unrealized_conversion_cast",
            summary="A cast between types during partial conversion",
            verifier=_verify_unrealized_cast,
        )
    )


def make_func_dialect() -> DialectBinding:
    dialect = DialectBinding("func")
    dialect.register_op(
        OpDefBinding("func.func", summary="A function definition",
                     verifier=_verify_func)
    )
    dialect.register_op(
        OpDefBinding(
            "func.return",
            summary="Return values from a function",
            is_terminator=True,
            verifier=_verify_return,
        )
    )
    dialect.register_op(
        OpDefBinding("func.call", summary="Call a function by symbol",
                     verifier=_verify_call)
    )
    return dialect


def make_arith_dialect() -> DialectBinding:
    dialect = DialectBinding("arith")
    dialect.register_op(
        OpDefBinding("arith.constant", summary="An integer or float constant",
                     verifier=_verify_constant)
    )
    for op_name in ("addi", "subi", "muli", "divsi", "andi", "ori", "xori"):
        dialect.register_op(
            OpDefBinding(f"arith.{op_name}", summary="Integer arithmetic",
                         verifier=_verify_int_binary)
        )
    for op_name in ("addf", "subf", "mulf", "divf"):
        dialect.register_op(
            OpDefBinding(f"arith.{op_name}", summary="Float arithmetic",
                         verifier=_verify_float_binary)
        )
    dialect.register_op(
        OpDefBinding("arith.cmpi", summary="Integer comparison",
                     verifier=_verify_cmpi)
    )
    return dialect


def _verify_float_unary(op: "Operation") -> None:
    _expect(len(op.operands) == 1, "expects one operand", op)
    _expect(len(op.results) == 1, "expects one result", op)
    _expect(op.operands[0].type == op.results[0].type,
            "operand and result types must match", op)
    _expect(isinstance(op.operands[0].type, FloatType),
            "operand must be a float", op)


def make_math_dialect() -> DialectBinding:
    dialect = DialectBinding("math")
    for op_name in ("sqrt", "exp", "log", "sin", "cos", "absf"):
        dialect.register_op(
            OpDefBinding(f"math.{op_name}", summary="Unary float math",
                         verifier=_verify_float_unary)
        )
    return dialect


def make_cf_dialect() -> DialectBinding:
    dialect = DialectBinding("cf")
    dialect.register_op(
        OpDefBinding("cf.br", summary="Unconditional branch",
                     is_terminator=True, verifier=_verify_br)
    )
    dialect.register_op(
        OpDefBinding("cf.cond_br", summary="Conditional branch",
                     is_terminator=True, verifier=_verify_cond_br)
    )
    return dialect
