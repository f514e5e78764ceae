"""Definition-time code generation: IRDL definitions to specialized Python.

The paper's deployment story (§5) is that IRDL definitions are *compiled*
— lowered through ODS into straight-line C++ verifiers — rather than
interpreted.  This module brings that compilation step to the
reproduction: at dialect-registration time each
:class:`~repro.irdl.defs.OpDef` (and each type/attribute definition's
parameter list) is lowered to generated Python source — one flat,
specialized verifier function per definition — compiled once with
``compile()``/``exec`` and installed as the definition's verifier.

What the generated code specializes away, relative to the interpretive
:class:`~repro.irdl.plan.VerificationPlan`:

* **segment logic becomes constants** — the §4.6 variadic analysis is
  baked into the emitted source: fixed-arity ops get a single literal
  length comparison, single-variadic ops get constant slice offsets, and
  only the multi-variadic shapes (which need a ``*_segment_sizes``
  attribute) keep a call into the precompiled
  :class:`~repro.irdl.plan.SegmentPlan`;
* **constraint trees become straight-line checks** — ``Eq`` constraints
  compile to an identity test against the interned expected object
  (``v is _e0``), ``AnyType``/``AnyAttr`` to a single ``isinstance``,
  and every other *variable-free* constraint to an inline
  :class:`~repro.irdl.plan.ConstraintMemo` probe.  Only the cold miss
  path falls back to the interpretive ``Constraint.verify`` — which is
  also what keeps the diagnostics byte-identical to the reference
  implementation;
* **dispatch disappears** — the ~20 polymorphic ``Constraint.verify``
  calls per check collapse into locals, constants, and at most one
  method call on the memo.

Soundness leans on the same two invariants as the PR 2 memo: constraints
and attributes are immutable, and uniqued attribute storage makes
identity a sound fast path for equality.  Anything the emitter cannot
prove it handles (exotic names that are not Python identifiers, future
definition features) raises :class:`Unsupported` and the definition
*falls back* to the interpretive plan — observable via the
``irdl.codegen.fallbacks`` counter, never a behavior change.

The interpretive path remains the reference implementation:
``REPRO_NO_CODEGEN=1`` (or ``irdl-opt --no-codegen``) disables the
emitter for subsequently registered definitions, and
``tests/irdl/test_codegen_differential.py`` proves the two paths agree
on accept/reject — with identical diagnostics — over the fuzz corpus.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.exceptions import VerifyError
from repro.irdl.constraints import (
    AnyAttrConstraint,
    AnyTypeConstraint,
    Constraint,
    ConstraintContext,
    EqConstraint,
)
from repro.irdl.plan import (
    CONSTRAINT_MEMO,
    ConstraintMemo,
    run_region_checks,
    signature_of,
)
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.irdl.defs import OpDef, TypeDef
    from repro.irdl.plan import VerificationPlan

__all__ = [
    "Emitter",
    "STATS",
    "Unsupported",
    "compile_op_verifier",
    "compile_param_verifier",
    "enabled",
    "set_enabled",
]


_ENV_FLAG = "REPRO_NO_CODEGEN"
_disabled_by_flag = False

#: Process-lifetime emitter statistics (mirrored into ``repro.obs`` as
#: ``irdl.codegen.*`` whenever metrics are enabled).
STATS = {"definitions_compiled": 0, "formats_compiled": 0,
         "source_bytes": 0, "fallbacks": 0}


def enabled() -> bool:
    """Whether definition-time code generation is currently on.

    Consulted at *registration* time: flipping the switch affects
    definitions registered afterwards, never already-installed verifiers.
    """
    if _disabled_by_flag:
        return False
    return os.environ.get(_ENV_FLAG, "") not in ("1", "true", "yes", "on")


def set_enabled(value: bool) -> None:
    """Force codegen on/off for this process (``irdl-opt --no-codegen``)."""
    global _disabled_by_flag
    _disabled_by_flag = not value


class Unsupported(Exception):
    """The emitter cannot prove it handles this definition; fall back."""


#: Shared context handed to variable-free fallback checks.  A
#: variable-free constraint never reads or writes bindings (that is the
#: definition of variable-freeness), so one immutable context is safe.
_VARFREE_CCTX = ConstraintContext()


def _slow_value_check(
    constraint: Constraint,
    value: Any,
    op: "Operation",
    label: str,
    memo: ConstraintMemo | None,
    cctx: ConstraintContext,
) -> None:
    """Cold path of one generated value/attribute check.

    Runs the interpretive constraint so failures carry the reference
    diagnostics; successes of memoizable checks are recorded so the next
    occurrence of the same (constraint, value) pair hits the inline probe.
    """
    try:
        constraint.verify(value, cctx)
    except VerifyError as err:
        raise VerifyError(f"{op.name}: {label}: {err}", obj=op) from err
    if memo is not None:
        memo.record(constraint, value)


def _slow_param_check(
    constraint: Constraint,
    value: Any,
    label: str,
    memo: ConstraintMemo | None,
    cctx: ConstraintContext,
) -> None:
    """Cold path of one generated type/attribute parameter check."""
    try:
        constraint.verify(value, cctx)
    except VerifyError as err:
        raise VerifyError(f"{label}: {err}") from err
    if memo is not None:
        memo.record(constraint, value)


class _Emitter:
    """Accumulates generated source lines plus their constant environment."""

    __slots__ = ("lines", "env", "_counter")

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict[str, Any] = {
            "_VerifyError": VerifyError,
            "_memo": CONSTRAINT_MEMO,
            "_NOVARS": _VARFREE_CCTX,
            "_Cctx": ConstraintContext,
            "_Attribute": Attribute,
            "_TypeAttribute": TypeAttribute,
            "_OBS": OBS,
        }
        self._counter = 0

    def bind(self, value: Any, prefix: str = "c") -> str:
        """Install ``value`` as a closed-over constant; returns its name."""
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def compile(self, fn_name: str, filename: str) -> Callable[..., None]:
        source = self.source()
        namespace = dict(self.env)
        exec(compile(source, filename, "exec"), namespace)
        return namespace[fn_name]


#: Public alias: other definition-time compilers (the rewrite-pattern
#: matcher table in :mod:`repro.rewriting.matcher`) reuse the same
#: source-accumulation + constant-binding + ``exec`` machinery.
Emitter = _Emitter


def _ident(name: str) -> str:
    """Validate a definition name before splicing it into source text."""
    if not name.isidentifier():
        raise Unsupported(f"name {name!r} is not a Python identifier")
    return name


def _qual(name: str) -> str:
    """Validate a dotted qualified name for direct f-string splicing."""
    if not all(part.isidentifier() for part in name.split(".")):
        raise Unsupported(f"qualified name {name!r} is not splice-safe")
    return name


def _fast_test(em: _Emitter, constraint: Constraint, var: str) -> str | None:
    """An inline success test for the common constraint shapes, or None."""
    cls = type(constraint)
    if cls is EqConstraint:
        expected = em.bind(constraint.expected, "e")
        return f"{var} is {expected}"
    if cls is AnyTypeConstraint:
        return f"isinstance({var}, _TypeAttribute)"
    if cls is AnyAttrConstraint:
        return f"isinstance({var}, _Attribute)"
    return None


def _emit_value_check(
    em: _Emitter,
    indent: int,
    value_expr: str,
    constraint: Constraint,
    memoizable: bool,
    label: str,
    cctx_expr: str,
    signature_memo: bool = False,
) -> None:
    """One constraint check over ``value_expr`` (a type or attribute)."""
    cname = em.bind(constraint)
    if memoizable:
        em.emit(indent, f"_v = {value_expr}")
        fast = _fast_test(em, constraint, "_v")
        cond = f"not _memo.hit({cname}, _v)"
        if fast is not None:
            cond = f"not ({fast}) and {cond}"
        em.emit(indent, f"if {cond}:")
        em.emit(indent + 1,
                f"_slow({cname}, _v, op, {label!r}, _memo, _NOVARS)")
    else:
        # Variable-dependent checks run the interpretive constraint: their
        # outcome reads/writes the per-run context.  Only a signature that
        # passed them before (the definition's signature memo) skips them.
        if signature_memo:
            em.emit(indent, "if not _passed:")
            indent += 1
        em.emit(indent,
                f"_slow({cname}, {value_expr}, op, {label!r}, None, "
                f"{cctx_expr})")


def _emit_value_section(
    em: _Emitter, vc, kind: str, seq: str, cctx_expr: str,
    signature_memo: bool = False,
) -> None:
    """Segment matching + constraint checks for one operand/result list.

    Mirrors :meth:`repro.irdl.plan.SegmentPlan.match` followed by
    :meth:`_ValueChecks.run`, with the variadic analysis folded into
    constants.
    """
    sp = vc.plan
    n = sp.n_defs
    if sp.variadic_count == 0:
        em.emit(1, f"if len({seq}) != {n}:")
        em.emit(2, f'raise _VerifyError(f"{{op.name}} expects {n} {kind}s, '
                   f'got {{len({seq})}}")')
        for index, (arg_def, constraint, memoizable) in enumerate(vc.checks):
            label = f"{kind} {arg_def.name!r}"
            _emit_value_check(em, 1, f"{seq}[{index}].type", constraint,
                              memoizable, label, cctx_expr, signature_memo)
    elif sp.variadic_count == 1:
        n_fixed = sp.n_fixed
        em.emit(1, f"_nvar = len({seq}) - {n_fixed}")
        em.emit(1, "if _nvar < 0:")
        em.emit(2, f'raise _VerifyError(f"{{op.name}} expects at least '
                   f'{n_fixed} {kind}s, got {{len({seq})}}")')
        if sp.only_variadic_optional:
            only = _ident(next(d.name for d in sp.defs if d.is_variadic))
            em.emit(1, "if _nvar > 1:")
            em.emit(2, f'raise _VerifyError(f"{{op.name}}: optional {kind} '
                       f"'{only}' matches at most one value, "
                       f'got {{_nvar}}")')
        cursor = 0
        seen_variadic = False
        for arg_def, constraint, memoizable in vc.checks:
            label = f"{kind} {arg_def.name!r}"
            if arg_def.is_variadic:
                em.emit(1, f"for _item in {seq}[{cursor} : {cursor} + _nvar]:")
                _emit_value_check(em, 2, "_item.type", constraint,
                                  memoizable, label, cctx_expr,
                                  signature_memo)
                seen_variadic = True
            elif not seen_variadic:
                _emit_value_check(em, 1, f"{seq}[{cursor}].type", constraint,
                                  memoizable, label, cctx_expr,
                                  signature_memo)
                cursor += 1
            else:
                _emit_value_check(em, 1, f"{seq}[{cursor} + _nvar].type",
                                  constraint, memoizable, label, cctx_expr,
                                  signature_memo)
                cursor += 1
    else:
        # Several variadic defs need the *_segment_sizes attribute; the
        # sizes validation stays in the precompiled SegmentPlan constant.
        plan_name = em.bind(sp, "segplan")
        em.emit(1, f"_segs = {plan_name}.match({seq}, op)")
        for index, (arg_def, constraint, memoizable) in enumerate(vc.checks):
            label = f"{kind} {arg_def.name!r}"
            em.emit(1, f"for _item in _segs[{index}]:")
            _emit_value_check(em, 2, "_item.type", constraint, memoizable,
                              label, cctx_expr)


def _needs_cctx(plan: "VerificationPlan") -> bool:
    """Whether any check can read or write constraint-variable bindings."""
    if plan.region_plans:
        return True
    for _, _, memoizable in (*plan.operand_checks.checks,
                             *plan.result_checks.checks,
                             *plan.attr_checks):
        if not memoizable:
            return True
    return False


def _generate_op_verifier(
    op_def: "OpDef", plan: "VerificationPlan"
) -> tuple[Callable[["Operation"], None], str]:
    em = _Emitter()
    em.env["_slow"] = _slow_value_check
    _qual(op_def.qualified_name)
    for arg_def, _, _ in (*plan.operand_checks.checks,
                          *plan.result_checks.checks, *plan.attr_checks):
        _ident(arg_def.name)

    em.emit(0, f"# generated from IRDL definition {op_def.qualified_name}")
    em.emit(0, "def __irdl_verify(op):")
    em.emit(1, "operands = op.operands")
    em.emit(1, "results = op.results")
    signature_memo = plan.signature_memo is not None
    if signature_memo:
        em.env["_signature_of"] = signature_of
        em.env["_signatures"] = plan.signature_memo
        em.emit(1, "_key = _signature_of(operands, results)")
        em.emit(1, '_passed = _signatures.get("verify", _key) is not None')
    cctx_expr = "_NOVARS"
    if _needs_cctx(plan):
        em.emit(1, "cctx = _Cctx()")
        cctx_expr = "cctx"

    _emit_value_section(em, plan.operand_checks, "operand", "operands",
                        cctx_expr, signature_memo)
    _emit_value_section(em, plan.result_checks, "result", "results",
                        cctx_expr, signature_memo)

    if plan.attr_checks:
        em.emit(1, "_attrs = op.attributes")
        for attr_def, constraint, memoizable in plan.attr_checks:
            name = _ident(attr_def.name)
            em.emit(1, f"_a = _attrs.get('{name}')")
            em.emit(1, "if _a is None:")
            em.emit(2, f'raise _VerifyError(f"{{op.name}} expects an '
                       f"attribute named '{name}'\", obj=op)")
            _emit_value_check(em, 1, "_a", constraint, memoizable,
                              f"attribute {attr_def.name!r}", cctx_expr)

    if plan.region_plans:
        em.env["_check_regions"] = run_region_checks
        rplans = em.bind(plan.region_plans, "rplans")
        em.emit(1, f"_check_regions({rplans}, op, {cctx_expr}, _memo)")
    else:
        em.emit(1, "if op.regions:")
        em.emit(2, 'raise _VerifyError(f"{op.name} expects 0 regions, '
                   'got {len(op.regions)}", obj=op)')

    expected = plan.expected_successors
    em.emit(1, f"if len(op.successors) != {expected}:")
    em.emit(2, f'raise _VerifyError(f"{{op.name}} expects {expected} '
               'successors, got {len(op.successors)}", obj=op)')

    if plan.predicates:
        from repro.irdl.irdl_py import run_op_predicate

        em.env["_run_pred"] = run_op_predicate
        preds = em.bind(plan.predicates, "preds")
        opdef = em.bind(op_def, "opdef")
        em.emit(1, f"for _code, _pred in {preds}:")
        em.emit(2, f"_run_pred(_pred, _code, op, {opdef})")

    if signature_memo:
        em.emit(1, "if not _passed:")
        em.emit(2, '_signatures.put("verify", _key, True)')
    n_attrs = len(plan.attr_checks)
    em.emit(1, "_m = _OBS.metrics")
    em.emit(1, "if _m.enabled:")
    em.emit(2, '_m.counter("irdl.verifier.constraint_checks").inc('
               f"len(operands) + len(results) + {n_attrs})")

    fn = em.compile("__irdl_verify",
                    f"<irdl-codegen {op_def.qualified_name}>")
    return fn, em.source()


def _note_compiled(source: str) -> None:
    STATS["definitions_compiled"] += 1
    STATS["source_bytes"] += len(source)
    if OBS.metrics.enabled:
        scope = OBS.metrics.scope("irdl.codegen")
        scope.counter("definitions_compiled").inc()
        scope.counter("source_bytes").inc(len(source))


def _note_fallback() -> None:
    STATS["fallbacks"] += 1
    if OBS.metrics.enabled:
        OBS.metrics.counter("irdl.codegen.fallbacks").inc()


def note_format_compiled() -> None:
    """Record one declarative format precompiled to a directive program."""
    STATS["formats_compiled"] += 1
    if OBS.metrics.enabled:
        OBS.metrics.counter("irdl.codegen.formats_compiled").inc()


def compile_op_verifier(
    op_def: "OpDef", plan: "VerificationPlan"
) -> tuple[Callable[["Operation"], None], str] | None:
    """Lower one operation definition to a generated Python verifier.

    Returns ``(function, source)`` or ``None`` when the definition uses
    something the emitter does not handle (the caller keeps the
    interpretive plan; the event shows up in ``irdl.codegen.fallbacks``).
    """
    try:
        fn, source = _generate_op_verifier(op_def, plan)
    except Unsupported:
        _note_fallback()
        return None
    _note_compiled(source)
    return fn, source


def compile_param_verifier(
    type_def: "TypeDef",
) -> tuple[Callable[[Sequence[Any]], None], str] | None:
    """Lower a type/attribute definition's parameter list to a verifier.

    The generated function performs the arity check plus every parameter
    constraint; IRDL-Py whole-value predicates stay with the binding
    (they need the constructed instance).
    """
    try:
        em = _Emitter()
        em.env["_slow"] = _slow_param_check
        qualified = _qual(type_def.qualified_name)
        n = len(type_def.parameters)
        em.emit(0, f"# generated from IRDL definition {qualified}")
        em.emit(0, "def __irdl_verify_params(parameters):")
        em.emit(1, f"if len(parameters) != {n}:")
        em.emit(2, f'raise _VerifyError(f"{qualified} expects {n} '
                   'parameters, got {len(parameters)}")')
        needs_cctx = any(p.constraint.variables() for p in type_def.parameters)
        cctx_expr = "_NOVARS"
        if needs_cctx:
            em.emit(1, "cctx = _Cctx()")
            cctx_expr = "cctx"
        for index, param_def in enumerate(type_def.parameters):
            _ident(param_def.name)
            memoizable = not param_def.constraint.variables()
            label = f"{qualified}: parameter {param_def.name!r}"
            cname = em.bind(param_def.constraint)
            if memoizable:
                em.emit(1, f"_v = parameters[{index}]")
                fast = _fast_test(em, param_def.constraint, "_v")
                cond = f"not _memo.hit({cname}, _v)"
                if fast is not None:
                    cond = f"not ({fast}) and {cond}"
                em.emit(1, f"if {cond}:")
                em.emit(2, f"_slow({cname}, _v, {label!r}, _memo, _NOVARS)")
            else:
                em.emit(1, f"_slow({cname}, parameters[{index}], {label!r}, "
                           f"None, {cctx_expr})")
        fn = em.compile("__irdl_verify_params", f"<irdl-codegen {qualified}>")
    except Unsupported:
        _note_fallback()
        return None
    source = em.source()
    _note_compiled(source)
    return fn, source
