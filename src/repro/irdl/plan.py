"""Compiled verification plans: hoist per-verify analysis to compile time.

``make_op_verifier`` used to hand back a closure that re-derived
everything on every call: ``match_segments`` re-scanned the definition
list for variadics, attribute checks re-walked the declaration list, and
identical ``(constraint, type)`` pairs were re-checked from scratch for
every operation of the same shape.  This module compiles one
:class:`VerificationPlan` per :class:`~repro.irdl.defs.OpDef` instead:

* :class:`SegmentPlan` — the variadic-defs analysis of §4.6 (how many
  variadic definitions, which one, what the fixed count is) is performed
  once per definition list, so the per-verify work is a couple of integer
  comparisons plus the slicing itself;
* per-attribute and per-value check tables with the *variable-freeness*
  of each constraint precomputed (``Constraint.variables()`` is a
  recursive walk — running it per verify would defeat the point);
* :class:`ConstraintMemo` — an LRU of successful variable-free constraint
  checks keyed by ``(constraint, value)`` *identity*.  Uniqued attribute
  storage (:mod:`repro.ir.uniquer`) makes identity keys effective: every
  ``i32`` parsed from text is the same object, so the second operation of
  a given shape verifies its types with dictionary hits.

Memoization is deliberately conservative:

* only **successes** are cached — failures raise descriptive errors whose
  construction dominates anyway, and error paths stay exact;
* only **variable-free** constraints are cached — a constraint mentioning
  a §4.6 constraint variable reads or writes the per-run
  :class:`~repro.irdl.constraints.ConstraintContext`, so its outcome is
  not a function of the value alone;
* entries pin both key objects alive, so an ``id`` is never reused while
  its entry exists, and the LRU bound keeps the pinning finite.

Cache effectiveness is observable via the ``irdl.verifier.memo_hits`` /
``irdl.verifier.memo_misses`` counters (mirrored into ``repro.obs``
whenever metrics are enabled).

Checks that *do* mention constraint variables are memoized one level up,
per operation signature, by :class:`SignatureMemo`: one per operation
definition that declares constraint variables, shared by the format
parser, the verifier and the format printer (§4.6–4.7 derive the
variable bindings from the definition; they only need solving once per
distinct signature).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Sequence

from repro.builtin.attributes import ArrayAttr, IntegerAttr
from repro.ir.exceptions import VerifyError
from repro.irdl.ast import Variadicity
from repro.irdl.constraints import Constraint, ConstraintContext
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.ir.value import SSAValue
    from repro.irdl.defs import ArgDef, OpDef, RegionDef


class ConstraintMemo:
    """A bounded LRU of *successful* variable-free constraint checks.

    Keys are ``(id(constraint), id(value))``; each entry stores the pair
    itself so both identities stay valid for the entry's lifetime.  A hit
    therefore proves the exact same constraint object accepted the exact
    same value object before — and since both are immutable, it still
    does.
    """

    __slots__ = ("maxsize", "enabled", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[int, int], tuple[Constraint, Any]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def hit(self, constraint: Constraint, value: Any) -> bool:
        """True when this exact (constraint, value) pair passed before."""
        if not self.enabled:
            return False
        key = (id(constraint), id(value))
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] is constraint
            and entry[1] is value
        ):
            self._entries.move_to_end(key)
            self.hits += 1
            if OBS.metrics.enabled:
                OBS.metrics.counter("irdl.verifier.memo_hits").inc()
            return True
        self.misses += 1
        if OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.memo_misses").inc()
        return False

    def record(self, constraint: Constraint, value: Any) -> None:
        """Remember that ``constraint`` accepted ``value``."""
        if not self.enabled:
            return
        self._entries[(id(constraint), id(value))] = (constraint, value)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "live": len(self)}


#: The process-wide memo shared by every compiled plan.  Sharing (rather
#: than one memo per plan) lets common constraints — ``!i32`` appears in
#: hundreds of corpus definitions — warm up once.
CONSTRAINT_MEMO = ConstraintMemo()


#: Entries kept per use by one :class:`SignatureMemo`: far more than the
#: distinct signatures real IR gives one operation (``cmath.norm`` has
#: two), and a bound on what hostile input can make it hold.
SIGNATURE_MEMO_SIZE = 256

#: The three consumers of a signature memo.
SIGNATURE_USES = ("parse", "verify", "print")

_SIGNATURE_COUNTERS = {
    use: (f"irdl.signature_memo.hits.{use}",
          f"irdl.signature_memo.misses.{use}")
    for use in SIGNATURE_USES
}


class SignatureMemo:
    """Solved constraint variables of one operation definition, by signature.

    Each use keeps its own bounded table:

    * ``parse`` — the declarative format's parsed variable types and
      parameters → the inferred ``(operand types, result types)``;
    * ``verify`` — ``(operand types, result types)`` pairs whose
      variable-dependent checks passed (see
      :attr:`VerificationPlan.signature_memo` for when it is consulted);
    * ``print`` — ``(operand types, result types)`` → the variable
      bindings the format printer needs.

    Only successes are stored, so every failure is solved afresh and
    raises its full diagnostic.  Soundness rests on the invariants of
    :class:`ConstraintMemo`: constraints are pure, and attributes are
    interned and immutable, so equal keys are the same objects and the
    stored result still holds for them.  Lookups are plain dictionary
    reads; writes take a lock, so daemon worker threads sharing one
    dialect binding can use the memo at once.  A full table drops its
    oldest entry.
    """

    __slots__ = ("_tables", "_lock")

    def __init__(self) -> None:
        self._tables: dict[str, dict[tuple, Any]] = {
            use: {} for use in SIGNATURE_USES
        }
        self._lock = threading.Lock()

    def get(self, use: str, key: tuple) -> Any:
        """The result stored for ``key``, or ``None``."""
        found = self._tables[use].get(key)
        metrics = OBS.metrics
        if metrics.enabled:
            hits, misses = _SIGNATURE_COUNTERS[use]
            metrics.counter(misses if found is None else hits).inc()
        return found

    def put(self, use: str, key: tuple, result: Any) -> None:
        """Store a successful ``result`` for ``key``."""
        with self._lock:
            table = self._tables[use]
            if key not in table and len(table) >= SIGNATURE_MEMO_SIZE:
                del table[next(iter(table))]
            table[key] = result

    def size(self, use: str) -> int:
        return len(self._tables[use])


def signature_of(operands: Sequence["SSAValue"],
                 results: Sequence["SSAValue"]) -> tuple:
    """The ``(operand types, result types)`` key of an operation."""
    return (tuple([v.type for v in operands]), tuple([r.type for r in results]))


def _is_variable_free(constraint: Constraint) -> bool:
    return not constraint.variables()


def _checked_verify(
    constraint: Constraint,
    value: Any,
    cctx: ConstraintContext,
    memoizable: bool,
    memo: ConstraintMemo,
) -> None:
    """One constraint check, consulting the memo when that is sound."""
    if memoizable and memo.hit(constraint, value):
        return
    constraint.verify(value, cctx)
    if memoizable:
        memo.record(constraint, value)


class SegmentPlan:
    """The §4.6 variadic-segment analysis, performed once per def list."""

    __slots__ = (
        "defs",
        "kind",
        "n_defs",
        "variadic_count",
        "n_fixed",
        "only_variadic_optional",
        "sizes_attr_name",
    )

    def __init__(self, defs: Sequence["ArgDef"], kind: str):
        self.defs = tuple(defs)
        self.kind = kind
        self.n_defs = len(self.defs)
        variadics = [d for d in self.defs if d.is_variadic]
        self.variadic_count = len(variadics)
        self.n_fixed = self.n_defs - self.variadic_count
        self.only_variadic_optional = (
            variadics[0].variadicity is Variadicity.OPTIONAL
            if len(variadics) == 1
            else False
        )
        self.sizes_attr_name = f"{kind}_segment_sizes"

    def match(
        self, values: Sequence["SSAValue"], op: "Operation"
    ) -> list[list["SSAValue"]]:
        """Assign values to definitions; raise ``VerifyError`` on mismatch."""
        kind = self.kind
        n_values = len(values)

        if self.variadic_count == 0:
            if n_values != self.n_defs:
                raise VerifyError(
                    f"{op.name} expects {self.n_defs} {kind}s, got {n_values}"
                )
            return [[v] for v in values]

        if self.variadic_count == 1:
            n_variadic = n_values - self.n_fixed
            if n_variadic < 0:
                raise VerifyError(
                    f"{op.name} expects at least {self.n_fixed} {kind}s, "
                    f"got {n_values}"
                )
            if self.only_variadic_optional and n_variadic > 1:
                only = next(d for d in self.defs if d.is_variadic)
                raise VerifyError(
                    f"{op.name}: optional {kind} {only.name!r} matches at "
                    f"most one value, got {n_variadic}"
                )
            segments: list[list[SSAValue]] = []
            cursor = 0
            for arg_def in self.defs:
                size = n_variadic if arg_def.is_variadic else 1
                segments.append(list(values[cursor : cursor + size]))
                cursor += size
            return segments

        # Several variadic definitions: §4.6 requires an explicit
        # attribute giving the size of each segment.
        sizes = self._read_sizes(op)
        self._validate_sizes(sizes, n_values, op)
        segments = []
        cursor = 0
        for size in sizes:
            segments.append(list(values[cursor : cursor + size]))
            cursor += size
        return segments

    def _read_sizes(self, op: "Operation") -> list[int]:
        sizes_attr = op.attributes.get(self.sizes_attr_name)
        if not isinstance(sizes_attr, ArrayAttr):
            raise VerifyError(
                f"{op.name} has {self.variadic_count} variadic {self.kind} "
                f"definitions and requires an {self.sizes_attr_name} array "
                f"attribute"
            )
        sizes: list[int] = []
        for element in sizes_attr.elements:
            if not isinstance(element, IntegerAttr):
                raise VerifyError(
                    f"{op.name}: {self.sizes_attr_name} must contain "
                    f"integer attributes"
                )
            sizes.append(element.value)
        return sizes

    def _validate_sizes(
        self, sizes: list[int], n_values: int, op: "Operation"
    ) -> None:
        """Check the whole sizes list before any slicing happens.

        Validating up front (rather than while consuming segments) means
        the error always names the *first* offending entry, regardless of
        how later entries would have sliced.
        """
        if len(sizes) != self.n_defs:
            raise VerifyError(
                f"{op.name}: {self.sizes_attr_name} has {len(sizes)} "
                f"entries for {self.n_defs} {self.kind} definitions"
            )
        for arg_def, size in zip(self.defs, sizes):
            if arg_def.variadicity is Variadicity.SINGLE and size != 1:
                raise VerifyError(
                    f"{op.name}: {self.kind} {arg_def.name!r} is not "
                    f"variadic but its segment size is {size}"
                )
            if arg_def.variadicity is Variadicity.OPTIONAL and size > 1:
                raise VerifyError(
                    f"{op.name}: optional {self.kind} {arg_def.name!r} has "
                    f"segment size {size}"
                )
            if size < 0:
                raise VerifyError(
                    f"{op.name}: negative segment size {size}"
                )
        if sum(sizes) != n_values:
            raise VerifyError(
                f"{op.name}: {self.sizes_attr_name} sums to {sum(sizes)} "
                f"but there are {n_values} {self.kind}s"
            )


class _ValueChecks:
    """A segment plan plus per-definition constraint/memo metadata."""

    __slots__ = ("plan", "checks")

    def __init__(self, defs: Sequence["ArgDef"], kind: str):
        self.plan = SegmentPlan(defs, kind)
        self.checks = tuple(
            (d, d.constraint, _is_variable_free(d.constraint)) for d in defs
        )

    def run(
        self,
        values: Sequence["SSAValue"],
        op: "Operation",
        cctx: ConstraintContext,
        memo: ConstraintMemo,
        signature_passed: bool = False,
    ) -> None:
        """Match segments and check each value.

        With ``signature_passed`` the checks that mention constraint
        variables are skipped: the op's signature passed them before.
        """
        kind = self.plan.kind
        segments = self.plan.match(values, op)
        for (arg_def, constraint, memoizable), segment in zip(
            self.checks, segments
        ):
            if signature_passed and not memoizable:
                continue
            for value in segment:
                try:
                    _checked_verify(
                        constraint, value.type, cctx, memoizable, memo
                    )
                except VerifyError as err:
                    raise VerifyError(
                        f"{op.name}: {kind} {arg_def.name!r}: {err}", obj=op
                    ) from err
        if OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.constraint_checks").inc(
                sum(len(segment) for segment in segments)
            )


class _RegionPlan:
    """Compiled checks for one ``Region`` directive."""

    __slots__ = ("region_def", "arg_checks", "must_not_be_empty")

    def __init__(self, region_def: "RegionDef"):
        self.region_def = region_def
        self.arg_checks = _ValueChecks(
            region_def.arguments,
            f"region {region_def.name!r} argument",
        )
        self.must_not_be_empty = bool(
            region_def.arguments or region_def.terminator
        )


class VerificationPlan:
    """Everything derivable from an ``OpDef`` before seeing any operation."""

    __slots__ = (
        "op_def",
        "operand_checks",
        "result_checks",
        "attr_checks",
        "region_plans",
        "expected_successors",
        "predicates",
        "signature_memo",
    )

    def __init__(
        self, op_def: "OpDef", signature_memo: SignatureMemo | None = None
    ):
        from repro.irdl.irdl_py import compile_op_predicate

        self.op_def = op_def
        self.operand_checks = _ValueChecks(op_def.operands, "operand")
        self.result_checks = _ValueChecks(op_def.results, "result")
        self.attr_checks = tuple(
            (d, d.constraint, _is_variable_free(d.constraint))
            for d in op_def.attributes
        )
        self.region_plans = tuple(_RegionPlan(r) for r in op_def.regions)
        self.expected_successors = (
            len(op_def.successors) if op_def.successors is not None else 0
        )
        self.predicates = tuple(
            (code, compile_op_predicate(code)) for code in op_def.py_constraints
        )
        #: The definition's signature memo, when a passed signature
        #: proves every variable-dependent check of an op that has it:
        #: those checks all sit among the operands and results, whose
        #: segments the signature determines (at most one variadic per
        #: list), and no op-level predicate reads the bindings.
        self.signature_memo = signature_memo if (
            not self.predicates
            and self.operand_checks.plan.variadic_count <= 1
            and self.result_checks.plan.variadic_count <= 1
            and all(m for _, _, m in self.attr_checks)
            and all(m for plan in self.region_plans
                    for _, _, m in plan.arg_checks.checks)
            and not all(m for _, _, m in (*self.operand_checks.checks,
                                          *self.result_checks.checks))
        ) else None

    # ------------------------------------------------------------------

    def run(
        self, op: "Operation", memo: ConstraintMemo | None = None
    ) -> None:
        """Run every compiled check against one operation."""
        from repro.irdl.irdl_py import run_op_predicate

        if memo is None:
            memo = CONSTRAINT_MEMO
        signatures = self.signature_memo
        passed = False
        if signatures is not None:
            key = signature_of(op.operands, op.results)
            passed = signatures.get("verify", key) is not None
        cctx = ConstraintContext()
        self.operand_checks.run(op.operands, op, cctx, memo, passed)
        self.result_checks.run(op.results, op, cctx, memo, passed)
        self._run_attr_checks(op, cctx, memo)
        self._run_region_checks(op, cctx, memo)
        if len(op.successors) != self.expected_successors:
            raise VerifyError(
                f"{op.name} expects {self.expected_successors} successors, "
                f"got {len(op.successors)}",
                obj=op,
            )
        for code, predicate in self.predicates:
            run_op_predicate(predicate, code, op, self.op_def)
        if signatures is not None and not passed:
            signatures.put("verify", key, True)

    def _run_attr_checks(
        self, op: "Operation", cctx: ConstraintContext, memo: ConstraintMemo
    ) -> None:
        if self.attr_checks and OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.constraint_checks").inc(
                len(self.attr_checks)
            )
        for attr_def, constraint, memoizable in self.attr_checks:
            attr = op.attributes.get(attr_def.name)
            if attr is None:
                raise VerifyError(
                    f"{op.name} expects an attribute named "
                    f"{attr_def.name!r}",
                    obj=op,
                )
            try:
                _checked_verify(constraint, attr, cctx, memoizable, memo)
            except VerifyError as err:
                raise VerifyError(
                    f"{op.name}: attribute {attr_def.name!r}: {err}", obj=op
                ) from err

    def _run_region_checks(
        self, op: "Operation", cctx: ConstraintContext, memo: ConstraintMemo
    ) -> None:
        run_region_checks(self.region_plans, op, cctx, memo)


def run_region_checks(
    region_plans: Sequence[_RegionPlan],
    op: "Operation",
    cctx: ConstraintContext,
    memo: ConstraintMemo,
) -> None:
    """Region count + shape checks shared by the interpretive plan and the
    generated verifiers (:mod:`repro.irdl.codegen`), so both paths raise
    byte-identical diagnostics."""
    if len(op.regions) != len(region_plans):
        raise VerifyError(
            f"{op.name} expects {len(region_plans)} regions, got "
            f"{len(op.regions)}",
            obj=op,
        )
    for plan, region in zip(region_plans, op.regions):
        region_def = plan.region_def
        entry = region.entry_block
        if entry is None:
            if plan.must_not_be_empty:
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must not "
                    f"be empty",
                    obj=op,
                )
            continue
        plan.arg_checks.run(entry.args, op, cctx, memo)
        if region_def.terminator is not None:
            if len(region.blocks) != 1:
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must "
                    f"contain a single basic block (it declares a "
                    f"terminator)",
                    obj=op,
                )
            last = entry.last_op
            if last is None or last.name != region_def.terminator:
                found = last.name if last is not None else "nothing"
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must end "
                    f"with {region_def.terminator}, found {found}",
                    obj=op,
                )
