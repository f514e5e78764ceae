"""Declarative rewrite patterns: Listing 1 with no host-language code.

§3 argues that runtime dialect registration plus dynamic pattern
rewriting "provides the components needed to define a simple
pattern-based compilation flow (e.g., the optimization in Listing 1)
without the need for additional C++ code".  This module supplies that
second component: a small declarative pattern language in the spirit of
MLIR's PDL (itself one of the Table 1 dialects), interpreted over the IR
at rewrite time.

Syntax::

    Pattern norm_of_product {
      Match {
        %na = cmath.norm(%a)
        %nb = cmath.norm(%b)
        %r = arith.mulf(%na, %nb)
      }
      Rewrite {
        %m = cmath.mul(%a, %b)
        %r = cmath.norm(%m)
      }
    }

Semantics:

* the **last** operation of ``Match`` is the root; other lines describe
  producers of its operands, matched through use-def edges;
* placeholders (``%a``) unify — the same name must bind the same SSA
  value everywhere;
* ``Rewrite`` builds replacement operations in order; names bound by the
  match are in scope, and re-bound names (``%r``) must be the root's
  results, whose uses are redirected to the new values;
* result types of replacement ops are inferred from their IRDL
  definitions (constraint variables run in reverse, as for declarative
  formats); for operations without an IRDL definition the type of the
  first operand is used.

Replaced producers are left in place (they may have other uses); run
:class:`~repro.rewriting.passes.DeadCodeElimination` afterwards, exactly
as a production canonicalization pipeline would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.context import Context
from repro.ir.exceptions import VerifyError
from repro.ir.location import Location
from repro.ir.operation import Operation
from repro.ir.value import OpResult, SSAValue
from repro.irdl.constraints import CannotInfer, ConstraintContext
from repro.irdl.defs import OpDef
from repro.rewriting.pattern import PatternRewriter, RewritePattern
from repro.textir.lexer import TokenKind, TokenStream
from repro.utils.diagnostics import DiagnosticError
from repro.utils.source import Span


# ---------------------------------------------------------------------------
# Pattern AST
# ---------------------------------------------------------------------------

@dataclass
class OpTemplate:
    """One ``%r = dialect.op(%x, %y)`` line."""

    result_names: list[str]
    op_name: str
    operand_names: list[str]
    #: The template's span in its pattern file (None when constructed
    #: programmatically).
    span: Span | None = None


@dataclass
class PatternDecl:
    name: str
    match_ops: list[OpTemplate] = field(default_factory=list)
    rewrite_ops: list[OpTemplate] = field(default_factory=list)
    #: Lint codes silenced for this pattern (``Suppress "code"`` lines,
    #: same semantics as the IRDL dialect syntax).
    suppressions: list[str] = field(default_factory=list)
    #: The span of the pattern's name in its pattern file.
    span: Span | None = None

    @property
    def root(self) -> OpTemplate:
        return self.match_ops[-1]


def _pattern_error(
    message: str,
    decl: PatternDecl,
    template: OpTemplate | None = None,
    context: Context | None = None,
) -> DiagnosticError:
    """A diagnostic pointing at the best available provenance.

    Preference order: the offending template's span, the pattern
    declaration's span, and — for patterns with no source at all
    (constructed programmatically) — the *dialect definition's* location
    of the template's operation, so the error never renders with an
    empty position.
    """
    span = (template.span if template is not None else None) or decl.span
    if span is not None:
        return DiagnosticError.at(message, span)
    if context is not None and template is not None:
        binding = context.get_op_def(template.op_name)
        location = getattr(binding, "location", None)
        if isinstance(location, Location) and not location.is_unknown:
            return DiagnosticError.at(message, location=location)
    return DiagnosticError.at(message)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class PatternParser(TokenStream):
    """Parses pattern files into :class:`PatternDecl` lists."""

    def __init__(self, text: str, name: str = "<patterns>"):
        super().__init__(text, name)

    def parse_file(self) -> list[PatternDecl]:
        patterns = []
        while self.kind is not TokenKind.EOF:
            patterns.append(self.parse_pattern())
        return patterns

    def parse_pattern(self) -> PatternDecl:
        self.expect_keyword("Pattern")
        name_token = self.expect(TokenKind.BARE_IDENT, "pattern name")
        decl = PatternDecl(name_token.text, span=name_token.span)
        self.consume(TokenKind.LBRACE, "'{'")
        while self.kind is TokenKind.BARE_IDENT and self.text == "Suppress":
            self.advance()
            decl.suppressions.append(
                self.expect(TokenKind.STRING, "lint code string").value
            )
        self.expect_keyword("Match")
        decl.match_ops = self._parse_op_block()
        self.expect_keyword("Rewrite")
        decl.rewrite_ops = self._parse_op_block()
        self.consume(TokenKind.RBRACE, "'}'")
        self._validate(decl)
        return decl

    def _parse_op_block(self) -> list[OpTemplate]:
        self.consume(TokenKind.LBRACE, "'{'")
        templates = []
        while self.kind is not TokenKind.RBRACE:
            templates.append(self._parse_op_template())
        self.consume(TokenKind.RBRACE, "'}'")
        if not templates:
            raise self.error("a pattern section needs at least one operation")
        return templates

    def _parse_op_template(self) -> OpTemplate:
        start_token = self.peek()
        result_names = []
        if self.kind is TokenKind.PERCENT_IDENT:
            result_names.append(self.next().value)
            while self.kind is TokenKind.COMMA:
                self.advance()
                result_names.append(
                    self.expect(TokenKind.PERCENT_IDENT, "result name").value
                )
            self.consume(TokenKind.EQUAL, "'='")
        parts = [self.expect_text(TokenKind.BARE_IDENT, "operation name")]
        while self.kind is TokenKind.DOT:
            self.advance()
            parts.append(self.expect_text(TokenKind.BARE_IDENT, "name"))
        operand_names = []
        self.consume(TokenKind.LPAREN, "'('")
        if self.kind is not TokenKind.RPAREN:
            operand_names.append(
                self.expect(TokenKind.PERCENT_IDENT, "operand").value
            )
            while self.kind is TokenKind.COMMA:
                self.advance()
                operand_names.append(
                    self.expect(TokenKind.PERCENT_IDENT, "operand").value
                )
        end_token = self.expect(TokenKind.RPAREN, "')'")
        return OpTemplate(
            result_names, ".".join(parts), operand_names,
            span=start_token.span.until(end_token.span),
        )

    def _validate(self, decl: PatternDecl) -> None:
        bound: set[str] = set()
        for template in decl.match_ops:
            bound.update(template.operand_names)
            bound.update(template.result_names)
        root_results = set(decl.root.result_names)
        rewrite_bound = set(bound)
        redefined = set()
        for template in decl.rewrite_ops:
            for operand in template.operand_names:
                if operand not in rewrite_bound:
                    raise _pattern_error(
                        f"pattern {decl.name}: %{operand} is not bound by "
                        "the match section",
                        decl, template,
                    )
            for result in template.result_names:
                if result in bound and result not in root_results:
                    raise _pattern_error(
                        f"pattern {decl.name}: %{result} rebinds a matched "
                        "value that is not a root result",
                        decl, template,
                    )
                rewrite_bound.add(result)
                if result in root_results:
                    redefined.add(result)
        if redefined != root_results:
            missing = ", ".join(f"%{r}" for r in sorted(root_results - redefined))
            raise _pattern_error(
                f"pattern {decl.name}: rewrite must redefine the root "
                f"result(s) {missing}",
                decl,
            )


# ---------------------------------------------------------------------------
# Result-type inference from IRDL definitions
# ---------------------------------------------------------------------------

def infer_result_types(op_def: OpDef, operand_types) -> list:
    """Result types implied by operand types under the op's constraints."""
    cctx = ConstraintContext()
    for arg, operand_type in zip(op_def.operands, operand_types):
        arg.constraint.verify(operand_type, cctx)
    results = []
    for arg in op_def.results:
        try:
            results.append(arg.constraint.infer(cctx))
        except CannotInfer as err:
            raise VerifyError(
                f"cannot infer result {arg.name!r} of "
                f"{op_def.qualified_name} from operand types"
            ) from err
    return results


# ---------------------------------------------------------------------------
# The interpreted pattern
# ---------------------------------------------------------------------------

class DeclarativePattern(RewritePattern):
    """A :class:`RewritePattern` interpreting one :class:`PatternDecl`."""

    def __init__(self, context: Context, decl: PatternDecl):
        self.context = context
        self.decl = decl
        self.op_name = decl.root.op_name
        self.suppressions = tuple(decl.suppressions)
        # Declared match prefix: the compiled matcher table inlines the
        # root's arity checks (the first tests ``_match`` would run) and
        # only calls into the interpretive DAG match past them.
        self.operand_arity = len(decl.root.operand_names)
        self.result_arity = len(decl.root.result_names)

    @property
    def label(self) -> str:
        return self.decl.name

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        bindings: dict[str, SSAValue] = {}
        matched: list[Operation] = []
        if not self._match(op, self.decl.root, bindings, matched):
            return False
        # Replacement ops carry the fused location of the whole matched
        # set — the FusedLoc provenance MLIR attaches on folding.
        fused = Location.fuse(m.location for m in matched)
        self._rewrite(op, bindings, rewriter, fused)
        return True

    # -- matching --------------------------------------------------------

    def _match(self, op: Operation, template: OpTemplate,
               bindings: dict[str, SSAValue],
               matched: list[Operation]) -> bool:
        if op.name != template.op_name:
            return False
        if len(op.operands) != len(template.operand_names):
            return False
        if len(op.results) != len(template.result_names):
            return False
        matched.append(op)
        producers = {
            name: t for t in self.decl.match_ops for name in t.result_names
        }
        for name, value in zip(template.operand_names, op.operands):
            if name in bindings:
                if bindings[name] is not value:
                    return False
                continue
            producer_template = producers.get(name)
            if producer_template is not None and producer_template is not template:
                if not isinstance(value, OpResult):
                    return False
                if not self._match(value.op, producer_template, bindings,
                                   matched):
                    return False
                # _match on the producer bound its result names, including
                # this one; check consistency.
                if bindings.get(name) is not value:
                    return False
                continue
            bindings[name] = value
        for name, result in zip(template.result_names, op.results):
            if name in bindings and bindings[name] is not result:
                return False
            bindings[name] = result
        return True

    # -- rewriting --------------------------------------------------------

    def _rewrite(self, root: Operation, bindings: dict[str, SSAValue],
                 rewriter: PatternRewriter,
                 location: Location | None = None) -> None:
        root_result_names = self.decl.root.result_names
        new_root_values: dict[str, SSAValue] = {}
        values = dict(bindings)
        for template in self.decl.rewrite_ops:
            operands = [values[name] for name in template.operand_names]
            result_types = self._result_types(template, operands)
            new_op = rewriter.create(
                template.op_name, operands=operands,
                result_types=result_types, before=root,
                location=location,
            )
            for name, result in zip(template.result_names, new_op.results):
                values[name] = result
                if name in root_result_names:
                    new_root_values[name] = result
        rewriter.replace_op(
            root, [new_root_values[name] for name in root_result_names]
        )

    def _result_types(self, template: OpTemplate, operands) -> list:
        binding = self.context.get_op_def(template.op_name)
        op_def = getattr(binding, "op_def", None)
        if op_def is not None:
            return infer_result_types(op_def, [v.type for v in operands])
        if not template.result_names:
            return []
        if not operands:
            raise VerifyError(
                f"cannot infer result types of {template.op_name}: no IRDL "
                "definition and no operands"
            )
        return [operands[0].type] * len(template.result_names)


def check_pattern(context: Context,
                  decl: PatternDecl) -> list[tuple[str, str]]:
    """Static applicability problems of one pattern.

    Returns ``(severity, message)`` pairs: ``"error"`` for patterns
    that can never apply for structural reasons (unknown operation,
    operand/result arity that the matcher can never satisfy).  Deeper
    constraint-level checks live in :mod:`repro.analysis.lints`.
    """
    problems: list[tuple[str, str]] = []
    for template in (*decl.match_ops, *decl.rewrite_ops):
        binding = context.get_op_def(template.op_name)
        if binding is None:
            problems.append((
                "error", f"unknown operation {template.op_name!r}"
            ))
            continue
        # Arity is only knowable for IRDL-defined operations: natively
        # registered bindings carry no operand/result declarations.
        op_def = getattr(binding, "op_def", None)
        if op_def is None:
            continue
        if (
            not any(o.is_variadic for o in op_def.operands)
            and len(template.operand_names) != len(op_def.operands)
        ):
            problems.append((
                "error",
                f"{template.op_name} takes {len(op_def.operands)} "
                f"operand(s), the pattern supplies "
                f"{len(template.operand_names)}",
            ))
        if (
            template.result_names
            and not any(r.is_variadic for r in op_def.results)
            and len(template.result_names) > len(op_def.results)
        ):
            problems.append((
                "error",
                f"{template.op_name} produces {len(op_def.results)} "
                f"result(s), the pattern binds "
                f"{len(template.result_names)}",
            ))
    return problems


def parse_patterns(context: Context, text: str,
                   name: str = "<patterns>") -> list[DeclarativePattern]:
    """Parse a pattern file into ready-to-apply rewrite patterns."""
    decls = PatternParser(text, name).parse_file()
    for decl in decls:
        for template in (*decl.match_ops, *decl.rewrite_ops):
            if context.get_op_def(template.op_name) is None:
                raise _pattern_error(
                    f"pattern {decl.name}: unknown operation "
                    f"{template.op_name!r}",
                    decl, template, context,
                )
    return [DeclarativePattern(context, decl) for decl in decls]
