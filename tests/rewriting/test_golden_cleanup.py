"""Golden cleanup pipelines: CSE and DCE must reproduce them exactly.

Each fixture under ``golden/`` pins, for one input module and one of the
pipelines ``cse``, ``dce``, ``cse,dce`` and ``canonicalize,cse,dce``,
the ``changed`` flag of every pass and the printed IR afterwards.
Inputs:

* three seeded 1k-op :func:`~repro.corpus.synth.synthesize_module`
  blocks, canonicalized with a small ``bench`` pattern set;
* a seeded conorm-style ``cmath``/``arith`` module with Listing 1 sites,
  recomputed norms and dead chains, canonicalized with
  ``examples/patterns/conorm.pattern``;
* seeded multi-block CFG functions, cleaned with dominance-aware CSE
  (``use_dominance=True``), including an unreachable block;
* seeded functions of value-producing region ops under a purity
  predicate that admits ops with regions.

Fixtures were recorded once and are the reference for any rewrite of
the cleanup passes; re-record only for a deliberate change of their
behaviour::

    PYTHONPATH=src python tests/rewriting/test_golden_cleanup.py --record
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from repro.builtin import default_context
from repro.corpus import cmath_source
from repro.corpus.synth import synthesize_module
from repro.ir import Operation
from repro.irdl import register_irdl
from repro.rewriting import (
    Canonicalizer,
    CommonSubexpressionElimination,
    DeadCodeElimination,
    PassManager,
    default_is_pure,
    parse_patterns,
)
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[2]

PIPELINES = {
    "cse": ("cse",),
    "dce": ("dce",),
    "cse_dce": ("cse", "dce"),
    "canonicalize_cse_dce": ("canonicalize", "cse", "dce"),
}

#: Rewrites over the ``bench`` dialect that leave dead producers and
#: fresh duplicates behind for CSE and DCE.
BENCH_PATTERNS = """
Pattern add_of_mul {
  Match {
    %m = bench.mul(%a, %b)
    %r = bench.add(%m, %c)
  }
  Rewrite {
    %n = bench.add(%a, %c)
    %r = bench.mul(%n, %b)
  }
}
Pattern accumulate_of_add {
  Match {
    %s = bench.add(%a, %b)
    %r = bench.accumulate(%s)
  }
  Rewrite {
    %r = bench.add(%b, %a)
  }
}
"""


@dataclass
class Case:
    """One input: its module, pattern set and purity predicate."""

    context: object
    module: Operation
    patterns: list = field(default_factory=list)
    is_pure: Callable[[Operation], bool] = default_is_pure
    use_dominance: bool = False


def _synth(seed: int) -> Case:
    context = default_context()
    module = synthesize_module(1000, seed, context)
    return Case(context, module,
                list(parse_patterns(context, BENCH_PATTERNS, "<bench>")))


def conorm_style_text(seed: int, functions: int) -> str:
    """Seeded ``func.func``s over ``cmath``/``arith`` with planted waste.

    Steps plant Listing 1's ``norm(a) * norm(b)`` site, recompute a norm
    of an argument (a CSE candidate), multiply then take a norm, or
    combine two earlier values with float arithmetic.  Only a value
    near the end is returned, so the other chains are dead.
    """
    rng = random.Random(seed)
    lines = ['"builtin.module"() ({']
    for index in range(functions):
        elt = rng.choice(("f32", "f64"))
        cplx = f"!cmath.complex<{elt}>"
        n_args = 2 + rng.randrange(3)
        values = ["%x", "%y"]
        body = []

        def arg() -> str:
            return f"%c{rng.randrange(n_args)}"

        def binary(name: str, result: str, lhs: str, rhs: str) -> None:
            body.append(f'{result} = "{name}"({lhs}, {rhs}) : '
                        f"({elt}, {elt}) -> ({elt})")

        for step in range(4 + rng.randrange(10)):
            v = f"%s{step}"
            kind = rng.randrange(4)
            if kind == 0:
                body.append(f"{v}a = cmath.norm {arg()} : {elt}")
                body.append(f"{v}b = cmath.norm {arg()} : {elt}")
                binary("arith.mulf", v, f"{v}a", f"{v}b")
            elif kind == 1:
                body.append(f"{v} = cmath.norm {arg()} : {elt}")
            elif kind == 2:
                body.append(f"{v}m = cmath.mul {arg()}, {arg()} : {elt}")
                body.append(f"{v} = cmath.norm {v}m : {elt}")
            else:
                name = rng.choice(("arith.addf", "arith.mulf", "arith.subf"))
                binary(name, v, rng.choice(values), rng.choice(values))
            values.append(v)
        result = values[-1 - rng.randrange(min(3, len(values)))]
        params = [f"%c{i}: {cplx}" for i in range(n_args)]
        params += [f"%x: {elt}", f"%y: {elt}"]
        signature = ", ".join([cplx] * n_args + [elt] * 2)
        lines.append('  "func.func"() ({')
        lines.append(f"  ^bb0({', '.join(params)}):")
        lines.extend(f"    {line}" for line in body)
        lines.append(f'    "func.return"({result}) : ({elt}) -> ()')
        lines.append(f'  }}) {{sym_name = "f{index}", function_type = '
                     f"({signature}) -> {elt}}} : () -> ()")
    lines.append("}) : () -> ()")
    return "\n".join(lines) + "\n"


def _conorm() -> Case:
    context = default_context()
    register_irdl(context, cmath_source())
    module = parse_module(context, conorm_style_text(7, 8), "<conorm>")
    pattern_text = (ROOT / "examples/patterns/conorm.pattern").read_text()
    return Case(context, module,
                list(parse_patterns(context, pattern_text, "conorm.pattern")))


def cfg_text(seed: int, functions: int) -> str:
    """Seeded multi-block functions: a diamond, a join and a dead block.

    ``^bb0`` branches to ``^bb1``/``^bb2``, both jump to ``^bb3`` with a
    block argument, and ``^bb4`` is unreachable.  Every block computes
    integer arithmetic over the values its dominators define, so the
    same expression recurs in dominated and in sibling blocks.
    """
    rng = random.Random(seed)
    ops = ("arith.addi", "arith.muli", "arith.subi")
    lines = ['"builtin.module"() ({']
    for index in range(functions):
        body: list[str] = []
        counter = 0

        def emit(available: list[str], count: int) -> list[str]:
            nonlocal counter
            made = []
            for _ in range(count):
                lhs = rng.choice(available + made)
                rhs = rng.choice(available + made)
                name = f"%v{counter}"
                counter += 1
                body.append(f'  {name} = "{rng.choice(ops)}"({lhs}, {rhs})'
                            " : (i32, i32) -> (i32)")
                made.append(name)
            return made

        entry_values = ["%a", "%b"]
        body.append("^bb0(%a: i32, %b: i32, %c: i1):")
        entry_values += emit(entry_values, 2 + rng.randrange(4))
        body.append('  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()')
        arms = []
        for label in ("^bb1", "^bb2"):
            body.append(f"{label}:")
            made = emit(entry_values, 1 + rng.randrange(4))
            arms.append(made)
            out = rng.choice(entry_values + made)
            body.append(f'  "cf.br"({out})[^bb3] : (i32) -> ()')
        body.append("^bb3(%j: i32):")
        made = emit(entry_values + ["%j"], 1 + rng.randrange(4))
        result = rng.choice(entry_values + ["%j"] + made)
        body.append(f'  "func.return"({result}) : (i32) -> ()')
        body.append("^bb4:")
        dead = emit(["%a", "%b"], 1 + rng.randrange(3))
        body.append(f'  "func.return"({dead[-1]}) : (i32) -> ()')
        lines.append('  "func.func"() ({')
        lines.extend(f"  {line}" for line in body)
        lines.append(f'  }}) {{sym_name = "g{index}", function_type = '
                     "(i32, i32, i1) -> i32} : () -> ()")
    lines.append("}) : () -> ()")
    return "\n".join(lines) + "\n"


def _cfg() -> Case:
    context = default_context()
    module = parse_module(context, cfg_text(11, 6), "<cfg>")
    return Case(context, module, use_dominance=True)


def region_text(seed: int, functions: int) -> str:
    """Seeded functions of value-producing ``test.region`` ops.

    A region op reads one outer value and yields an expression over its
    operand and outer values; some region ops repeat an earlier one's
    name and operand with a different body, and only one value per
    function is returned, so whole region ops, the ops nested in them
    and outer values used only inside them are dead.
    """
    rng = random.Random(seed)
    lines = ['"builtin.module"() ({']
    for index in range(functions):
        values = ["%a", "%b"]
        body = []
        for step in range(4 + rng.randrange(8)):
            v = f"%s{step}"
            if rng.random() < 0.5:
                lhs, rhs = rng.choice(values), rng.choice(values)
                body.append(f'{v} = "arith.addi"({lhs}, {rhs}) : '
                            "(i32, i32) -> (i32)")
            else:
                operand = rng.choice(values)
                outer = rng.choice(values)
                body.append(f'{v} = "test.region"({operand}) ({{')
                body.append(f"^bb0(%arg{step}: i32):")
                body.append(f'  {v}i = "arith.muli"(%arg{step}, {outer}) : '
                            "(i32, i32) -> (i32)")
                body.append(f'  {v}d = "arith.subi"({outer}, {outer}) : '
                            "(i32, i32) -> (i32)")
                body.append(f'  "test.yield"({v}i) : (i32) -> ()')
                body.append("}) : (i32) -> (i32)")
            values.append(v)
        result = values[-1 - rng.randrange(min(3, len(values)))]
        lines.append('  "func.func"() ({')
        lines.append("  ^bb0(%a: i32, %b: i32):")
        lines.extend(f"    {line}" for line in body)
        lines.append(f'    "func.return"({result}) : (i32) -> ()')
        lines.append(f'  }}) {{sym_name = "r{index}", function_type = '
                     "(i32, i32) -> i32} : () -> ()")
    lines.append("}) : () -> ()")
    return "\n".join(lines) + "\n"


def regions_are_pure(op: Operation) -> bool:
    """Value-producing, branch-free ops are pure, regions or not."""
    if not op.results or op.successors:
        return False
    return op.definition is None or not op.definition.is_terminator


def _regions() -> Case:
    context = default_context(allow_unregistered=True)
    module = parse_module(context, region_text(5, 6), "<regions>")
    return Case(context, module, is_pure=regions_are_pure)


INPUTS: dict[str, Callable[[], Case]] = {
    "synth-seed1": lambda: _synth(1),
    "synth-seed2": lambda: _synth(2),
    "synth-seed3": lambda: _synth(3),
    "conorm-seed7": _conorm,
    "cfg-dominance": _cfg,
    "region-purity": _regions,
}


def run_pipeline(input_name: str, pipeline: str) -> str:
    """The fixture text: ``changed`` flags, then the printed IR."""
    case = INPUTS[input_name]()
    manager = PassManager()
    for name in PIPELINES[pipeline]:
        if name == "canonicalize":
            manager.add(Canonicalizer(case.context, case.patterns))
        elif name == "cse":
            manager.add(CommonSubexpressionElimination(
                is_pure=case.is_pure, use_dominance=case.use_dominance))
        else:
            manager.add(DeadCodeElimination(is_pure=case.is_pure))
    manager.run(case.module)
    case.module.verify()
    flags = " ".join(f"{name}={str(changed).lower()}"
                     for name, changed in manager.history)
    return f"// changed: {flags}\n{print_op(case.module)}"


CASES = [(i, p) for i in INPUTS for p in PIPELINES]


def _fixture(input_name: str, pipeline: str) -> Path:
    return GOLDEN / f"{input_name}.{pipeline}.mlir"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for input_name, pipeline in CASES:
        _fixture(input_name, pipeline).write_text(
            run_pipeline(input_name, pipeline))


@pytest.mark.parametrize("input_name,pipeline", CASES,
                         ids=[f"{i}-{p}" for i, p in CASES])
def test_pipeline_matches_golden(input_name: str, pipeline: str):
    expected = _fixture(input_name, pipeline).read_text()
    assert run_pipeline(input_name, pipeline) == expected


def test_fixtures_exercise_every_pass():
    """Each pass changes something on every input, in some pipeline."""
    for input_name in INPUTS:
        changed = set()
        for pipeline in PIPELINES:
            header = _fixture(input_name, pipeline).read_text().split("\n")[0]
            changed |= {flag.split("=")[0] for flag in header.split()[2:]
                        if flag.endswith("=true")}
        assert {"cse", "dce"} <= changed, input_name


if __name__ == "__main__" and "--record" in sys.argv:
    record()
