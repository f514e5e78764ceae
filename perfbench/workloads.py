"""Seeded workload inputs and the references their outputs are checked against.

Everything here is the benchmark's own code: the generators decide what
the program under test receives, and the reference models predict what
it must return.  No prediction is computed by calling into ``repro``;
the synth helpers at the bottom only *build* inputs through it.

* :func:`conorm_module` writes a text module over ``cmath`` and ``arith``
  in which about a quarter of the steps plant Listing 1's
  ``norm(a) * norm(b)`` site, and predicts the op-name histogram after
  the conorm rewrite.
* :func:`cse_dce_model` is a value-numbering and liveness model of the
  ``cse, dce`` pipeline over a flat op list.
* :func:`op_histogram` counts op names in printed IR by scanning lines.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field

#: Conorm step kinds: the planted site (a quarter of the steps), a near
#: miss (one norm times a non-norm), an already-canonical mul/norm pair,
#: and plain arithmetic.  Op counts per step: 4, 2, 3, 2.
STEP_KINDS = ("site", "near", "mulnorm", "arith")

_OP_LINE = re.compile(
    r'^\s*(?:%[^=]*=\s*)?"?([A-Za-z_][\w$]*\.[\w$.]+)"?[\s(]')


@dataclass
class ConormModule:
    """A generated text module and the facts the references need."""

    text: str
    sites: int
    #: Op names in the input, ``builtin.module`` included.
    histogram: Counter = field(default_factory=Counter)

    @property
    def ops(self) -> int:
        return sum(self.histogram.values())

    def rewritten_histogram(self) -> Counter:
        """The op names after ``canonicalize`` (conorm) and ``dce``.

        Each site ``norm(a) * norm(b)`` becomes ``norm(a * b)``: one
        ``cmath.mul`` more, one ``cmath.norm`` and one ``arith.mulf``
        fewer.  Nothing else matches, CSE finds no duplicates (every
        site and product reads fresh arguments, every chain step reads
        the previous one) and DCE finds nothing dead (every value feeds
        the returned accumulator).
        """
        after = Counter(self.histogram)
        after["cmath.mul"] += self.sites
        after["cmath.norm"] -= self.sites
        after["arith.mulf"] -= self.sites
        return +after


def _conorm_function(rng: random.Random, index: int, out: list[str],
                     hist: Counter) -> int:
    """Append one ``func.func``; returns the number of planted sites."""
    elt = "f32" if rng.random() < 0.5 else "f64"
    cplx = f"!cmath.complex<{elt}>"
    steps = [STEP_KINDS[0] if rng.random() < 0.25
             else STEP_KINDS[1 + rng.randrange(3)]
             for _ in range(3 + rng.randrange(7))]
    body: list[str] = []
    fresh = 0
    acc = "%z"
    sites = 0

    def arg() -> str:
        nonlocal fresh
        fresh += 1
        return f"%c{fresh - 1}"

    def binary(name: str, result: str, lhs: str, rhs: str) -> None:
        body.append(f'{result} = "{name}"({lhs}, {rhs}) : '
                    f"({elt}, {elt}) -> ({elt})")
        hist[name] += 1

    for step, kind in enumerate(steps):
        v = f"%s{step}_"
        if kind == "site":
            body.append(f"{v}a = cmath.norm {arg()} : {elt}")
            body.append(f"{v}b = cmath.norm {arg()} : {elt}")
            hist["cmath.norm"] += 2
            binary("arith.mulf", f"{v}p", f"{v}a", f"{v}b")
            binary("arith.addf", f"{v}r", acc, f"{v}p")
            sites += 1
        elif kind == "near":
            body.append(f"{v}a = cmath.norm {arg()} : {elt}")
            hist["cmath.norm"] += 1
            binary("arith.mulf", f"{v}r", f"{v}a", acc)
        elif kind == "mulnorm":
            body.append(f"{v}m = cmath.mul {arg()}, {arg()} : {elt}")
            body.append(f"{v}a = cmath.norm {v}m : {elt}")
            hist["cmath.mul"] += 1
            hist["cmath.norm"] += 1
            binary("arith.subf", f"{v}r", acc, f"{v}a")
        else:
            binary("arith.mulf", f"{v}t", acc, "%x")
            binary("arith.addf", f"{v}r", f"{v}t", "%y")
        acc = f"{v}r"
    params = [f"%c{i}: {cplx}" for i in range(fresh)]
    params += [f"%x: {elt}", f"%y: {elt}", f"%z: {elt}"]
    signature = ", ".join([cplx] * fresh + [elt] * 3)
    out.append('  "func.func"() ({')
    out.append(f"  ^bb0({', '.join(params)}):")
    out.extend(f"    {line}" for line in body)
    out.append(f'    "func.return"({acc}) : ({elt}) -> ()')
    out.append(f'  }}) {{sym_name = "f{index}", function_type = '
               f"({signature}) -> {elt}}} : () -> ()")
    hist["func.func"] += 1
    hist["func.return"] += 1
    return sites


def conorm_module(seed: int, functions: int) -> ConormModule:
    """A ``text-conorm`` module of ``functions`` seeded ``func.func`` ops."""
    rng = random.Random(seed)
    hist: Counter = Counter({"builtin.module": 1})
    lines = ['"builtin.module"() ({']
    sites = sum(_conorm_function(rng, i, lines, hist)
                for i in range(functions))
    lines.append("}) : () -> ()")
    return ConormModule("\n".join(lines) + "\n", sites, hist)


def op_histogram(text: str) -> Counter:
    """Op names in printed IR, one op per line (generic or custom form)."""
    hist: Counter = Counter()
    for line in text.splitlines():
        match = _OP_LINE.match(line)
        if match is not None:
            hist[match.group(1)] += 1
    return hist


# ----------------------------------------------------------------------
# The CSE/DCE reference over a flat op list
# ----------------------------------------------------------------------

#: One op of a flat block: name, operand op indices (the defining op of
#: each operand; every op here has at most one result) and an attribute
#: key (``None`` when the op has no attributes).
FlatOp = tuple[str, tuple[int, ...], object]


def cse_dce_model(ops: list[FlatOp], has_result) -> list[FlatOp]:
    """The ops that survive ``cse`` then ``dce``, operands renumbered.

    CSE is value numbering: an op with a result whose (name, canonical
    operands, attributes) key was seen earlier in the block is replaced
    by the earlier op.  DCE then keeps the ops without results (the
    roots) and everything they transitively read.  ``has_result(name)``
    says which op names produce a value.  Returned operands index into
    the returned list, so it compares with a decoded output directly.
    """
    canon: dict[int, int] = {}
    first: dict[tuple, int] = {}
    kept: list[int] = []
    for index, (name, operands, attr) in enumerate(ops):
        operands = tuple(canon[o] for o in operands)
        if has_result(name):
            key = (name, operands, attr)
            if key in first:
                canon[index] = first[key]
                continue
            first[key] = canon[index] = index
        kept.append(index)
    live: set[int] = set()
    for index in reversed(kept):
        name, operands, _ = ops[index]
        if has_result(name) and index not in live:
            continue
        live.update(canon[o] for o in operands)
        live.add(index)
    survivors = [i for i in kept if i in live]
    position = {old: new for new, old in enumerate(survivors)}
    return [
        (ops[i][0], tuple(position[canon[o]] for o in ops[i][1]), ops[i][2])
        for i in survivors
    ]


# ----------------------------------------------------------------------
# Synth inputs (built through repro, predicted by the models above)
# ----------------------------------------------------------------------

SYNTH_RESULTS = {"bench.source", "bench.add", "bench.mul", "bench.accumulate"}


def synth_has_result(name: str) -> bool:
    return name in SYNTH_RESULTS


def flat_ops(module) -> list[FlatOp]:
    """The top-level ops of a flat module as :data:`FlatOp` tuples."""
    index_of: dict[int, int] = {}
    ops: list[FlatOp] = []
    for op in module.regions[0].blocks[0].ops:
        operands = tuple(index_of[id(v)] for v in op.operands)
        attr = op.attributes.get("weight")
        for result in op.results:
            index_of[id(result)] = len(ops)
        ops.append((op.name, operands, None if attr is None else str(attr)))
    return ops


def planted_entries(seed: int, ops: list[FlatOp], count: int) -> list[int]:
    """Seeded entry indices of ``bench.accumulate`` ops to invalidate."""
    candidates = [i for i, op in enumerate(ops) if op[0] == "bench.accumulate"]
    return sorted(random.Random(seed ^ 0x5EED).sample(candidates, count))
