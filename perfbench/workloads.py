"""The four benchmark workloads: seeded inputs and one op each.

Every workload is a closed loop with one client: the runner calls `run`
for op k only after op k-1 has returned.  `item(k)` is a pure function of
the workload seed and k, so two runs with one seed issue the same ops in
the same order.  Eval and frontend repeat a fixed cycle of inputs; the
meta workloads draw a fresh generator case per op.

Ops reach lcatch through module attributes looked up at call time
(`cli.main`, `metatheory.run_property`, ...), which is where the traced
run installs its spans.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from lcatch import cli, metatheory, surface, syntax
from lcatch.typecheck import ErrorKind, TypingError

from oracle import (
    AMBIGUOUS_CASE, DEEP_INPUT, NAT, PROPERTY_FAILURE, RESOURCE_EXIT, UNIT,
    EvalCase, Ty, arrow, check_eval, check_lines, type_text,
)

ROUND_TRIP = "round-trip-mismatch"
# Step cost grows with term size, so these rungs carry the per-step
# scaling exponent; keep them fixed so the fit is seed-independent.
TIMES_RUNGS = (5, 10, 15, 20)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process `lcatch <argv>`: exit code and captured stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _refused(deep: bool, code: int) -> bool:
    """A deep input refused with an exit code beyond the documented 0-5."""
    return deep and code > 5


# ---------------------------------------------------------------------------
# eval-prelude


def eval_cycle(seed: int) -> list[EvalCase]:
    """The seeded ladder of prelude programs, about 10 to 2000 steps.

    The seed picks operands that the step count does not depend on (the
    second operand of plus, the argument of pred, the order of the
    prefix and the whole suffix of a zero-containing prodz), so the
    cycle's total step count is the same for every seed.  The cycle has
    15 inputs, so the op_ms_p50 and op_ms_p90 quantiles fall in the middle
    of one input's repetitions rather than between two inputs.
    """
    rng = random.Random(seed)
    cases = [EvalCase("plus", (n, rng.randint(5, 10))) for n in (5, 40, 100)]
    cases += [EvalCase("times", (n, n)) for n in TIMES_RUNGS]
    cases += [EvalCase("pred", (n,)) for n in (
        rng.randint(20, 30), rng.randint(150, 160), rng.randint(350, 360))]
    prefix = [1, 2, 4, 5]
    rng.shuffle(prefix)

    def suffix() -> tuple[int, ...]:
        return tuple(rng.randint(0, 9) for _ in range(rng.randint(2, 4)))

    cases += [
        EvalCase("prodz", ((0,) + suffix(),)),
        EvalCase("prodz", (tuple(prefix) + (0,) + suffix(),)),
        EvalCase("prodz", ((2, 3, 4),)),
    ]
    # Known-crash slice: past the recursion limit at the seed, yet only
    # 9 and 5 steps, so a fix makes them cheap successes.
    cases += [EvalCase("pred", (rng.randint(700, 750),), deep=True),
              EvalCase("plus", (0, rng.randint(1500, 1550)), deep=True)]
    rng.shuffle(cases)
    return cases


class EvalPrelude:
    warmup = 8

    def __init__(self, seed: int, scratch: Path):
        self.cycle = eval_cycle(seed)

    def item(self, k: int) -> EvalCase:
        return self.cycle[k % len(self.cycle)]

    def run(self, case: EvalCase) -> Optional[str]:
        code, out = run_cli(["eval", "-e", case.source, "--count"])
        if _refused(case.deep, code):
            return RESOURCE_EXIT
        return check_eval(case, code, out)


# ---------------------------------------------------------------------------
# meta-typed and meta-confluence


@dataclass(frozen=True)
class MetaCase:
    prop: str
    seed: int
    known: tuple[str, ...]


class Meta:
    """One generated case of one metatheory property per op."""

    warmup = 100
    cycle = None

    def __init__(self, props: tuple[str, ...], max_size: int, seed: int,
                 known: tuple[str, ...]):
        self.props, self.max_size, self.known = props, max_size, known
        # disjoint case seeds per workload seed
        self.base = seed * 1_000_000
        self.inconclusive = 0

    def item(self, k: int) -> MetaCase:
        return MetaCase(self.props[k % len(self.props)], self.base + k, self.known)

    def run(self, case: MetaCase) -> Optional[str]:
        try:
            report = metatheory.run_property(
                case.prop, 1, metatheory.GenConfig(seed=case.seed, max_size=self.max_size))
        except TypingError as err:
            if err.kind is ErrorKind.AMBIGUOUS_TYPE:
                return AMBIGUOUS_CASE
            raise
        self.inconclusive += report.inconclusive
        return PROPERTY_FAILURE if report.failures else None


def meta_typed(seed: int, scratch: Path) -> Meta:
    return Meta(("SubjectReduction", "Progress", "StrongNormalization",
                 "ValueShapes", "FcvClosed"), 20, seed, (AMBIGUOUS_CASE,))


def meta_confluence(seed: int, scratch: Path) -> Meta:
    return Meta(("Diamond", "RedSubsetPred", "PredSubsetRedd", "TakahashiMpred"),
                12, seed, ())


# ---------------------------------------------------------------------------
# frontend

N = NAT
NN = arrow(N, N)
LIST_N = ("list", N)
_ADD_STEP = r"(\h: 1. \t: [1]. \r: [1]. cons () r)"

# (result type, argument types, source template, node count without the
# arguments).  Every binder is annotated, so each definition has exactly
# the listed type; `#{k}` adds the 4k+1 nodes of a numeral.
_TEMPLATES: list[tuple[Ty, tuple[Ty, ...], str, int]] = [
    (N, (), "#{k}", 0),
    (N, (N,), "cons () {0}", 4),
    (NN, (N,), r"\x: [1]. lrec x " + _ADD_STEP + " {0}", 14),
    (N, (NN, N), "{0} {1}", 1),
    (NN, (NN, NN), r"\x: [1]. {0} ({1} x)", 4),
    (NN, (NN,), r"\x: [1]. catch a. {0} (throw a x)", 5),
    (arrow(NN, N, N), (), r"\f: [1] -> [1]. \x: [1]. f (f x)", 7),
    (NN, (arrow(NN, N, N), NN), "{0} {1}", 1),
    (LIST_N, (N, N), "[{0}, #{k}, {1}]", 10),
    (arrow(LIST_N, N), (),
     r"\l: [[1]]. lrec [] (\h: [1]. \t: [[1]]. \r: [1]. cons () r) l", 15),
    (N, (arrow(LIST_N, N), LIST_N), "{0} {1}", 1),
    (arrow(N, N, N), (), r"\x: [1]. \y: [1]. lrec y " + _ADD_STEP + " x", 16),
    (N, (arrow(N, N, N), N, N), "{0} {1} {2}", 2),
    (arrow(UNIT, N), (N,), r"\u: 1. {0}", 1),
    (N, (arrow(UNIT, N),), "{0} ()", 2),
    (UNIT, (), "()", 1),
]


@dataclass(frozen=True)
class Program:
    """A generated `.lc` file and the exact `lcatch check` output for it."""

    path: Path
    source: str
    expected: tuple[str, ...]
    deep: bool = False

    @property
    def known(self) -> tuple[str, ...]:
        return DEEP_INPUT if self.deep else ()


def gen_program(rng: random.Random, node_cap: int,
                prefix: str = "d") -> tuple[str, list[str]]:
    """Definitions that build on earlier ones until expansion nears `node_cap`.

    A definition may use an earlier one only while the expanded total
    stays under the cap, and prefers the largest that fits, so the
    expanded size lands within 10% of the cap whatever the seed.  The
    definitions are named `prefix` plus their index.  Returns the source
    and the expected `name : type` lines; `main` applies a [1] -> [1]
    definition to a [1] definition.
    """
    defs: list[tuple[str, Ty, int]] = []   # name, type, expanded size
    lines, expected = [], []
    total = 0
    while total < 0.9 * node_cap:
        room = node_cap - total
        usable = []
        for ty, needs, text, own in _TEMPLATES:
            pools = [[d for d in defs if d[1] == need and d[2] < room]
                     for need in needs]
            if all(pools):
                usable.append((ty, text, own, pools))
        ty, text, own, pools = rng.choice(usable)
        refs = [max(pool, key=lambda d: d[2]) if rng.random() < 0.5 else rng.choice(pool)
                for pool in pools]
        k = rng.randint(1, 5)
        name = f"{prefix}{len(defs)}"
        expanded = own + sum(r[2] for r in refs) + (4 * k + 1 if "#{k}" in text else 0)
        defs.append((name, ty, expanded))
        lines.append(f"def {name} = {text.format(*(r[0] for r in refs), k=k)};")
        expected.append(f"{name} : {type_text(ty)}")
        total += expanded
    funs = [d for d in defs if d[1] == NN] or [("(\\x: [1]. x)", NN, 0)]
    nats = [d for d in defs if d[1] == N] or [("#1", N, 0)]
    lines.append(f"main = {rng.choice(funs)[0]} {rng.choice(nats)[0]};")
    expected.append(f"main : {type_text(N)}")
    return "\n".join(lines) + "\n", expected


def deep_program(kind: str, depth: int) -> tuple[str, list[str]]:
    """A single definition nesting `depth` lambdas or catches around ()."""
    if kind == "lambda":
        body = "".join(f"\\v{i}: 1. " for i in range(depth)) + "()"
        ty = arrow(*([UNIT] * (depth + 1)))
    else:
        body = "".join(f"catch k{i}. " for i in range(depth)) + "()"
        ty = UNIT
    return f"def deep = {body};\n", [f"deep : {type_text(ty)}"]


# Expanded-node caps, geometric from 30 to about 6000.  Many programs make
# the latency percentiles a property of the size ladder, not of one
# program; with the two deep inputs the cycle has 35, so the p50 and p90
# quantiles fall in the middle of one input's repetitions.
FRONTEND_CAPS = tuple(round(30 * 1.18 ** i) for i in range(33))


def frontend_cycle(seed: int, scratch: Path) -> list[Program]:
    """Programs of about 30 to 6000 expanded nodes, plus the known-crash
    slice (one lambda nest, one catch nest), written to `scratch` so each
    op reads its file like `lcatch check` does.

    Programs of one size differ in check time with their mix of
    templates: over 8 seeds, the median check time of a cycle drawn from
    the seed spread by 20% (interquartile range over median), more than
    the host did.  So each rung's shape comes from a generator
    seeded by the rung alone, and the workload seed picks what does not
    change the work: the definitions' names (three letters, so the same
    length for every seed), the depths of the two deep nests, and the
    order of the cycle.
    """
    rng = random.Random(seed)
    made = []
    for rung, cap in enumerate(FRONTEND_CAPS):
        prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        made.append(gen_program(random.Random(f"frontend-{rung}"), cap, prefix) + (False,))
    made += [deep_program("lambda", rng.randint(1000, 1100)) + (True,),
             deep_program("catch", rng.randint(9000, 9100)) + (True,)]
    rng.shuffle(made)
    scratch.mkdir(parents=True, exist_ok=True)
    programs = []
    for i, (source, expected, deep) in enumerate(made):
        path = scratch / f"frontend-{i}.lc"
        path.write_text(source, encoding="utf-8")
        programs.append(Program(path, source, tuple(expected), deep))
    return programs


class Frontend:
    warmup = 4

    def __init__(self, seed: int, scratch: Path):
        self.cycle = frontend_cycle(seed, scratch)

    def item(self, k: int) -> Program:
        return self.cycle[k % len(self.cycle)]

    def run(self, prog: Program) -> Optional[str]:
        code, out = run_cli(["check", str(prog.path)])
        if _refused(prog.deep, code):
            return RESOURCE_EXIT
        kind = check_lines(code, out, prog.expected)
        if kind is not None:
            return kind
        parsed = surface.parse_program(prog.source)
        defs = surface.expand_defs(parsed)
        terms = [term for _, term in defs]
        if parsed.main is not None:
            terms.append(surface.expand_term(parsed.main, defs))
        for term in terms:
            printed = surface.print_term(term)
            if not syntax.alpha_eq(surface.parse_term(printed), term):
                return ROUND_TRIP
        return None


def make(name: str, seed: int, scratch: Path):
    """The workload object for `name`, with its inputs built from `seed`."""
    return {
        "eval-prelude": EvalPrelude,
        "meta-typed": meta_typed,
        "meta-confluence": meta_confluence,
        "frontend": Frontend,
    }[name](seed, scratch)

