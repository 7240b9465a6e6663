"""Random term generation and executable suites for the metatheorems.

Two generators, both deterministic in the seed: a goal-directed typed
one (closed terms that the checker accepts) and an unconstrained untyped
one with boosted catch/throw frequency (confluence holds untyped).

`PROPERTY_TABLE` declares each property once, in report order: its name,
its `lcatch meta` short name, what it draws (a typed term, an untyped
one, a typed non-value, or a typed term of an arrow-free type), whether
a failing term is shrunk, and its check.  `run_property` runs every row
the same way: draw, check, count, and record a failure, shrunk to a
smaller term of the same draw when the row says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .confluence import complete_development, parallel_reducts, reachable_by_reduction
from .reduction import OutcomeKind, enumerate_redexes, evaluate, step_cbv
from .surface import print_term
from .syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, Nil, Term, Throw,
    Type, UNIT, UNIT_TYPE, UnitVal, Var, children, cons, fcv,
    is_cons_cell, lrec, replace_child, size,
)
from .typecheck import TypingEnv, TypingError, derivable, infer, is_arrow_free


@dataclass
class GenConfig:
    seed: int = 0
    max_size: int = 20

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


@dataclass
class PropertyReport:
    property: str
    cases_run: int
    failures: list[tuple[int, Term]] = field(default_factory=list, init=False)
    inconclusive: int = field(default=0, init=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"PROP {self.property} CASES {self.cases_run} "
                 f"FAILURES {len(self.failures)}"]
        for seed, term in self.failures:
            lines.append(f"FAIL seed={seed} term={print_term(term)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Typed generation (goal-directed)

_TERM_POOL = ("x", "y", "z", "u", "v", "w")
_CONT_POOL = ("a", "b", "c", "d")
# The most catches the typed generator nests on one path.
_CONT_DEPTH = 2


def _random_type(rng: random.Random, depth: int = 2, arrows: bool = True) -> Type:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return UNIT_TYPE
    if roll < 0.8 or not arrows:
        return ListType(_random_type(rng, depth - 1, arrows=False))
    return ArrowType(_random_type(rng, depth - 1, arrows=False),
                     _random_type(rng, depth - 1, arrows))


def _canonical_inhabitant(ty: Type, depth: int = 0) -> Term:
    match ty:
        case ListType(_):
            return Nil()
        case ArrowType(dom, cod):
            param = _TERM_POOL[depth % len(_TERM_POOL)]
            return Lam(param, dom, _canonical_inhabitant(cod, depth + 1))
    return UNIT


def _gen_typed(rng: random.Random, ty: Type, gamma: dict[str, Type],
               delta: dict[str, Type], budget: int, depth: int,
               cont_room: int) -> Term:
    var_candidates = sorted(x for x, t in gamma.items() if t == ty)
    if budget <= 1 or depth > 14:
        if var_candidates and rng.random() < 0.6:
            return Var(rng.choice(var_candidates))
        return _canonical_inhabitant(ty)

    options: list[tuple[float, Callable[[], Term]]] = []
    if var_candidates:
        options.append((1.5, lambda: Var(rng.choice(var_candidates))))
    options.append((1.0, lambda: _canonical_inhabitant(ty)))

    if delta and budget >= 3:
        def make_throw() -> Term:
            cont = rng.choice(sorted(delta))
            payload = _gen_typed(rng, delta[cont], gamma, delta,
                                 budget - 2, depth + 1, cont_room)
            return Throw(cont, payload)
        options.append((2.5, make_throw))

    if is_arrow_free(ty) and cont_room > 0 and budget >= 3:
        def make_catch() -> Term:
            cont = _CONT_POOL[len(delta) % len(_CONT_POOL)]
            body = _gen_typed(rng, ty, gamma, {**delta, cont: ty},
                              budget - 1, depth + 1, cont_room - 1)
            return Catch(cont, body)
        options.append((2.5, make_catch))

    match ty:
        case ArrowType(dom, cod):
            def make_lam() -> Term:
                param = _TERM_POOL[(depth + len(gamma)) % len(_TERM_POOL)]
                body = _gen_typed(rng, cod, {**gamma, param: dom}, delta,
                                  budget - 2, depth + 1, cont_room)
                return Lam(param, dom, body)
            options.append((3.0, make_lam))
            match ty:
                case ArrowType(e1, ArrowType(ListType(e2), ListType(e3))) \
                        if e1 == e2 == e3:
                    options.append((0.5, lambda: ConsC()))
        case ListType(elem):
            if budget >= 5:
                def make_cons() -> Term:
                    head = _gen_typed(rng, elem, gamma, delta,
                                      (budget - 3) // 2, depth + 1, cont_room)
                    tail = _gen_typed(rng, ty, gamma, delta,
                                      (budget - 3) // 2, depth + 1, cont_room)
                    return cons(head, tail)
                options.append((2.0, make_cons))

    if budget >= 4:
        def make_app() -> Term:
            arg_ty = _random_type(rng, depth=1, arrows=False)
            split = rng.randint(1, budget - 3)
            fun = _gen_typed(rng, ArrowType(arg_ty, ty), gamma, delta,
                             budget - 1 - split, depth + 1, cont_room)
            arg = _gen_typed(rng, arg_ty, gamma, delta,
                             split, depth + 1, cont_room)
            return App(fun, arg)
        options.append((3.0, make_app))

    if budget >= 8:
        def make_lrec() -> Term:
            elem_ty = _random_type(rng, depth=1, arrows=False)
            third = (budget - 4) // 3
            base = _gen_typed(rng, ty, gamma, delta, third, depth + 1, cont_room)
            step_ty = ArrowType(elem_ty, ArrowType(ListType(elem_ty),
                                                   ArrowType(ty, ty)))
            step = _gen_typed(rng, step_ty, gamma, delta, third, depth + 1, cont_room)
            lst = _gen_typed(rng, ListType(elem_ty), gamma, delta, third,
                             depth + 1, cont_room)
            return lrec(base, step, lst)
        options.append((1.5, make_lrec))

    weights = [w for w, _ in options]
    _, chosen = rng.choices(options, weights=weights, k=1)[0]
    return chosen()


# ---------------------------------------------------------------------------
# Untyped generation


def _gen_untyped(rng: random.Random, budget: int, depth: int) -> Term:
    def leaf() -> Term:
        roll = rng.random()
        if roll < 0.4:
            return Var(rng.choice(_TERM_POOL[:3]))
        if roll < 0.6:
            return UNIT
        if roll < 0.8:
            return Nil()
        if roll < 0.9:
            return ConsC()
        return LrecC()

    if budget <= 1 or depth > 14:
        return leaf()
    roll = rng.random()
    if roll < 0.30 and budget >= 3:
        split = rng.randint(1, budget - 2)
        return App(_gen_untyped(rng, budget - 1 - split, depth + 1),
                   _gen_untyped(rng, split, depth + 1))
    if roll < 0.44 and budget >= 2:
        param = rng.choice(_TERM_POOL[:3])
        annot = _random_type(rng, depth=1) if rng.random() < 0.2 else None
        return Lam(param, annot, _gen_untyped(rng, budget - 1, depth + 1))
    if roll < 0.62 and budget >= 2:
        return Catch(rng.choice(_CONT_POOL[:3]),
                     _gen_untyped(rng, budget - 1, depth + 1))
    if roll < 0.80 and budget >= 2:
        return Throw(rng.choice(_CONT_POOL[:3]),
                     _gen_untyped(rng, budget - 1, depth + 1))
    return leaf()


# ---------------------------------------------------------------------------
# Public generator

_EMPTY_ENV = TypingEnv()


def _is_well_typed(t: Term) -> bool:
    try:
        infer(_EMPTY_ENV, t)
        return True
    except TypingError:
        return False


def _gen_with_rng(rng: random.Random, max_size: int, target: Type) -> Term:
    for _ in range(20):
        term = _gen_typed(rng, target, {}, {}, max_size, 0, _CONT_DEPTH)
        if _is_well_typed(term):
            return term
    # A bare inhabitant such as `[]` leaves its element type open, so the
    # identity at the target pins the type for inference.
    return App(Lam("x", target, Var("x")), _canonical_inhabitant(target))


def gen_term(cfg: GenConfig) -> Term:
    """Deterministic random closed well-typed term for the given configuration."""
    return _draw_typed(random.Random(cfg.seed), cfg)


# ---------------------------------------------------------------------------
# Shrinking


def minimize(t: Term, failing: Callable[[Term], bool]) -> Term:
    """Greedily shrink `t` while `failing` stays true.

    Takes the first candidate of `_shrinks` that decreases the (size,
    non-unit) measure and still fails, and repeats until none does.  The
    result is locally minimal.
    """
    if not failing(t):
        raise ValueError("minimize requires a failing input")

    def measure(u: Term) -> tuple[int, int]:
        return (size(u), 0 if isinstance(u, UnitVal) else 1)

    while True:
        for candidate in _shrinks(t):
            if measure(candidate) < measure(t) and failing(candidate):
                t = candidate
                break
        else:
            return t


def _shrinks(t: Term) -> Iterator[Term]:
    """`t` with one position replaced, positions in preorder: at each, the
    unit and nil probes and then each child of the subterm there."""
    yield UNIT
    yield Nil()
    yield from children(t)
    for i, child in enumerate(children(t)):
        for candidate in _shrinks(child):
            yield replace_child(t, i, candidate)


# ---------------------------------------------------------------------------
# Reduction-graph exploration (for strong normalization)

GRAPH_NODE_CAP = 20000


def reduction_graph_status(t: Term) -> str:
    """Explore the full reduction graph: 'acyclic', 'cyclic', or 'overflow'."""
    GREY, BLACK = 1, 2
    # terms compare up to alpha, so each node of the graph is an alpha class
    colors: dict[Term, int] = {t: GREY}
    # each grey node and an iterator over its one-step reducts
    stack = [(t, (event.result for event in enumerate_redexes(t)))]
    while stack:
        node, kids = stack[-1]
        child = next(kids, None)
        if child is None:
            colors[node] = BLACK
            stack.pop()
            continue
        color = colors.get(child)
        if color == GREY:
            return "cyclic"
        if color is None:
            if len(colors) >= GRAPH_NODE_CAP:
                return "overflow"
            colors[child] = GREY
            stack.append((child, (event.result for event in enumerate_redexes(child))))
    return "acyclic"


# ---------------------------------------------------------------------------
# Properties.  A draw maps a case's RNG and the run's configuration to the
# case's term, or to None to skip the case.  A check is the property's
# statement about the term: True when it holds, False when it fails, and
# None when the case settles nothing (a reduction graph that outgrows the
# node cap, or a reachability search that spends its budget).


def _draw_typed(rng: random.Random, cfg: GenConfig) -> Term:
    return _gen_with_rng(rng, cfg.max_size, _random_type(rng, depth=2))


def _draw_untyped(rng: random.Random, cfg: GenConfig) -> Term:
    return _gen_untyped(rng, cfg.max_size, 0)


def _draw_non_value(rng: random.Random, cfg: GenConfig) -> Optional[Term]:
    """A typed non-value: a value is redrawn, 40 times at most."""
    for _ in range(41):
        term = _draw_typed(rng, cfg)
        if not term.value:
            return term
    return None


def _draw_arrow_free(rng: random.Random, cfg: GenConfig) -> Term:
    """A typed term at a random arrow-free type."""
    return _gen_with_rng(rng, cfg.max_size, _random_type(rng, depth=2, arrows=False))


def _check_subject_reduction(t: Term) -> bool:
    ty = infer(_EMPTY_ENV, t)
    for event in enumerate_redexes(t):
        if not derivable(_EMPTY_ENV, event.result, ty):
            return False
    return True


def _check_progress(t: Term) -> bool:
    return t.value or step_cbv(t) is not None


def _check_red_subset_pred(t: Term) -> bool:
    reducts = set(parallel_reducts(t))
    for event in enumerate_redexes(t):
        if event.result not in reducts:
            return False
    return True


def _check_pred_subset_redd(t: Term) -> Optional[bool]:
    verdict = True
    for u in parallel_reducts(t):
        reached = reachable_by_reduction(t, u)
        if reached is False:
            return False
        if reached is None:
            verdict = None
    return verdict


def _check_takahashi(t: Term) -> bool:
    """Every parallel reduct steps in parallel to the complete development.

    This is also the Diamond check: the development is the joining witness
    of any two parallel reducts (Takahashi, 1995)."""
    developed = complete_development(t)
    for u in parallel_reducts(t):
        if developed not in parallel_reducts(u):
            return False
    return True


# Terms of at most this size get their full reduction graph explored for
# strong normalization; larger ones get one CBV run.
_SN_GRAPH_SIZE = 12


def _check_sn(t: Term) -> Optional[bool]:
    if size(t) <= _SN_GRAPH_SIZE:
        status = reduction_graph_status(t)
        return None if status == "overflow" else status == "acyclic"
    return evaluate(t).kind is not OutcomeKind.OUT_OF_FUEL


def _value_shape_ok(v: Term, ty: Type) -> bool:
    """Whether the value `v` has a canonical form of `ty`.  `App.value`
    makes a value's parts values, so its outer nodes settle it: a list is
    full cons cells down to `[]`, a function a lambda, constant or other App."""
    if ty == UNIT_TYPE:
        return type(v) is UnitVal
    if type(ty) is ListType:
        while is_cons_cell(v):
            v = v.arg
        return type(v) is Nil
    return type(v) in (Lam, ConsC, LrecC) or type(v) is App and not is_cons_cell(v)


def _check_value_shapes(t: Term) -> bool:
    ty = infer(_EMPTY_ENV, t)
    outcome = evaluate(t)
    return outcome.kind is OutcomeKind.VALUE and _value_shape_ok(outcome.term, ty)


def _check_fcv_closed(t: Term) -> bool:
    outcome = evaluate(t)
    return outcome.kind is OutcomeKind.VALUE and not fcv(outcome.term)


@dataclass(frozen=True)
class Property:
    name: str
    short: str    # the name `lcatch meta --props` also takes
    draw: Callable[[random.Random, GenConfig], Optional[Term]]
    shrink: bool  # whether a failing term is shrunk before it is reported
    check: Callable[[Term], Optional[bool]]


PROPERTY_TABLE = (
    Property("SubjectReduction", "sr", _draw_typed, True, _check_subject_reduction),
    Property("Progress", "progress", _draw_non_value, True, _check_progress),
    Property("Diamond", "diamond", _draw_untyped, True, _check_takahashi),
    Property("RedSubsetPred", "red-pred", _draw_untyped, True, _check_red_subset_pred),
    Property("PredSubsetRedd", "pred-red", _draw_untyped, True, _check_pred_subset_redd),
    Property("TakahashiMpred", "takahashi", _draw_untyped, True, _check_takahashi),
    Property("StrongNormalization", "sn", _draw_typed, False, _check_sn),
    Property("ValueShapes", "value-shapes", _draw_typed, False, _check_value_shapes),
    Property("FcvClosed", "fcv", _draw_arrow_free, False, _check_fcv_closed),
)
PROPERTIES = tuple(row.name for row in PROPERTY_TABLE)


def run_property(prop: str, cases: int, cfg: GenConfig) -> PropertyReport:
    """Run a named metatheory property over `cases` generated terms.

    Case i draws from `random.Random(cfg.seed + i)`.  `cases_run` counts
    the cases actually checked: a case whose draw returns None is skipped.
    """
    row = next((r for r in PROPERTY_TABLE if r.name == prop), None)
    if row is None:
        raise ValueError(f"unknown property {prop!r}")

    def failing(u: Term) -> bool:
        # a shrunk term stays one the draw could give: in its size cap, or well typed
        in_draw = size(u) <= cfg.max_size if row.draw is _draw_untyped else _is_well_typed(u)
        return in_draw and row.check(u) is False

    report = PropertyReport(prop, 0)
    for i in range(cases):
        case_seed = cfg.seed + i
        term = row.draw(random.Random(case_seed), cfg)
        if term is None:
            continue
        verdict = row.check(term)
        report.cases_run += 1
        if verdict is None:
            report.inconclusive += 1
        elif verdict is False:
            report.failures.append((case_seed, minimize(term, failing) if row.shrink else term))
    return report
