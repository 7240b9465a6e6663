"""Random term generation and executable suites for the metatheorems.

Two generators: a goal-directed typed generator (closed terms that the
checker accepts, used for subject reduction, progress, normalization,
value shapes, and continuation-closure) and an unconstrained untyped
generator with boosted catch/throw frequency (used for the confluence
properties, which hold untyped).  Both are deterministic in the seed.

Each property runs over `cases` generated terms and reports failures as
data; counterexamples are shrunk greedily before reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .confluence import (
    complete_development, is_parallel_step, parallel_reducts, reachable_by_reduction,
)
from .reduction import OutcomeKind, enumerate_redexes, evaluate, step_cbv
from .surface import print_term, print_type
from .syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, Nil, Term, Throw,
    Type, UNIT, UNIT_TYPE, UnitVal, Var, canonical, children, cons, fcv,
    lrec, replace_at, size, subterm_at,
)
from .typecheck import TypingEnv, TypingError, derivable, infer, is_arrow_free


@dataclass
class GenConfig:
    seed: int = 0
    max_size: int = 20
    typed: bool = True
    target_type: Optional[Type] = None

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


PROPERTIES = (
    "SubjectReduction",
    "Progress",
    "Diamond",
    "RedSubsetPred",
    "PredSubsetRedd",
    "TakahashiMpred",
    "StrongNormalization",
    "ValueShapes",
    "FcvClosed",
)


@dataclass
class PropertyReport:
    property: str
    cases_run: int
    failures: list[tuple[int, Term, str]] = field(default_factory=list)
    inconclusive: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"PROP {self.property} CASES {self.cases_run} "
                 f"FAILURES {len(self.failures)}"]
        for seed, term, _detail in self.failures:
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


def _canonical_inhabitant(rng: random.Random, ty: Type,
                          gamma: dict[str, Type], depth: int = 0) -> Term:
    match ty:
        case ListType(_):
            return Nil()
        case ArrowType(dom, cod):
            param = _TERM_POOL[depth % len(_TERM_POOL)]
            return Lam(param, dom,
                       _canonical_inhabitant(rng, cod, gamma, depth + 1))
    return UNIT


def _gen_typed(rng: random.Random, ty: Type, gamma: dict[str, Type],
               delta: dict[str, Type], budget: int, depth: int,
               cont_room: int) -> Term:
    if budget <= 1 or depth > 14:
        candidates = [x for x, t in gamma.items() if t == ty]
        if candidates and rng.random() < 0.6:
            return Var(rng.choice(sorted(candidates)))
        return _canonical_inhabitant(rng, ty, gamma)

    options: list[tuple[float, Callable[[], Term]]] = []

    var_candidates = sorted(x for x, t in gamma.items() if t == ty)
    if var_candidates:
        options.append((1.5, lambda: Var(rng.choice(var_candidates))))
    options.append((1.0, lambda: _canonical_inhabitant(rng, ty, gamma)))

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


def _gen_with_rng(rng: random.Random, cfg: GenConfig) -> Term:
    if not cfg.typed:
        return _gen_untyped(rng, cfg.max_size, 0)
    target = cfg.target_type
    if target is None:
        target = _random_type(rng, depth=2)
    for _ in range(20):
        term = _gen_typed(rng, target, {}, {}, cfg.max_size, 0, _CONT_DEPTH)
        try:
            infer(TypingEnv(), term)
            return term
        except TypingError:
            continue
    # A bare inhabitant such as `[]` leaves its element type open, so the
    # identity at the target pins the type for inference.
    return App(Lam("x", target, Var("x")), _canonical_inhabitant(rng, target, {}))


def gen_term(cfg: GenConfig) -> Term:
    """Deterministic random term for the given configuration."""
    return _gen_with_rng(random.Random(cfg.seed), cfg)


# ---------------------------------------------------------------------------
# Shrinking


def minimize(t: Term, failing: Callable[[Term], bool]) -> Term:
    """Greedily shrink `t` while `failing` stays true.

    Tries, at every position, the unit and nil probes and each direct
    child of the subterm there; accepts a replacement when it decreases
    the (size, non-unit) measure.  The result is locally minimal.
    """
    if not failing(t):
        raise ValueError("minimize requires a failing input")

    def measure(u: Term) -> tuple[int, int]:
        return (size(u), 0 if isinstance(u, UnitVal) else 1)

    improved = True
    while improved:
        improved = False
        for path in _paths(t, ()):
            sub = subterm_at(t, path)
            for candidate in (UNIT, Nil(), *children(sub)):
                replaced = replace_at(t, path, candidate)
                if measure(replaced) < measure(t) and failing(replaced):
                    t = replaced
                    improved = True
                    break
            if improved:
                break
    return t


def _paths(u: Term, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every position in `u`, in preorder, each prefixed by `prefix`."""
    out = [prefix]
    for i, child in enumerate(children(u)):
        out.extend(_paths(child, prefix + (i,)))
    return out


# ---------------------------------------------------------------------------
# Reduction-graph exploration (for strong normalization)

GRAPH_NODE_CAP = 20000


def reduction_graph_status(t: Term, cap: int = GRAPH_NODE_CAP) -> str:
    """Explore the full reduction graph: 'acyclic', 'cyclic', or 'overflow'."""
    WHITE, GREY, BLACK = 0, 1, 2
    colors: dict[Term, int] = {}
    succs: dict[Term, list[Term]] = {}

    def successors(key: Term, term: Term) -> list[Term]:
        if key not in succs:
            succs[key] = [event.result for event in enumerate_redexes(term)]
        return succs[key]

    root = canonical(t)
    stack: list[tuple[Term, Term, int]] = [(root, t, 0)]
    colors[root] = GREY
    while stack:
        key, term, idx = stack.pop()
        kids = successors(key, term)
        if idx < len(kids):
            stack.append((key, term, idx + 1))
            child = kids[idx]
            child_key = canonical(child)
            color = colors.get(child_key, WHITE)
            if color == GREY:
                return "cyclic"
            if color == WHITE:
                if len(colors) >= cap:
                    return "overflow"
                colors[child_key] = GREY
                stack.append((child_key, child, 0))
        else:
            colors[key] = BLACK
    return "acyclic"


# ---------------------------------------------------------------------------
# Property checks

_EMPTY_ENV = TypingEnv()


def _is_well_typed(t: Term) -> bool:
    try:
        infer(_EMPTY_ENV, t)
        return True
    except TypingError:
        return False


def _check_subject_reduction(t: Term) -> Optional[str]:
    ty = infer(_EMPTY_ENV, t)
    for event in enumerate_redexes(t):
        if not derivable(_EMPTY_ENV, event.result, ty):
            return f"reduct via {event.rule.value} no longer types at {print_type(ty)}"
    return None


def _sr_failing(t: Term) -> bool:
    return _is_well_typed(t) and _check_subject_reduction(t) is not None


def _check_progress(t: Term) -> Optional[str]:
    if t.value:
        return None
    if step_cbv(t) is None:
        return "closed well-typed non-value has no CBV step"
    return None


def _progress_failing(t: Term) -> bool:
    return _is_well_typed(t) and _check_progress(t) is not None


def _check_confluence_case(t: Term, which: str, budget: int) -> Optional[str]:
    reducts = parallel_reducts(t, budget)
    if which == "RedSubsetPred":
        keys = {canonical(u) for u in reducts}
        for event in enumerate_redexes(t):
            if canonical(event.result) not in keys:
                return f"one-step reduct via {event.rule.value} is not a parallel reduct"
        return None
    if which == "PredSubsetRedd":
        for u in reducts:
            if not reachable_by_reduction(t, u):
                return f"parallel reduct {print_term(u)} not reached by ->*"
        return None
    developed = complete_development(t)
    for u in reducts:
        # reducts of budget-sized terms can outgrow the budget; enumeration
        # stays exhaustive for them
        if not is_parallel_step(u, developed, max(size(u), 64)):
            if which == "TakahashiMpred":
                return f"reduct {print_term(u)} does not step to the development"
            return f"diamond witness missing for {print_term(u)}"
    return None


# Terms of at most this size get their full reduction graph explored for
# strong normalization; larger ones get one CBV run.
_SN_GRAPH_SIZE = 12


def _check_sn(t: Term) -> tuple[Optional[str], bool]:
    """Returns (failure detail, inconclusive flag)."""
    if size(t) <= _SN_GRAPH_SIZE:
        status = reduction_graph_status(t)
        if status == "cyclic":
            return "reduction cycle found on a well-typed term", False
        if status == "overflow":
            return None, True
        return None, False
    outcome = evaluate(t)
    if outcome.kind is OutcomeKind.OUT_OF_FUEL:
        return "evaluation ran out of fuel on a well-typed term", False
    return None, False


def _list_of_values(t: Term) -> bool:
    while True:
        match t:
            case Nil():
                return True
            case App(App(ConsC(), head), tail) if head.value:
                t = tail
            case _:
                return False


def _value_shape_ok(v: Term, ty: Type) -> bool:
    if ty == UNIT_TYPE:
        return isinstance(v, UnitVal)
    if isinstance(ty, ListType):
        return _list_of_values(v)
    match v:
        case ConsC() | LrecC() | Lam():
            return True
        case App(ConsC(), w) if w.value:
            return True
        case App(LrecC(), w) if w.value:
            return True
        case App(App(LrecC(), w1), w2) if w1.value and w2.value:
            return True
    return False


def _check_value_shapes(t: Term) -> Optional[str]:
    ty = infer(_EMPTY_ENV, t)
    outcome = evaluate(t)
    if outcome.kind is not OutcomeKind.VALUE:
        return f"closed well-typed term did not evaluate to a value ({outcome.kind.value})"
    if not _value_shape_ok(outcome.term, ty):
        return (f"value {print_term(outcome.term)} has the wrong shape "
                f"for type {print_type(ty)}")
    return None


def _check_fcv_closed(t: Term) -> Optional[str]:
    outcome = evaluate(t)
    if outcome.kind is not OutcomeKind.VALUE:
        return f"term did not evaluate to a value ({outcome.kind.value})"
    if fcv(outcome.term):
        return "value of arrow-free type has free continuation variables"
    return None


def run_property(prop: str, cases: int, cfg: GenConfig) -> PropertyReport:
    """Run a named metatheory property over `cases` generated terms.

    `cases_run` counts the cases actually checked: a Progress case whose
    every draw is a value is skipped.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    report = PropertyReport(prop, 0)

    typed_props = {"SubjectReduction", "Progress", "StrongNormalization",
                   "ValueShapes", "FcvClosed"}

    for i in range(cases):
        case_seed = cfg.seed + i
        rng = random.Random(case_seed)
        detail: Optional[str] = None
        shrink_pred: Optional[Callable[[Term], bool]] = None

        if prop in typed_props:
            case_cfg = GenConfig(case_seed, cfg.max_size, True, cfg.target_type)
            if prop == "FcvClosed" and case_cfg.target_type is None:
                case_cfg.target_type = _random_type(rng, depth=2, arrows=False)
            term = _gen_with_rng(rng, case_cfg)
            if prop == "Progress":
                # progress is about non-values; redraw values deterministically
                attempts = 0
                while term.value and attempts < 40:
                    term = _gen_with_rng(rng, case_cfg)
                    attempts += 1
                if term.value:
                    continue
                detail = _check_progress(term)
                shrink_pred = _progress_failing
            elif prop == "SubjectReduction":
                detail = _check_subject_reduction(term)
                shrink_pred = _sr_failing
            elif prop == "StrongNormalization":
                detail, inconclusive = _check_sn(term)
                if inconclusive:
                    report.inconclusive += 1
            elif prop == "ValueShapes":
                detail = _check_value_shapes(term)
            else:
                detail = _check_fcv_closed(term)
        else:
            budget = cfg.max_size
            term = _gen_untyped(rng, budget, 0)
            detail = _check_confluence_case(term, prop, budget)

            def shrink_pred(u, _prop=prop, _budget=budget):
                return (size(u) <= _budget
                        and _check_confluence_case(u, _prop, _budget) is not None)

        report.cases_run += 1
        if detail is not None:
            minimized = term
            if shrink_pred is not None:
                try:
                    minimized = minimize(term, shrink_pred)
                except ValueError:  # pragma: no cover - flaky predicate
                    minimized = term
            report.failures.append((case_seed, minimized, detail))
    return report
