"""The seven reduction rules, redex enumeration, and the CBV evaluator.

`contract` performs root contractions only; `enumerate_redexes` closes
over every subterm position (the compatible closure, including under
lambda and catch).  The deterministic CBV strategy runs on a refocused
machine (Danvy & Nielsen, "Refocusing in reduction semantics", 2004) that
keeps the evaluation context as an explicit stack of frames, so a step
resumes at the hole of the last contraction instead of re-descending from
the root and rebuilding the spine.  Step counting is exact: one count per
applied rule instance, frame navigation is free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .surface import print_term
from .syntax import (
    App, Catch, ConsC, Lam, LrecC, Nil, Term, Throw, children, fcv, is_value,
    replace_at, replace_child, subst,
)


class Rule(enum.Enum):
    BETA_V = "beta_v"
    THROW = "throw"
    CATCH_1 = "catch_1"
    CATCH_2 = "catch_2"
    CATCH_3 = "catch_3"
    LREC_NIL = "lrec_nil"
    LREC_CONS = "lrec_cons"


@dataclass(frozen=True)
class ReductionEvent:
    """One applied rule instance: rule tag, redex path, resulting whole term."""

    rule: Rule
    path: tuple[int, ...]
    result: Term


def matching_rules(t: Term) -> list[tuple[Rule, Term]]:
    """All root contractions of `t` with their contracta.

    The rules are mutually exclusive on well-formed terms; returning the
    full list lets tests assert that disjointness.
    """
    out: list[tuple[Rule, Term]] = []
    match t:
        case Catch(a, Throw(b, q)) if b == a:
            out.append((Rule.CATCH_1, Catch(a, q)))
        case Catch(a, Throw(b, v)) if b != a and is_value(v) and a not in fcv(v):
            out.append((Rule.CATCH_2, Throw(b, v)))
    match t:
        case Catch(a, body) if is_value(body) and a not in fcv(body):
            out.append((Rule.CATCH_3, body))
    match t:
        case App(Lam(param, _, body), arg) if is_value(arg):
            out.append((Rule.BETA_V, subst(body, param, arg)))
    match t:
        case App(App(App(LrecC(), base), step), Nil()) if is_value(base) and is_value(step):
            out.append((Rule.LREC_NIL, base))
        case App(App(App(LrecC(), base), step), App(App(ConsC(), head), tail)) \
                if is_value(base) and is_value(step) and is_value(head) and is_value(tail):
            rec = App(App(App(LrecC(), base), step), tail)
            out.append((Rule.LREC_CONS, App(App(App(step, head), tail), rec)))
    match t:
        case App(Throw(a, q), _):
            out.append((Rule.THROW, Throw(a, q)))
        case App(v, Throw(a, q)) if is_value(v):
            out.append((Rule.THROW, Throw(a, q)))
        case Throw(_, Throw(a, q)):
            out.append((Rule.THROW, Throw(a, q)))
    return out


def contract(t: Term) -> Optional[tuple[Rule, Term]]:
    """The unique root contraction of `t`, if its root is a redex."""
    matches = matching_rules(t)
    return matches[0] if matches else None


def enumerate_redexes(t: Term) -> list[ReductionEvent]:
    """One event per contractible position, in leftmost-innermost order."""
    events: list[ReductionEvent] = []

    def walk(u: Term, path: tuple[int, ...]) -> None:
        for i, child in enumerate(children(u)):
            walk(child, path + (i,))
        c = contract(u)
        if c is not None:
            rule, contractum = c
            events.append(ReductionEvent(rule, path, replace_at(t, path, contractum)))

    walk(t, ())
    return events


# ---------------------------------------------------------------------------
# The CBV machine

# One evaluation frame: the child index the hole sits at and the parent node
# around it.  Plugging a term into a frame rebuilds only the parent and
# shares its other child.  A context is a list of frames, outermost first.
Frame = tuple[int, Term]


def _decompose(t: Term, frames: list[Frame]) -> tuple[Term, Optional[tuple[Rule, Term]]]:
    """Walk down the CBV spine from `t` to the first position whose root
    contracts, pushing one frame per move.

    The walk contracts at the focus first, then moves into a non-value
    function, then into a non-value argument, a non-value throw payload or
    a catch body.  Returns the focus and its contraction, or None for the
    contraction when the walk ends on a value, an uncaught throw or a
    stuck term.
    """
    while True:
        c = contract(t)
        if c is not None:
            return t, c
        match t:
            case App(fun, _) if not is_value(fun):
                frames.append((0, t))
                t = fun
            case App(_, arg) if not is_value(arg):
                frames.append((1, t))
                t = arg
            case Throw(_, payload) if not is_value(payload):
                frames.append((0, t))
                t = payload
            case Catch(_, body):
                frames.append((0, t))
                t = body
            case _:
                return t, None


def _plug(frames: list[Frame], t: Term) -> Term:
    """The whole term: `t` plugged into the context `frames`."""
    for index, parent in reversed(frames):
        t = replace_child(parent, index, t)
    return t


def _event(frames: list[Frame], rule: Rule, contractum: Term) -> ReductionEvent:
    return ReductionEvent(rule, tuple(index for index, _ in frames), _plug(frames, contractum))


def step_cbv(t: Term) -> Optional[ReductionEvent]:
    """The standard CBV step, or None for values, uncaught throws and
    stuck terms: the first step of the machine from the root of `t`."""
    frames: list[Frame] = []
    _, c = _decompose(t, frames)
    if c is None:
        return None
    return _event(frames, *c)


# ---------------------------------------------------------------------------
# Evaluation


class OutcomeKind(enum.Enum):
    VALUE = "value"
    UNCAUGHT_THROW = "uncaught_throw"
    OUT_OF_FUEL = "out_of_fuel"
    ILL_FORMED = "ill_formed"


TRACE_CAP = 10000
DEFAULT_FUEL = 100000


@dataclass
class Outcome:
    """Result of deterministic evaluation.

    `term` is the final (or partial, for OUT_OF_FUEL) term; for
    UNCAUGHT_THROW, `cont` names the free continuation and `term` still
    holds the whole `throw cont v` normal form.  `steps` counts applied
    rules exactly; `trace` is kept only on request and truncated at
    TRACE_CAP events.
    """

    kind: OutcomeKind
    term: Term
    steps: int
    cont: Optional[str] = None
    trace: Optional[list[ReductionEvent]] = None
    trace_truncated: bool = False


def _classify(t: Term) -> tuple[OutcomeKind, Optional[str]]:
    if is_value(t):
        return OutcomeKind.VALUE, None
    match t:
        case Throw(cont, payload) if is_value(payload):
            return OutcomeKind.UNCAUGHT_THROW, cont
    return OutcomeKind.ILL_FORMED, None


def evaluate(t: Term, fuel: int = DEFAULT_FUEL, keep_trace: bool = False) -> Outcome:
    """Run the CBV machine for at most `fuel` rule applications.

    Each round decomposes from the focus to the next redex, contracts it,
    and refocuses: while the contractum is a value or a throw, it is
    plugged into the innermost frame, because only those can change
    whether an enclosing frame is a redex.  Every frame on the stack is a
    non-value application, a throw or a catch, so the climb stops at the
    same outermost redex a walk from the root finds.  The whole term is
    rebuilt once at the end, and once per step only for kept trace events.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    trace: Optional[list[ReductionEvent]] = [] if keep_trace else None
    truncated = False
    steps = 0
    frames: list[Frame] = []
    while True:
        t, c = _decompose(t, frames)
        if c is None or steps == fuel:
            break
        rule, t = c
        steps += 1
        if trace is not None:
            if len(trace) < TRACE_CAP:
                trace.append(_event(frames, rule, t))
            else:
                truncated = True
        while frames and (is_value(t) or isinstance(t, Throw)):
            index, parent = frames.pop()
            t = replace_child(parent, index, t)
    t = _plug(frames, t)
    if c is None:
        kind, cont = _classify(t)
        return Outcome(kind, t, steps, cont, trace, truncated)
    return Outcome(OutcomeKind.OUT_OF_FUEL, t, steps, None, trace, truncated)


def render_trace(outcome: Outcome, sugar: bool = False) -> list[str]:
    """One line per event: `step <k>: [<rule>] <term>`."""
    if outcome.trace is None:
        return []
    lines = [
        f"step {k}: [{event.rule.value}] {print_term(event.result, sugar=sugar)}"
        for k, event in enumerate(outcome.trace, start=1)
    ]
    if outcome.trace_truncated:
        lines.append(f"... trace truncated after {TRACE_CAP} events ...")
    return lines
