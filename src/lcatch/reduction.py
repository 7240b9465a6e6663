"""The seven reduction rules, redex enumeration, and the CBV evaluator.

The rules are stated once, as a redex view: `redex` dispatches on the
root constructor, matches the one rule that root can match and returns
it with its slots, the subterms the contractum is built from, and
`contractum` builds the right-hand side from those slots.  `contract`
performs root contractions only, as `redex` followed by `contractum`;
complete development and parallel reduction in `confluence` feed the
same builder developed or reduced slots.  `enumerate_redexes` closes
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
from typing import Optional, Sequence

from .syntax import (
    App, Catch, ConsC, LREC, Lam, LrecC, Nil, Term, Throw, children, fcv,
    replace_child, subst,
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


def redex(t: Term) -> Optional[tuple[Rule, tuple[Term, ...]]]:
    """The rule whose left-hand side `t` matches at its root, with the
    slots its contractum is built from, or None if the root is no redex.

    This is the only place the rules' patterns and side conditions are
    written.  It dispatches on the root constructor, and at most one rule
    can match a given root: App is beta_v, lrec_nil, lrec_cons or throw;
    Catch is catch_1, catch_2 or catch_3; Throw is throw only.  The slots
    are the subterms the contractum keeps: (body, argument) for beta_v,
    (base,) for lrec_nil, (base, step, head, tail) for lrec_cons, the
    payload for catch_1 and catch_2, the body for catch_3 and the inner
    throw for throw.
    """
    cls = type(t)
    if cls is App:
        fun, arg = t.fun, t.arg
        if type(fun) is Throw:
            return Rule.THROW, (fun,)
        if not fun.value:
            return None
        if type(arg) is Throw:
            return Rule.THROW, (arg,)
        if not arg.value:
            return None
        if type(fun) is Lam:
            return Rule.BETA_V, (fun.body, arg)
        # `lrec base step` applied to `[]` or to `cons head tail`, by type
        # tests; base, step, head and tail are values because fun and arg are
        if type(fun) is not App:
            return None
        rec = fun.fun
        if type(rec) is not App or type(rec.fun) is not LrecC:
            return None
        if type(arg) is Nil:
            return Rule.LREC_NIL, (rec.arg,)
        if type(arg) is App:
            cell = arg.fun
            if type(cell) is App and type(cell.fun) is ConsC:
                return Rule.LREC_CONS, (rec.arg, fun.arg, cell.arg, arg.arg)
        return None
    if cls is Catch:
        cont, body = t.cont, t.body
        if type(body) is Throw:
            payload = body.payload
            if body.cont == cont:
                return Rule.CATCH_1, (payload,)
            if payload.value and cont not in fcv(payload):
                return Rule.CATCH_2, (payload,)
            return None
        if body.value and cont not in fcv(body):
            return Rule.CATCH_3, (body,)
        return None
    if cls is Throw and type(t.payload) is Throw:
        return Rule.THROW, (t.payload,)
    return None


def contractum(rule: Rule, t: Term, slots: tuple[Term, ...]) -> Term:
    """The right-hand side of `rule` at the redex `t`, built from `slots`
    in place of the ones `redex(t)` returned and from `t`'s binder names."""
    if rule is Rule.BETA_V:
        body, arg = slots
        return subst(body, t.fun.param, arg)
    if rule is Rule.LREC_CONS:
        base, step, head, tail = slots
        rec = t.fun
        # the redex's own `lrec base step` when its slots are kept as they are
        if base is not rec.fun.arg or step is not rec.arg:
            rec = App(App(LREC, base), step)
        return App(App(App(step, head), tail), App(rec, tail))
    if rule is Rule.CATCH_1:
        return Catch(t.cont, slots[0])
    if rule is Rule.CATCH_2:
        return Throw(t.body.cont, slots[0])
    (result,) = slots  # lrec_nil, catch_3 and throw keep their one slot
    return result


def contract(t: Term) -> Optional[tuple[Rule, Term]]:
    """The unique root contraction of `t`, if its root is a redex."""
    found = redex(t)
    if found is None:
        return None
    rule, slots = found
    return rule, contractum(rule, t, slots)


# One frame: the child index the hole sits at and the parent node around it.
# Plugging a term into a frame rebuilds only the parent and shares its other
# child.  A context is a sequence of frames, outermost first; the redex lister
# and the CBV machine both use them.
Frame = tuple[int, Term]


def _plug(frames: Sequence[Frame], t: Term) -> Term:
    """The whole term: `t` plugged into the context `frames`."""
    for index, parent in reversed(frames):
        t = replace_child(parent, index, t)
    return t


def _event(frames: list[Frame], rule: Rule, contractum: Term) -> ReductionEvent:
    # from a list: a tuple built from a generator is resized, which raised peak RSS
    return ReductionEvent(rule, tuple([index for index, _ in frames]), _plug(frames, contractum))


def enumerate_redexes(t: Term) -> list[ReductionEvent]:
    """One event per contractible position, in leftmost-innermost order, by a
    postorder loop over a frame stack, so depth costs no host frame."""
    events: list[ReductionEvent] = []
    frames: list[Frame] = []
    while True:
        while kids := children(t):
            frames.append((0, t))
            t = kids[0]
        # `t` is a leaf, which never contracts: finish each node whose
        # children are done, up to an App whose argument is still to walk
        while frames:
            index, t = frames.pop()
            if index == 0 and type(t) is App:
                frames.append((1, t))
                t = t.arg
                break
            if (found := contract(t)) is not None:
                events.append(_event(frames, *found))
        if not frames:
            return events


# ---------------------------------------------------------------------------
# The CBV machine


def _decompose(t: Term, frames: list[Frame]
               ) -> tuple[Term, Optional[tuple[Rule, tuple[Term, ...]]]]:
    """Walk down the CBV spine from `t` to the first position whose root
    is a redex, pushing one frame per move.

    The walk tries the focus first, then moves into a non-value function,
    then into a non-value argument, a non-value throw payload or a catch
    body.  Returns the focus and its redex view (`redex`'s rule and
    slots), or None for the view when the walk ends on a value, an
    uncaught throw or a stuck term.
    """
    while True:
        found = redex(t)
        if found is not None:
            return t, found
        cls = type(t)
        if cls is App:
            if not t.fun.value:
                frames.append((0, t))
                t = t.fun
            elif not t.arg.value:
                frames.append((1, t))
                t = t.arg
            else:
                return t, None
        elif cls is Throw and not t.payload.value:
            frames.append((0, t))
            t = t.payload
        elif cls is Catch:
            frames.append((0, t))
            t = t.body
        else:
            return t, None


def step_cbv(t: Term) -> Optional[ReductionEvent]:
    """The standard CBV step, or None for values, uncaught throws and
    stuck terms: the first step of the machine from the root of `t`."""
    frames: list[Frame] = []
    t, found = _decompose(t, frames)
    if found is None:
        return None
    rule, slots = found
    return _event(frames, rule, contractum(rule, t, slots))


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
    if t.value:
        return OutcomeKind.VALUE, None
    match t:
        case Throw(cont, payload) if payload.value:
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
        t, found = _decompose(t, frames)
        if found is None or steps == fuel:
            break
        rule, slots = found
        t = contractum(rule, t, slots)
        steps += 1
        if trace is not None:
            if len(trace) < TRACE_CAP:
                trace.append(_event(frames, rule, t))
            else:
                truncated = True
        while frames and (t.value or isinstance(t, Throw)):
            index, parent = frames.pop()
            t = replace_child(parent, index, t)
    t = _plug(frames, t)
    if found is None:
        kind, cont = _classify(t)
        return Outcome(kind, t, steps, cont, trace, truncated)
    return Outcome(OutcomeKind.OUT_OF_FUEL, t, steps, None, trace, truncated)
