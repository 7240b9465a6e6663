"""The seven reduction rules, redex enumeration, and the CBV evaluator.

The rules are stated as a redex view: `redex` dispatches on the root
constructor, matches the one rule that root can match and returns it
with its slots, the subterms the contractum is built from, and
`contractum` builds the right-hand side from those slots.  `contract`
performs root contractions only, as `redex` followed by `contractum`;
complete development and parallel reduction in `confluence` feed the
same builder developed or reduced slots.  `enumerate_redexes` closes
over every subterm position (the compatible closure, including under
lambda and catch).

The deterministic CBV strategy runs on an environment machine (Biernacka
& Danvy, "A concrete framework for environment machines", 2007) derived
from a refocused substitution machine (Danvy & Nielsen, "Refocusing in
reduction semantics", 2004).  It states the rules a second time, at its
own transitions, and shares no code with `contract`; the tests check it
step by step, trace events included, against a root re-descent built on
`contract`.  beta binds a closed argument in an environment instead of
substituting it, lrec_cons pushes its contractum as frames, and the term
a state stands for is read back only for the first TRACE_CAP trace
events and the final or out-of-fuel term.  Step counting is exact: one
count per applied rule instance, moves between frames are free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    _PARTIAL, _set_free_vars, App, Catch, ConsC, LREC, Lam, LrecC, Nil, Term, Throw, Var, children,
    fcv, free_vars, is_cons_cell, replace_child, subst,
)


class Rule(enum.Enum):
    BETA_V = "beta_v"
    THROW = "throw"
    CATCH_1 = "catch_1"
    CATCH_2 = "catch_2"
    CATCH_3 = "catch_3"
    LREC_NIL = "lrec_nil"
    LREC_CONS = "lrec_cons"


# The rules, in `Rule`'s order, as globals for the redex view, the
# machine's loop and `confluence`: looking a member up on the enum costs
# about ten times as much.
_BETA_V, _THROW, _CATCH_1, _CATCH_2, _CATCH_3, _LREC_NIL, _LREC_CONS = Rule


@dataclass(frozen=True)
class ReductionEvent:
    """One applied rule instance: rule tag, redex path, resulting whole term."""

    rule: Rule
    path: tuple[int, ...]
    result: Term


def redex(t: Term) -> Optional[tuple[Rule, tuple[Term, ...]]]:
    """The rule whose left-hand side `t` matches at its root, with the
    slots its contractum is built from, or None if the root is no redex.

    `contract`, `enumerate_redexes` and `confluence` share this statement
    of the rules' patterns and side conditions; the CBV machine restates
    them, and the tests check it step by step against this one.  At most
    one rule can match a root: App is beta_v, lrec_nil, lrec_cons or throw;
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
            return _THROW, (fun,)
        if not fun.value:
            return None
        if type(arg) is Throw:
            return _THROW, (arg,)
        if not arg.value:
            return None
        if type(fun) is Lam:
            return _BETA_V, (fun.body, arg)
        # `lrec base step` applied to `[]` or to `cons head tail`, by type
        # tests; base, step, head and tail are values because fun and arg are
        if type(fun) is not App:
            return None
        rec = fun.fun
        if type(rec) is not App or type(rec.fun) is not LrecC:
            return None
        if type(arg) is Nil:
            return _LREC_NIL, (rec.arg,)
        if is_cons_cell(arg):
            return _LREC_CONS, (rec.arg, fun.arg, arg.fun.arg, arg.arg)
        return None
    if cls is Catch:
        cont, body = t.cont, t.body
        if type(body) is Throw:
            payload = body.payload
            if body.cont == cont:
                return _CATCH_1, (payload,)
            if payload.value and cont not in fcv(payload):
                return _CATCH_2, (payload,)
            return None
        if body.value and cont not in fcv(body):
            return _CATCH_3, (body,)
        return None
    if cls is Throw and type(t.payload) is Throw:
        return _THROW, (t.payload,)
    return None


def contractum(rule: Rule, t: Term, slots: tuple[Term, ...]) -> Term:
    """The right-hand side of `rule` at the redex `t`, built from `slots`
    in place of the ones `redex(t)` returned and from `t`'s binder names."""
    if rule is _BETA_V:
        body, arg = slots
        return subst(body, t.fun.param, arg)
    if rule is _LREC_CONS:
        base, step, head, tail = slots
        rec = t.fun
        # the redex's own `lrec base step` when its slots are kept as they are
        if base is not rec.fun.arg or step is not rec.arg:
            rec = App(App(LREC, base), step)
        return App(App(App(step, head), tail), App(rec, tail))
    if rule is _CATCH_1:
        return Catch(t.cont, slots[0])
    if rule is _CATCH_2:
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


# One frame of the redex lister: the child index the hole sits at and the
# parent node around it.  Plugging a term into a frame rebuilds only the
# parent and shares its other child.  A context is a list of frames,
# outermost first.
Frame = tuple[int, Term]


def _plug(frames: list[Frame], t: Term) -> Term:
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
    UNCAUGHT_THROW it is the whole `throw cont v` normal form.  `steps`
    counts applied rules exactly; `trace` is kept only on request and
    truncated at TRACE_CAP events, so it is shorter than `steps` exactly
    when it lost some.
    """

    kind: OutcomeKind
    term: Term
    steps: int
    trace: Optional[list[ReductionEvent]] = None


def _classify(t: Term) -> OutcomeKind:
    if t.value:
        return OutcomeKind.VALUE
    if type(t) is Throw and t.payload.value:
        return OutcomeKind.UNCAUGHT_THROW
    return OutcomeKind.ILL_FORMED


# ---------------------------------------------------------------------------
# The CBV machine


class _Closure:
    """A machine value: a lambda under an environment that binds some of
    its free variables to closed values; `term` is its read-back, built on
    first use."""

    __slots__ = ("lam", "env", "term")

    def __init__(self, lam: Lam, env: dict):
        self.lam = lam
        self.env = env
        self.term: Optional[Term] = None


def _term(v) -> Term:
    """The term a machine value stands for.  The closures it reaches are
    read back innermost first from a work list, so a chain of closures
    costs no host frame per link."""
    if type(v) is not _Closure:
        return v
    todo = [v]
    while todo:
        c = todo[-1]
        pending = [w for name in free_vars(c.lam).term_vars
                   if type(w := c.env.get(name)) is _Closure and w.term is None]
        if pending:
            todo += pending
            continue
        todo.pop()
        if c.term is None:
            c.term = _readback(c.lam, c.env)
    return v.term


def _readback(t: Term, env: dict) -> Term:
    """`t` with each free variable that `env` binds replaced by its value's
    term.  Every value an environment binds is closed, so nothing is
    renamed."""
    if env:
        for name in free_vars(t).term_vars:
            if name in env:
                t = subst(t, name, _term(env[name]))
    return t


# A machine frame is one of:
#   (arg, env)   apply-to: the function position of `f arg`, `arg` unevaluated
#   [rec, tail]  recursive call: the function position of `f (rec tail)`, as
#                lrec_cons pushes it; `rec` and `tail` are values
#   a value      applied: the argument position of `value arg`
#   a Throw      its payload is the hole
#   a Catch      its body is the hole
# An apply-to frame is the only tuple and a recursive call the only list; a
# value is never a Throw or a Catch.
_HOLE_AT_0 = (tuple, list, Throw, Catch)


def _whole(frames: list, focus: Term) -> Term:
    """The term the machine state stands for: `focus` read back into `frames`."""
    for f in reversed(frames):
        cls = type(f)
        if cls is tuple:
            focus = App(focus, _readback(*f))
        elif cls is list:
            focus = App(focus, App(*f))
        elif cls is Throw or cls is Catch:
            focus = replace_child(f, 0, focus)
        else:
            focus = App(_term(f), focus)
    return focus


def evaluate(t: Term, fuel: int = DEFAULT_FUEL, keep_trace: bool = False) -> Outcome:
    """Run the CBV machine for at most `fuel` rule applications.

    The machine either evaluates a term under an environment or returns a
    value, a term or a `_Closure`, to the innermost frame.  beta binds a
    closed argument in the environment and substitutes any other at once,
    so every value an environment binds is closed: a read-back renames
    nothing, and a state stands for the term a substitution machine holds,
    binder names included.

    A variable, a value or a closure is taken in one place, where the
    machine evaluates a term that is not an application.  Two moves are
    fused: a value `c x` whose one bound name is its argument `x` is built
    in one transition, and lrec_cons pushes `step head tail (rec tail)` as
    frames, `rec` the redex's own `lrec base step`, and returns `head` to
    `step`.

    A throw in focus contracts against an application or throw frame
    before its payload is evaluated, and the catch rules are checked when
    a throw or a value reaches a catch frame.  An event's path is read off
    the frames around the redex, before the contractum pushes any.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    trace: Optional[list] = [] if keep_trace else None
    steps = 0
    frames: list = []
    env: dict = {}
    evaluating = True
    out_of_fuel = False
    while True:
        if evaluating:
            # evaluate `t` under `env`
            cls = type(t)
            if cls is App:
                fun = t.fun
                if t.value and (not env or env.keys().isdisjoint((t._free_vars or free_vars(t)).term_vars)):
                    v = t                   # a value that names no variable `env` binds
                elif t.value and type(t.arg) is Var and env.keys().isdisjoint(
                        (names := fun._free_vars or free_vars(fun)).term_vars):
                    # `c x`, whose one bound name is its argument `x`: `x`'s
                    # value is closed, so `c`'s free variables are the cell's
                    v = App(fun, _term(env[t.arg.name]))
                    _set_free_vars(v, names)
                else:
                    frames.append((t.arg, env))
                    t = fun
                    continue
                evaluating = False
                continue
            if cls is Catch:
                frames.append(t)
                t = t.body
                continue
            if cls is not Throw:
                if cls is Var:
                    v = env.get(t.name, t)
                elif cls is Lam and env and not env.keys().isdisjoint(
                        (t._free_vars or free_vars(t)).term_vars):
                    v = _Closure(t, env)
                else:
                    v = t                   # a value that names no variable `env` binds
                evaluating = False
                continue
            if frames and type(f := frames[-1]) is not Catch:
                rule = _THROW
            elif frames and f.cont == t.cont:
                rule = _CATCH_1
            elif not t.payload.value:
                frames.append(t)
                t = t.payload
                continue
            elif frames and f.cont not in fcv(t.payload):
                rule = _CATCH_2
            else:                           # an uncaught throw, or stuck
                break
        else:
            # return `v` to the innermost frame
            if not frames:
                break
            f = frames[-1]
            cls = type(f)
            if cls is tuple:
                # the function is a value and becomes the applied frame
                t, env = f
                frames[-1] = v
                evaluating = True
                continue
            if cls is list:
                # the function is a value: return `tail` to `rec`, an App
                frames[-1] = v
                f, v = f
                frames.append(f)
                cls = App
            if cls is Lam or cls is _Closure:
                rule = _BETA_V
            elif cls is App and type(f.fun) is App and type(f.fun.fun) is LrecC and (
                    type(v) is Nil or type(v) is App and type(v.fun) is App and type(v.fun.fun) is ConsC):
                rule = _LREC_NIL if type(v) is Nil else _LREC_CONS
            elif cls in _PARTIAL or cls is App and type(f.fun) in _PARTIAL:
                frames.pop()
                v = App(f, _term(v))
                continue
            elif cls is Catch and f.cont not in free_vars(v.lam if type(v) is _Closure else v).cont_vars:
                rule = _CATCH_3
            elif cls is Throw:
                frames.pop()
                t = Throw(f.cont, _term(v))
                env = {}
                evaluating = True
                continue
            else:                           # stuck
                break
        # `rule` contracts the innermost frame `f` with its hole filled
        if steps == fuel:
            out_of_fuel = True
            break
        steps += 1
        if rule is _CATCH_1:
            t = t.payload                   # the catch frame stays
            depth = len(frames) - 1
        else:
            frames.pop()
            depth = len(frames)
        # the redex sits under the first `depth` frames
        if rule is _BETA_V:
            lam = f if cls is Lam else f.lam
            if type(v) is _Closure:
                names = v.lam._free_vars
                closed = not names.cont_vars and v.env.keys() >= names.term_vars
            else:
                names = v._free_vars or free_vars(v)
                closed = not names.term_vars and not names.cont_vars
            if closed:
                t = lam.body
                env = {lam.param: v} if lam is f else {**f.env, lam.param: v}
            else:
                t = subst(_term(f).body, lam.param, _term(v))
                env = {}
            evaluating = True
        elif rule is _LREC_NIL:
            v = f.fun.arg
        elif rule is _LREC_CONS:
            # `step head tail (rec tail)`: `step` applied to `head` now, the
            # result to `tail` and then to `rec tail`
            tail = v.arg
            frames += ([f, tail], (tail, {}), f.arg)
            v = v.fun.arg
        if trace is not None and len(trace) < TRACE_CAP:
            path = tuple([0 if type(g) in _HOLE_AT_0 else 1 for g in frames[:depth]])
            focus = _readback(t, env) if evaluating else _term(v)
            trace.append(ReductionEvent(rule, path, _whole(frames, focus)))
    t = _whole(frames, _readback(t, env) if evaluating else _term(v))
    return Outcome(OutcomeKind.OUT_OF_FUEL if out_of_fuel else _classify(t), t, steps, trace)


def step_cbv(t: Term) -> Optional[ReductionEvent]:
    """The standard CBV step, or None for values, uncaught throws and
    stuck terms: the machine's first event."""
    trace = evaluate(t, fuel=1, keep_trace=True).trace
    return trace[0] if trace else None
