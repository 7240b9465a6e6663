"""Parallel reduction, compound contexts, and complete developments.

Everything here is untyped: the confluence results hold for arbitrary
well-formed terms, and the continuation side conditions (alpha not free
in the value) genuinely matter only there.  Side conditions written on
values are read as constraints on free *continuation* variables,
matching the reduction rules.

A compound context is a stack of the CBV machine's evaluation frames
(apply-to, applied-value, throw) around a throw; a throw can jump over a
whole such stack in one parallel step, which generalizes the throw rule.
Every other rule comes from the redex view in `reduction`: development
contracts it on developed slots, parallel reduction on every combination
of the slots' parallel reducts.  The complete development contracts every
redex at once and is the joinability witness: for any parallel reduct t'
of t, t' parallel-steps to the complete development of t.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .reduction import _THROW, Rule, contractum, enumerate_redexes, redex
from .syntax import App, Catch, Lam, Term, Throw, fcv


# ---------------------------------------------------------------------------
# Compound contexts


def throw_decompositions(t: Term) -> list[Throw]:
    """The throw in the hole of every decomposition of `t` as a compound
    context around a throw.

    The frame spine is unique (into a non-value function, into the
    argument under a value function, through throw payloads), so the
    throws are nested, ordered outermost first.
    """
    out: list[Throw] = []
    while True:
        match t:
            case App(fun, arg):
                t = arg if fun.value else fun
            case Throw(_, payload):
                out.append(t)
                t = payload
            case _:
                return out


def _view_redex(t: Term) -> Optional[tuple[Rule, tuple[Term, ...]]]:
    """The redex view of `t`, leaving the throw rule to compound contexts."""
    found = redex(t)
    return None if found is None or found[0] is _THROW else found


# ---------------------------------------------------------------------------
# Complete development


def complete_development(t: Term) -> Term:
    """Contract all redexes of `t` simultaneously (Takahashi's witness),
    looping down the argument of an App that is no redex and has no throw
    on its frame spine, so list length costs no host frame.  The frame
    spine is walked at most once per loop: under a value function it
    goes on in the argument, so the argument's is a suffix of it."""
    funs: list[Term] = []
    no_throw = False    # the frame spine of `t` is known to hold no throw
    while True:
        found = _view_redex(t)
        if found is not None:
            rule, slots = found
            t = contractum(rule, t, tuple(complete_development(s) for s in slots))
            break
        # a throw on the frame spine leaves its continuation free in `t`,
        # because the spine enters no catch
        if not no_throw and fcv(t):
            throws = throw_decompositions(t)
            if throws:
                # the largest context: its throw's payload is never a throw
                throw = throws[-1]
                t = Throw(throw.cont, complete_development(throw.payload))
                break
            no_throw = True
        match t:
            case App(fun, arg):
                funs.append(complete_development(fun))
                no_throw = no_throw and fun.value
                t = arg
                continue
            case Catch(cont, body):
                t = Catch(cont, complete_development(body))
            case Lam(param, annot, body):
                t = Lam(param, annot, complete_development(body))
        break
    for fun in reversed(funs):
        t = App(fun, t)
    return t


# ---------------------------------------------------------------------------
# Parallel reduction, by exhaustive enumeration


def parallel_reducts(t: Term) -> list[Term]:
    """The exact set of one-step parallel reducts of `t`, modulo alpha.

    Enumeration is exponential in the size of `t`.  The result is
    deterministic, deduplicated up to alpha by the terms' own `==` and
    `hash` (the first of each alpha class is kept), with `t` itself first
    (reflexivity).
    """
    return _preds(t)


def _preds(t: Term) -> list[Term]:
    def gen() -> Iterator[Term]:
        # congruence
        match t:
            case App(fun, arg):
                for f, a in product(_preds(fun), _preds(arg)):
                    yield App(f, a)
            case Catch(cont, body):
                for b in _preds(body):
                    yield Catch(cont, b)
            case Lam(param, annot, body):
                for b in _preds(body):
                    yield Lam(param, annot, b)
        # a root contraction on parallel reducts of its slots
        found = _view_redex(t)
        if found is not None:
            rule, slots = found
            for combo in product(*map(_preds, slots)):
                yield contractum(rule, t, combo)
        # a throw jumps over any compound context; the empty context is
        # the congruence for throw
        for throw in throw_decompositions(t):
            for p in _preds(throw.payload):
                yield Throw(throw.cont, p)

    match t:
        case App() | Throw() | Catch() | Lam():
            return list(dict.fromkeys(gen()))
    return [t]


# The most one-step reductions `reachable_by_reduction` looks at.
_REACH_BUDGET = 30000


def reachable_by_reduction(start: Term, target: Term) -> Optional[bool]:
    """Breadth-first check that `start` reduces to `target` in many steps:
    True once the search meets `target`, False once it has exhausted the
    reduction graph of `start`, and None, settling nothing, once it has
    looked at _REACH_BUDGET one-step reductions, which keeps the search of
    a divergent untyped graph finite.  Used to validate that parallel
    reducts are ordinary multi-step reducts.
    """
    if start == target:
        return True
    seen = {start}
    queue = [start]
    budget = _REACH_BUDGET
    # the queue grows as it is walked, so terms are met in breadth-first order
    for u in queue:
        for event in enumerate_redexes(u):
            if budget == 0:
                return None
            budget -= 1
            v = event.result
            if v == target:
                return True
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False
