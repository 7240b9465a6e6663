"""Parallel reduction, compound contexts, and complete developments.

Everything here is untyped: the confluence results hold for arbitrary
well-formed terms, and the continuation side conditions (alpha not free
in the value) genuinely matter only there.  Side conditions written on
values are read as constraints on free *continuation* variables,
matching the reduction rules.

A compound context is a stack of the CBV machine's evaluation frames
(apply-to, applied-value, throw); a throw can jump over a whole such
stack in one parallel step, which generalizes the throw rule.  Every
other rule comes from the redex view in `reduction`: development
contracts it on developed slots, parallel reduction on every combination
of the slots' parallel reducts.  The complete development contracts every
redex at once and is the joinability witness: for any parallel reduct t'
of t, t' parallel-steps to the complete development of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .reduction import Frame, Rule, _plug, contractum, enumerate_redexes, redex
from .syntax import (
    App, Catch, Lam, Term, Throw, alpha_eq, canonical, size,
)


class BudgetExceeded(Exception):
    """Raised when a term is too large for exhaustive reduct enumeration."""


DEFAULT_NODE_BUDGET = 14


# ---------------------------------------------------------------------------
# Compound contexts


@dataclass(frozen=True)
class CompoundContextView:
    """A decomposition t = frames[subject], with subject a throw."""

    frames: tuple[Frame, ...]
    hole_subject: Throw

    def reassemble(self) -> Term:
        return _plug(self.frames, self.hole_subject)


def throw_decompositions(t: Term) -> list[CompoundContextView]:
    """Every decomposition of `t` as a compound context around a throw.

    The frame spine is unique (into a non-value function, into the
    argument under a value function, through throw payloads), so the
    results are nested, ordered outermost first.
    """
    out: list[CompoundContextView] = []
    frames: list[Frame] = []
    while True:
        match t:
            case App(fun, arg):
                if fun.value:
                    frames.append((1, t))
                    t = arg
                else:
                    frames.append((0, t))
                    t = fun
            case Throw(_, payload):
                out.append(CompoundContextView(tuple(frames), t))
                frames.append((0, t))
                t = payload
            case _:
                return out


def _maximal_decomposition(t: Term) -> Optional[CompoundContextView]:
    """The decomposition with the largest context; its payload is never a throw."""
    views = throw_decompositions(t)
    return views[-1] if views else None


def _view_redex(t: Term) -> Optional[tuple[Rule, tuple[Term, ...]]]:
    """The redex view of `t`, leaving the throw rule to compound contexts."""
    found = redex(t)
    return None if found is None or found[0] is Rule.THROW else found


# ---------------------------------------------------------------------------
# Complete development


def complete_development(t: Term) -> Term:
    """Contract all redexes of `t` simultaneously (Takahashi's witness)."""
    found = _view_redex(t)
    if found is not None:
        rule, slots = found
        return contractum(rule, t, tuple(complete_development(s) for s in slots))
    view = _maximal_decomposition(t)
    if view is not None:
        throw = view.hole_subject
        return Throw(throw.cont, complete_development(throw.payload))
    match t:
        case App(fun, arg):
            return App(complete_development(fun), complete_development(arg))
        case Catch(cont, body):
            return Catch(cont, complete_development(body))
        case Lam(param, annot, body):
            return Lam(param, annot, complete_development(body))
    return t


# ---------------------------------------------------------------------------
# Parallel reduction, by exhaustive enumeration


def parallel_reducts(t: Term, node_budget: int = DEFAULT_NODE_BUDGET) -> list[Term]:
    """The exact set of one-step parallel reducts of `t`, modulo alpha.

    Enumeration is exponential; inputs larger than `node_budget` raise
    BudgetExceeded.  The result is deterministic, deduplicated via
    canonical renaming, with `t` itself first (reflexivity).
    """
    if size(t) > node_budget:
        raise BudgetExceeded(f"term has {size(t)} nodes, budget {node_budget}")
    return _preds(t)


def _dedup(terms: Iterator[Term]) -> list[Term]:
    seen: dict[Term, Term] = {}
    for u in terms:
        key = canonical(u)
        if key not in seen:
            seen[key] = u
    return list(seen.values())


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
        for view in throw_decompositions(t):
            throw = view.hole_subject
            for p in _preds(throw.payload):
                yield Throw(throw.cont, p)

    match t:
        case App() | Throw() | Catch() | Lam():
            return _dedup(gen())
    return [t]


def is_parallel_step(s: Term, t: Term,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff `t` is a one-step parallel reduct of `s`, modulo alpha."""
    key = canonical(t)
    return any(canonical(u) == key for u in parallel_reducts(s, node_budget))


@dataclass(frozen=True)
class ParallelStep:
    """A claimed simultaneous-contraction step from `source` to `target`."""

    source: Term
    target: Term

    def valid(self, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
        return is_parallel_step(self.source, self.target, node_budget)


def join(t1: Term, t2: Term, max_rounds: int = 16,
         node_budget: Optional[int] = None) -> Optional[Term]:
    """Search for a common reduct by developing both sides in lockstep.

    Compares the two sides modulo alpha after each round of complete
    development.  `node_budget`, when given, bounds the size of the
    developed terms; exceeding it ends the search.  None means the search
    was exhausted, not that no common reduct exists.
    """
    a, b = t1, t2
    for _ in range(max_rounds + 1):
        if alpha_eq(a, b):
            return a
        if node_budget is not None and (size(a) > node_budget or size(b) > node_budget):
            return None
        a = complete_development(a)
        b = complete_development(b)
    return None


def reachable_by_reduction(start: Term, target: Term, max_depth: int = 30,
                           max_explored: int = 30000,
                           max_size: int = 400) -> bool:
    """Breadth-first check that `start` reduces to `target` in many steps.

    Used to validate that parallel reducts are ordinary multi-step
    reducts; the caps keep exploration of divergent untyped graphs
    finite and are generous for budget-sized inputs.
    """
    target_key = canonical(target)
    frontier = [start]
    seen = {canonical(start)}
    if canonical(start) == target_key:
        return True
    explored = 0
    for _ in range(max_depth):
        next_frontier: list[Term] = []
        for u in frontier:
            for event in enumerate_redexes(u):
                explored += 1
                if explored > max_explored:
                    return False
                v = event.result
                key = canonical(v)
                if key == target_key:
                    return True
                if key in seen or size(v) > max_size:
                    continue
                seen.add(key)
                next_frontier.append(v)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False
