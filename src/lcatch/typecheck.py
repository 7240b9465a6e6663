"""Type checking and monomorphic inference.

`infer`, `check` and `derivable` share one pipeline.  `_constrain` walks
the term once, generating unification constraints and returning its
type: nil, cons, lrec and each unannotated binder get fresh
metavariables, catch extends the continuation environment, and throw
checks its payload against the bound continuation type and itself takes
any type.  On the way it lists the binder side conditions in preorder
(lambda domain, catch binder), so the first violation reported is the
outermost, leftmost one.  The solver is union-find over metavariables
with path compression.  After solving, each side condition is zonked
and checked once: its type must be solved, never defaulted, and a catch
binder must be arrow-free.  A throw payload needs no condition of its
own: its type is its continuation's, which is a catch binder's, checked
earlier in preorder, or a TypingEnv delta entry, ground and arrow-free
by construction.

Application.  `f a` is the constraint `f = a -> ?r` (Pottier & Remy,
"The Essence of ML Type Inference", 2005), solved at once.  When `f`'s
type is already an arrow whose codomain is not an unsolved
metavariable, the walk unifies the domain with `a`'s type and returns
the codomain, and only advances the metavariable counter by one, so
every later `?n` keeps its number.  This is exact: the full rule would
bind the fresh `?r`, which nothing else names, to that same codomain,
after the same unification of the domains.  Otherwise (`f`'s type is a
metavariable, or an arrow whose codomain is one) it allocates `?r` and
unifies, so an error prints `?r` where it did.

Argument spines.  A spine `f1 (f2 (... u))` is walked in one loop: each
function in order, then `u`, then the application rule at each level,
innermost first and at that level's path.  That is the order a recursive
walk takes, so every type, error, `?n` and memo count is its own, and a
nest of any depth in argument position, a list among them, costs no host
frame per level.  The loop stops at an argument that has a memo and
walks it as `u`.  `cons` is a constant with the scheme
`A -> [A] -> [A]`, so a list cell needs no rule of its own.

Closed-term memo.  When `infer` succeeds in the empty environment, it
stores on the term's node its solved type and the number of
metavariables its walk allocated (the syntax module's `_type` slot).
`_constrain` reads that slot before walking a node: on a hit it returns
the stored type and advances the metavariable counter by the stored
count, so every metavariable allocated afterwards, and every `?n` in an
error message, keeps its number.  This is exact.  A term that infers in
the empty environment is closed, its type is ground, and every
constraint and side condition inside it is solved and holds; its walk
never touches a metavariable from outside it, and its own metavariables
reach the context only through that ground type.  So in any context a
full walk would return the same type, raise nothing, and add only side
conditions that pass.  `check` and `derivable` never write the slot:
`check` accepts terms whose own type is not ground (`\\x. x` at
`[1] -> [1]`), and `derivable` grounds open metavariables at unit, so
neither result is the term's type in every context.  `surface.expand_defs`
shares each expanded definition by identity, so checking a program's
definitions in order types each definition once.  `syntax.numeral` builds
each numeral of `n >= 1` cells with this memo on its root: type `[1]` and
`3n + 1` metavariables, as its docstring derives them, so a numeral types
in O(1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .surface import print_type
from .syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, MetaVar, Nil, Term,
    Throw, Type, UNIT_TYPE, UnitType, UnitVal, Var, _set_type, type_has_meta,
)


def is_arrow_free(ty: Type) -> bool:
    """True iff no arrow occurs anywhere in the type."""
    match ty:
        case ArrowType():
            return False
        case ListType(elem):
            return is_arrow_free(elem)
        case MetaVar():
            raise ValueError("is_arrow_free applied to an unsolved metavariable")
    return True


class ErrorKind(enum.Enum):
    UNBOUND_VAR = "UnboundVar"
    UNBOUND_CONT_VAR = "UnboundContVar"
    MISMATCH = "Mismatch"
    NON_ARROW_FREE_CATCH = "NonArrowFreeCatch"
    AMBIGUOUS_TYPE = "AmbiguousType"
    OCCURS_CHECK = "OccursCheck"


class TypingError(Exception):
    """Type error with a kind tag, offending types, and an AST path."""

    def __init__(self, kind: ErrorKind, message: str,
                 expected: Optional[Type] = None, found: Optional[Type] = None,
                 path: tuple[int, ...] = ()):
        self.kind = kind
        self.expected = expected
        self.found = found
        self.path = path
        super().__init__(message)

    def render(self) -> str:
        loc = "/" + "/".join(map(str, self.path))
        return f"{self.kind.value} at {loc}: {self}"


@dataclass
class TypingEnv:
    """Term-variable typings (gamma) and continuation typings (delta).

    Every delta entry must be arrow-free; this is validated on
    construction.
    """

    gamma: dict[str, Type] = field(default_factory=dict)
    delta: dict[str, Type] = field(default_factory=dict)

    def __post_init__(self):
        for name, ty in self.delta.items():
            if not is_arrow_free(ty):
                raise ValueError(
                    f"continuation {name!r} bound at non-arrow-free type "
                    f"{print_type(ty)}")


# Where a node sits, as a linked list of child indices: None at the root,
# (where its parent sits, its index under the parent) below.  Going down
# one level costs one pair; `_path` builds the path tuple only for an error.
_Where = Optional[tuple["_Where", int]]


def _path(where: _Where) -> tuple[int, ...]:
    path = []
    while where is not None:
        where, index = where
        path.append(index)
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Unification


class _Solver:
    def __init__(self):
        self.assignments: dict[int, Type] = {}
        self.counter = 0

    def fresh(self) -> MetaVar:
        self.counter += 1
        return MetaVar(self.counter)

    def prune(self, ty: Type) -> Type:
        """What `ty` stands for; the metavariables on the way now point at it."""
        if type(ty) is not MetaVar:
            return ty
        chain = []
        while type(ty) is MetaVar and ty.ident in self.assignments:
            chain.append(ty.ident)
            ty = self.assignments[ty.ident]
        for ident in chain:
            self.assignments[ident] = ty
        return ty

    def zonk(self, ty: Type) -> Type:
        ty = self.prune(ty)
        cls = type(ty)
        if cls is ListType:
            new = self.zonk(ty.elem)
            return ty if new is ty.elem else ListType(new)
        if cls is ArrowType:
            dom, cod = self.zonk(ty.dom), self.zonk(ty.cod)
            return ty if dom is ty.dom and cod is ty.cod else ArrowType(dom, cod)
        return ty

    def ground(self, ty: Type) -> None:
        """Solve every metavariable still open in `ty` as the unit type."""
        ty = self.prune(ty)
        cls = type(ty)
        if cls is MetaVar:
            self.assignments[ty.ident] = UNIT_TYPE
        elif cls is ListType:
            self.ground(ty.elem)
        elif cls is ArrowType:
            self.ground(ty.dom)
            self.ground(ty.cod)

    def _occurs(self, ident: int, ty: Type) -> bool:
        cls = type(ty)
        if cls is MetaVar:
            ty = self.prune(ty)
            cls = type(ty)
        if cls is ArrowType:
            return self._occurs(ident, ty.dom) or self._occurs(ident, ty.cod)
        if cls is ListType:
            return self._occurs(ident, ty.elem)
        return cls is MetaVar and ty.ident == ident

    def unify(self, a: Type, b: Type, where: _Where) -> None:
        """Unify `a` with `b`, or raise a TypingError at the node `where`."""
        if type(a) is MetaVar:
            a = self.prune(a)
        if type(b) is MetaVar:
            b = self.prune(b)
        if a is b:
            return
        cls = type(a)
        if cls is MetaVar:
            if type(b) is MetaVar and b.ident == a.ident:
                return
            if self._occurs(a.ident, b):
                raise TypingError(ErrorKind.OCCURS_CHECK,
                                  f"occurs check: ?{a.ident} in {print_type(self.zonk(b))}",
                                  path=_path(where))
            self.assignments[a.ident] = b
            return
        if type(b) is MetaVar:
            self.unify(b, a, where)
            return
        if cls is type(b):
            if cls is ArrowType:
                self.unify(a.dom, b.dom, where)
                self.unify(a.cod, b.cod, where)
                return
            if cls is ListType:
                self.unify(a.elem, b.elem, where)
                return
            if cls is UnitType:
                return
        raise TypingError(
            ErrorKind.MISMATCH,
            f"expected {print_type(self.zonk(a))}, found {print_type(self.zonk(b))}",
            expected=self.zonk(a), found=self.zonk(b), path=_path(where))


# ---------------------------------------------------------------------------
# Inference

# Side conditions: what an unsolved type is called, and the error for an
# arrow in it (None: the result and a lambda domain may have one).
_RESULT = ("result type", None, None)
_LAM = ("binder type", None, None)
_CATCH = ("catch binder type", ErrorKind.NON_ARROW_FREE_CATCH, "catch bound at")


def _constrain(solver: _Solver, t: Term, gamma: dict[str, Type],
               delta: dict[str, Type], where: _Where, conds: list) -> Type:
    """The type of `t`, which sits at `where`; its constraints go to
    `solver`, its binder side conditions to `conds` in preorder."""
    memo = t._type
    if memo is not None:
        solver.counter += memo[1]
        return memo[0]
    cls = type(t)
    if cls is App:
        # the argument spine `f1 (f2 (... u))` in one loop; see "Argument
        # spines" in the docstring
        funs = []
        while True:
            funs.append(_constrain(solver, t.fun, gamma, delta, (where, 0), conds))
            t, where = t.arg, (where, 1)
            if type(t) is not App or t._type is not None:
                break
        ty = _constrain(solver, t, gamma, delta, where, conds)
        for f in reversed(funs):
            where = where[0]
            f = solver.prune(f)
            cod = solver.prune(f.cod) if type(f) is ArrowType else None
            if cod is None or type(cod) is MetaVar:
                cod = solver.fresh()
                solver.unify(f, ArrowType(ty, cod), where)
            else:
                # unifying f with `ty -> ?r` would only bind the fresh ?r to cod
                solver.unify(f.dom, ty, where)
                solver.counter += 1
            ty = cod
    elif cls is Var:
        ty = gamma.get(t.name)
        if ty is None:
            raise TypingError(ErrorKind.UNBOUND_VAR,
                              f"unbound variable {t.name!r}", path=_path(where))
    elif cls is Lam:
        dom = t.annot if t.annot is not None else solver.fresh()
        conds.append((_LAM, dom, where))
        ty = ArrowType(dom, _constrain(solver, t.body, {**gamma, t.param: dom}, delta,
                                       (where, 0), conds))
    elif cls is UnitVal:
        ty = UNIT_TYPE
    elif cls is Nil:
        ty = ListType(solver.fresh())
    elif cls is ConsC:
        elem = solver.fresh()
        lst = ListType(elem)
        ty = ArrowType(elem, ArrowType(lst, lst))
    elif cls is LrecC:
        res = solver.fresh()
        elem = solver.fresh()
        step = ArrowType(elem, ArrowType(ListType(elem), ArrowType(res, res)))
        ty = ArrowType(res, ArrowType(step, ArrowType(ListType(elem), res)))
    elif cls is Catch:
        ty = solver.fresh()
        conds.append((_CATCH, ty, where))
        inner = _constrain(solver, t.body, gamma, {**delta, t.cont: ty}, (where, 0), conds)
        solver.unify(ty, inner, where)
    elif cls is Throw:
        if t.cont not in delta:
            raise TypingError(ErrorKind.UNBOUND_CONT_VAR,
                              f"unbound continuation variable {t.cont!r}", path=_path(where))
        inner = _constrain(solver, t.payload, gamma, delta, (where, 0), conds)
        solver.unify(delta[t.cont], inner, where)
        ty = solver.fresh()
    else:
        raise ValueError(f"not a term: {t!r}")
    return ty


def _solve(solver: _Solver, env: TypingEnv, t: Term, expected: Optional[Type] = None, *,
           ground: bool = False) -> Type:
    """Constrain `t`, unify with `expected` (else the result type must be
    solved), check the side conditions (with `ground`, first solving their
    open metavariables as unit), and return the solved type of `t`."""
    conds: list = []
    ty = _constrain(solver, t, env.gamma, env.delta, None, conds)
    if expected is None:
        conds.insert(0, (_RESULT, ty, None))
    else:
        solver.unify(expected, ty, None)
    for (what, arrow_kind, arrow_what), cond_ty, where in conds:
        if ground:
            solver.ground(cond_ty)
        cond_ty = solver.zonk(cond_ty)
        if type_has_meta(cond_ty):
            raise TypingError(ErrorKind.AMBIGUOUS_TYPE,
                              f"unsolved {what} {print_type(cond_ty)}",
                              found=cond_ty, path=_path(where))
        if arrow_kind is not None and not is_arrow_free(cond_ty):
            raise TypingError(arrow_kind,
                              f"{arrow_what} non-arrow-free type {print_type(cond_ty)}",
                              found=cond_ty, path=_path(where))
    return solver.zonk(ty)


def infer(env: TypingEnv, t: Term) -> Type:
    """Infer the unique solved type of `t`, or raise TypingError."""
    solver = _Solver()
    ty = _solve(solver, env, t)
    if t._type is None and not env.gamma and not env.delta:
        _set_type(t, (ty, solver.counter))
    return ty


def check(env: TypingEnv, t: Term, ty: Type) -> None:
    """Check `t` against `ty` (which must contain no metavariables)."""
    if type_has_meta(ty):
        raise ValueError("check called with a metavariable in the expected type")
    _solve(_Solver(), env, t, ty)


def derivable(env: TypingEnv, t: Term, ty: Type) -> bool:
    """True iff the judgment `env |- t : ty` has a derivation.

    Unlike `check`, this accepts terms whose subterms keep unconstrained
    metavariables after solving (reduction can orphan a subterm's type,
    e.g. by discarding the context of a throw).  Leftover metavariables
    are unconstrained, so instantiating them at the unit type always
    satisfies the arrow-free side conditions; derivability is therefore
    exactly: constraints solve, and the instantiated binder checks pass.
    """
    try:
        _solve(_Solver(), env, t, ty, ground=True)
    except TypingError:
        return False
    return True
