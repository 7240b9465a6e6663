"""Abstract syntax of lambda-catch terms and types.

Terms are immutable trees.  `cons` and `lrec` are nullary constants, so a
cons cell is `App(App(ConsC(), h), t)` and a recursor application is three
nested `App`s; partially applied constants count as values.  Binding comes
in two disjoint namespaces: lambda binds term variables, catch binds
continuation variables.  All observable behaviour is defined up to
alpha-equivalence; structural `==` is intentionally name-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


# ---------------------------------------------------------------------------
# Types


class Type:
    """Base class for object-language types."""

    __match_args__ = ()


@dataclass(frozen=True)
class UnitType(Type):
    def __repr__(self) -> str:
        return "UnitType()"


@dataclass(frozen=True)
class ListType(Type):
    elem: Type


@dataclass(frozen=True)
class ArrowType(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True)
class MetaVar(Type):
    """Unification placeholder; never appears in a checked result."""

    ident: int


UNIT_TYPE = UnitType()


def type_has_meta(ty: Type) -> bool:
    match ty:
        case MetaVar():
            return True
        case ListType(elem):
            return type_has_meta(elem)
        case ArrowType(dom, cod):
            return type_has_meta(dom) or type_has_meta(cod)
    return False


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class for lambda-catch terms."""

    __match_args__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class UnitVal(Term):
    pass


@dataclass(frozen=True)
class Nil(Term):
    pass


@dataclass(frozen=True)
class ConsC(Term):
    """The list constructor as an unapplied constant."""


@dataclass(frozen=True)
class LrecC(Term):
    """The list recursor as an unapplied constant."""


@dataclass(frozen=True)
class Lam(Term):
    param: str
    annot: Optional[Type]
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Catch(Term):
    cont: str
    body: Term


@dataclass(frozen=True)
class Throw(Term):
    cont: str
    payload: Term


UNIT = UnitVal()
CONS = ConsC()
LREC = LrecC()


def cons(head: Term, tail: Term) -> Term:
    return App(App(CONS, head), tail)


def lrec(base: Term, step: Term, lst: Term) -> Term:
    return App(App(App(LREC, base), step), lst)


def children(t: Term) -> tuple[Term, ...]:
    """Child subterms in path-index order (App: fun, arg; binders: body)."""
    match t:
        case App(fun, arg):
            return (fun, arg)
        case Lam(_, _, body):
            return (body,)
        case Catch(_, body):
            return (body,)
        case Throw(_, payload):
            return (payload,)
    return ()


def replace_child(t: Term, index: int, new: Term) -> Term:
    match t, index:
        case App(_, arg), 0:
            return App(new, arg)
        case App(fun, _), 1:
            return App(fun, new)
        case Lam(param, annot, _), 0:
            return Lam(param, annot, new)
        case Catch(cont, _), 0:
            return Catch(cont, new)
        case Throw(cont, _), 0:
            return Throw(cont, new)
    raise IndexError(f"no child {index} in {type(t).__name__}")


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    head, rest = path[0], path[1:]
    return replace_child(t, head, replace_at(children(t)[head], rest, new))


# ---------------------------------------------------------------------------
# Values

# is_value and free_vars memoize per node (terms are immutable and share
# subtrees heavily, so evaluation revisits the same nodes many times).


def is_value(t: Term) -> bool:
    cached = t.__dict__.get("_is_value")
    if cached is not None:
        return cached
    match t:
        case Var() | UnitVal() | Nil() | ConsC() | LrecC() | Lam():
            out = True
        case App(ConsC(), a):
            out = is_value(a)
        case App(App(ConsC(), a), b):
            out = is_value(a) and is_value(b)
        case App(LrecC(), a):
            out = is_value(a)
        case App(App(LrecC(), a), b):
            out = is_value(a) and is_value(b)
        case _:
            out = False
    object.__setattr__(t, "_is_value", out)
    return out


# ---------------------------------------------------------------------------
# Free variables


@dataclass(frozen=True)
class VarSets:
    term_vars: frozenset[str]
    cont_vars: frozenset[str]


_EMPTY = VarSets(frozenset(), frozenset())


def free_vars(t: Term) -> VarSets:
    cached = t.__dict__.get("_free_vars")
    if cached is not None:
        return cached
    match t:
        case Var(name):
            out = VarSets(frozenset((name,)), frozenset())
        case UnitVal() | Nil() | ConsC() | LrecC():
            out = _EMPTY
        case Lam(param, _, body):
            sub = free_vars(body)
            out = VarSets(sub.term_vars - {param}, sub.cont_vars)
        case App(fun, arg):
            f, a = free_vars(fun), free_vars(arg)
            out = VarSets(f.term_vars | a.term_vars, f.cont_vars | a.cont_vars)
        case Catch(cont, body):
            sub = free_vars(body)
            out = VarSets(sub.term_vars, sub.cont_vars - {cont})
        case Throw(cont, payload):
            sub = free_vars(payload)
            out = VarSets(sub.term_vars, sub.cont_vars | {cont})
        case _:
            raise ValueError(f"not a term: {t!r}")
    object.__setattr__(t, "_free_vars", out)
    return out


def fv(t: Term) -> frozenset[str]:
    return free_vars(t).term_vars


def fcv(t: Term) -> frozenset[str]:
    return free_vars(t).cont_vars


def size(t: Term) -> int:
    """Number of AST nodes (constants, variables, binders, applications)."""
    total = 0
    stack = [t]
    while stack:
        u = stack.pop()
        total += 1
        stack.extend(children(u))
    return total


# ---------------------------------------------------------------------------
# Fresh names and substitution


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Deterministic counter-suffixed name not in `avoid`."""
    stem = base.rstrip("0123456789") or "x"
    n = 1
    while f"{stem}{n}" in avoid:
        n += 1
    return f"{stem}{n}"


def rename_term_var(t: Term, old: str, new: str) -> Term:
    return subst(t, old, Var(new))


def rename_cont_var(t: Term, old: str, new: str) -> Term:
    """Replace free continuation variable `old` by `new` (new must be fresh)."""
    match t:
        case Var() | UnitVal() | Nil() | ConsC() | LrecC():
            return t
        case Lam(param, annot, body):
            return Lam(param, annot, rename_cont_var(body, old, new))
        case App(fun, arg):
            return App(rename_cont_var(fun, old, new), rename_cont_var(arg, old, new))
        case Catch(cont, body):
            if cont == old:
                return t
            return Catch(cont, rename_cont_var(body, old, new))
        case Throw(cont, payload):
            return Throw(new if cont == old else cont, rename_cont_var(payload, old, new))
    raise ValueError(f"not a term: {t!r}")


def subst(t: Term, x: str, r: Term) -> Term:
    """Capture-avoiding substitution of `r` for the term variable `x` in `t`.

    Both lambda and catch binders are freshened when they would capture a
    free (term or continuation) variable of `r`.
    """
    r_free = free_vars(r)

    def go(u: Term) -> Term:
        if x not in free_vars(u).term_vars:
            return u
        match u:
            case Var(name):
                return r if name == x else u
            case Lam(param, annot, body):
                if param == x:
                    return u
                if param in r_free.term_vars:
                    avoid = r_free.term_vars | free_vars(body).term_vars | {x}
                    param2 = fresh_name(param, avoid)
                    body = rename_term_var(body, param, param2)
                    param = param2
                return Lam(param, annot, go(body))
            case App(fun, arg):
                return App(go(fun), go(arg))
            case Catch(cont, body):
                if cont in r_free.cont_vars:
                    avoid = r_free.cont_vars | free_vars(body).cont_vars
                    cont2 = fresh_name(cont, avoid)
                    body = rename_cont_var(body, cont, cont2)
                    cont = cont2
                return Catch(cont, go(body))
            case Throw(cont, payload):
                return Throw(cont, go(payload))
        raise ValueError(f"not a term: {u!r}")

    return go(t)


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound term/continuation variables.

    Binder annotations must either both be absent or both be present and
    structurally equal.
    """

    def go(a, b, env1, env2, cenv1, cenv2, depth):
        match a, b:
            case Var(n1), Var(n2):
                d1, d2 = env1.get(n1), env2.get(n2)
                if d1 is None and d2 is None:
                    return n1 == n2
                return d1 == d2
            case UnitVal(), UnitVal():
                return True
            case Nil(), Nil():
                return True
            case ConsC(), ConsC():
                return True
            case LrecC(), LrecC():
                return True
            case Lam(p1, a1, b1), Lam(p2, a2, b2):
                if (a1 is None) != (a2 is None):
                    return False
                if a1 is not None and a1 != a2:
                    return False
                return go(b1, b2, {**env1, p1: depth}, {**env2, p2: depth},
                          cenv1, cenv2, depth + 1)
            case App(f1, x1), App(f2, x2):
                return (go(f1, f2, env1, env2, cenv1, cenv2, depth)
                        and go(x1, x2, env1, env2, cenv1, cenv2, depth))
            case Catch(c1, b1), Catch(c2, b2):
                return go(b1, b2, env1, env2,
                          {**cenv1, c1: depth}, {**cenv2, c2: depth}, depth + 1)
            case Throw(c1, p1), Throw(c2, p2):
                d1, d2 = cenv1.get(c1), cenv2.get(c2)
                if d1 is None and d2 is None:
                    if c1 != c2:
                        return False
                elif d1 != d2:
                    return False
                return go(p1, p2, env1, env2, cenv1, cenv2, depth)
        return False

    return t1 is t2 or go(t1, t2, {}, {}, {}, {}, 0)


def canonical(t: Term) -> Term:
    """Rename binders to a fixed scheme so alpha-equal terms become equal.

    Used as a dictionary key for deduplication; not part of the public
    term representation.
    """
    counter = [0]

    def go(u, env, cenv):
        match u:
            case Var(name):
                return Var(env.get(name, name))
            case UnitVal() | Nil() | ConsC() | LrecC():
                return u
            case Lam(param, annot, body):
                counter[0] += 1
                new = f"!x{counter[0]}"
                return Lam(new, annot, go(body, {**env, param: new}, cenv))
            case App(fun, arg):
                return App(go(fun, env, cenv), go(arg, env, cenv))
            case Catch(cont, body):
                counter[0] += 1
                new = f"!k{counter[0]}"
                return Catch(new, go(body, env, {**cenv, cont: new}))
            case Throw(cont, payload):
                return Throw(cenv.get(cont, cont), go(payload, env, cenv))
        raise ValueError(f"not a term: {u!r}")

    return go(t, {}, {})
