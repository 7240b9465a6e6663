"""Abstract syntax of lambda-catch terms and types.

Terms are immutable trees.  `cons` and `lrec` are nullary constants, so a
cons cell is `App(App(ConsC(), h), t)` and a recursor application is three
nested `App`s; partially applied constants count as values.  Binding comes
in two disjoint namespaces: lambda binds term variables, catch binds
continuation variables.  All observable behaviour is defined up to
alpha-equivalence, and so are `==` and `hash` on terms.
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
    pass


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
    """Base class for lambda-catch terms: slotted, immutable nodes.

    Each node holds its fields and the memo slots listed under "Per-node
    memos" below; `value` says whether the node is a value.  Nodes compare
    up to alpha (`==` is `alpha_eq`) and hash by the memoized, name-free
    `_alpha_hash`, so a dict or set of terms dedupes alpha-variants and
    keeps the first one inserted.  `repr` stays structural and shows every
    name.  Assigning or deleting any attribute raises AttributeError.

    A node is built on its class's mutable twin (`_mutable_twin`) with plain
    attribute stores, its fields and its memos set to None, and is then
    frozen by assigning its public class to `__class__`; a caller never
    sees a twin.
    """

    __slots__ = ("_free_vars", "_alpha_hash", "_type")
    __match_args__: tuple[str, ...] = ()
    # Variables, constants and lambdas are values; Catch and Throw are
    # not, and App decides when it is built.
    value = True

    def __new__(cls):
        # the constants, which have no fields
        t = _new(_MUTABLE_CONSTANT[cls])
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = cls
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return alpha_eq(self, other)

    def __reduce__(self):
        # copy and pickle rebuild the node from the fields its
        # `__match_args__` names, memos cleared
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        # an App's argument spine in a loop, as App.__reduce__ walks it, so
        # a list of any length costs no host frame per cell; other fields
        # in a loop, not a generator, so a nested repr costs one frame a level
        parts = []
        t = self
        while type(t) is App:
            parts.append(f"App(fun={t.fun!r}, arg=")
            t = t.arg
        fields = []
        for name in t.__match_args__:
            fields.append(f"{name}={getattr(t, name)!r}")
        parts.append(f"{type(t).__name__}({', '.join(fields)})")
        parts.append(")" * (len(parts) - 1))
        return "".join(parts)


_new = object.__new__
# Memos are written once, after construction, through their slot descriptors.
_set_free_vars = Term._free_vars.__set__
_set_alpha_hash = Term._alpha_hash.__set__
_set_type = Term._type.__set__


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        t = _new(_MutableVar)
        t.name = name
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = Var
        return t


class UnitVal(Term):
    __slots__ = ()


class Nil(Term):
    __slots__ = ()


class ConsC(Term):
    """The list constructor as an unapplied constant."""

    __slots__ = ()


class LrecC(Term):
    """The list recursor as an unapplied constant."""

    __slots__ = ()


class Lam(Term):
    __slots__ = ("param", "annot", "body")
    __match_args__ = ("param", "annot", "body")

    def __new__(cls, param: str, annot: Optional[Type], body: Term):
        t = _new(_MutableLam)
        t.param = param
        t.annot = annot
        t.body = body
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = Lam
        return t


class App(Term):
    """An application.  It is a value iff its argument is and its function
    is cons or lrec, bare or applied to one value."""

    __slots__ = ("fun", "arg", "value")
    __match_args__ = ("fun", "arg")

    def __new__(cls, fun: Term, arg: Term):
        t = _new(_MutableApp)
        t.fun = fun
        t.arg = arg
        t.value = arg.value and (
            type(fun) in _PARTIAL or type(fun) is App and fun.value and type(fun.fun) in _PARTIAL)
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = App
        return t

    def __reduce__(self):
        # the argument spine in a loop, so a list of any length costs copy
        # and pickle no host frame per cell
        funs = []
        u = self
        while type(u) is App:
            funs.append(u.fun)
            u = u.arg
        return _rebuild_spine, (funs, u)


class Catch(Term):
    __slots__ = ("cont", "body")
    __match_args__ = ("cont", "body")
    value = False

    def __new__(cls, cont: str, body: Term):
        t = _new(_MutableCatch)
        t.cont = cont
        t.body = body
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = Catch
        return t


class Throw(Term):
    __slots__ = ("cont", "payload")
    __match_args__ = ("cont", "payload")
    value = False

    def __new__(cls, cont: str, payload: Term):
        t = _new(_MutableThrow)
        t.cont = cont
        t.payload = payload
        t._free_vars = t._alpha_hash = t._type = None
        t.__class__ = Throw
        return t


def _mutable_twin(cls: type) -> type:
    """The class a `cls` node is built on: a subclass that adds no slots, so
    it has `cls`'s layout and a node may move between the two by
    `__class__` assignment, and whose attribute stores are plain ones."""
    return type(f"_Mutable{cls.__name__}", (cls,), {
        "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__})


_MUTABLE_CONSTANT = {cls: _mutable_twin(cls) for cls in (UnitVal, Nil, ConsC, LrecC)}
_MutableVar, _MutableLam, _MutableApp, _MutableCatch, _MutableThrow = map(
    _mutable_twin, (Var, Lam, App, Catch, Throw))
# The constants that stay values when applied to up to two values.
_PARTIAL = (ConsC, LrecC)


UNIT = UnitVal()
CONS = ConsC()
LREC = LrecC()


def cons(head: Term, tail: Term) -> Term:
    return App(App(CONS, head), tail)


def is_cons_cell(t: Term) -> bool:
    """Whether `t` is a full cons cell `cons h t'`."""
    return type(t) is App and type(t.fun) is App and type(t.fun.fun) is ConsC


def numeral(n: int) -> Term:
    """suc^n zero, the numeral for `n` at type [1]: its `n` cells share one
    `cons ()` node, so each costs one App.  Each cell is built closed, with
    the shared empty VarSets as its `_free_vars`, and the root of `n >= 1`
    cells with the closed-term memo `infer` would store, `([1], 3n + 1)`,
    so no walk goes past a numeral's root.  The count: per cell, one
    metavariable for `cons`'s element type and one step at each of its two
    applications (each function type is a known arrow); plus one for nil."""
    if n < 0:
        raise ValueError("cannot encode a negative number")
    suc = App(CONS, UNIT)
    out: Term = Nil()
    for _ in range(n):
        t = _new(_MutableApp)
        t.fun = suc
        t.arg = out
        t.value = True
        t._free_vars = _EMPTY
        t._alpha_hash = t._type = None
        t.__class__ = App
        out = t
    if n:
        _set_type(out, (ListType(UNIT_TYPE), 3 * n + 1))
    return out


def _rebuild_spine(funs: list[Term], tail: Term) -> Term:
    """`funs[0] (funs[1] (... tail))`: an App spine as `App.__reduce__` gave it."""
    for fun in reversed(funs):
        tail = App(fun, tail)
    return tail


def lrec(base: Term, step: Term, lst: Term) -> Term:
    return App(App(App(LREC, base), step), lst)


def children(t: Term) -> tuple[Term, ...]:
    """Child subterms in path-index order (App: fun, arg; binders: body)."""
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg)
    if cls is Lam or cls is Catch:
        return (t.body,)
    if cls is Throw:
        return (t.payload,)
    return ()


def replace_child(t: Term, index: int, new: Term) -> Term:
    cls = type(t)
    if cls is App:
        if index == 0:
            return App(new, t.arg)
        if index == 1:
            return App(t.fun, new)
    elif index == 0:
        if cls is Lam:
            return Lam(t.param, t.annot, new)
        if cls is Catch:
            return Catch(t.cont, new)
        if cls is Throw:
            return Throw(t.cont, new)
    raise IndexError(f"no child {index} in {cls.__name__}")


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
# Per-node memos

# Terms are immutable and share subtrees heavily, so evaluation and the
# confluence checks revisit the same nodes many times.  Every node declares
# one slot per memo, and its class's `__new__` stores None in each, with
# plain stores on the mutable twin, before it freezes the node.  None means
# "not computed yet", and the first call computes the memo and writes it
# once through the slot's descriptor (`_set_free_vars`, `_set_alpha_hash`,
# `_set_type`), since the frozen node refuses plain stores.  Two builders
# store a memo at once, the value the first call would compute: `numeral`
# each cell's `_free_vars` and the root's `_type`, and the CBV machine the
# `_free_vars` of a value `c x` it builds from a closed value of `x`.  The
# memos:
#   _free_vars   free_vars
#   _alpha_hash  Term.__hash__: a structural hash that skips every name
#   _type        typecheck.infer: (type, metavariables its walk allocated)
#                of a term inferred closed; see typecheck's docstring
# Whether a node is a value needs no memo: `value` is a class constant,
# except on App, which computes it from its children when it is built.
# No memo may refer to the node that holds it, directly or through the
# terms it holds.  A dropped term and everything its memos hold are then
# freed by reference counting, without waiting for the cyclic collector.


# ---------------------------------------------------------------------------
# Free variables


@dataclass(frozen=True)
class VarSets:
    term_vars: frozenset[str]
    cont_vars: frozenset[str]


_EMPTY = VarSets(frozenset(), frozenset())


def free_vars(t: Term) -> VarSets:
    """The free term and continuation variables of `t`, memoized per node.
    A node whose sets equal a child's shares that child's VarSets.  It
    loops down an App's argument spine, so a list of any length costs no
    host frame per cell; only function positions and binder bodies recurse."""
    out = t._free_vars
    if out is not None:
        return out
    cls = type(t)
    if cls is App:
        spine = [t]
        u = t.arg
        while type(u) is App and u._free_vars is None:
            spine.append(u)
            u = u.arg
        a = free_vars(u)
        for u in reversed(spine):
            f = free_vars(u.fun)
            if a.term_vars <= f.term_vars and a.cont_vars <= f.cont_vars:
                a = f
            elif not (f.term_vars <= a.term_vars and f.cont_vars <= a.cont_vars):
                a = VarSets(f.term_vars | a.term_vars, f.cont_vars | a.cont_vars)
            _set_free_vars(u, a)
        return a
    if cls is Lam:
        out = free_vars(t.body)
        if t.param in out.term_vars:
            out = VarSets(out.term_vars - {t.param}, out.cont_vars)
    elif cls is Var:
        out = VarSets(frozenset((t.name,)), frozenset())
    elif cls is Catch:
        out = free_vars(t.body)
        if t.cont in out.cont_vars:
            out = VarSets(out.term_vars, out.cont_vars - {t.cont})
    elif cls is Throw:
        out = free_vars(t.payload)
        if t.cont not in out.cont_vars:
            out = VarSets(out.term_vars, out.cont_vars | {t.cont})
    elif cls in (UnitVal, Nil, ConsC, LrecC):
        out = _EMPTY
    else:
        raise ValueError(f"not a term: {t!r}")
    _set_free_vars(t, out)
    return out


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


def subst(t: Term, x: str, r: Term) -> Term:
    """Capture-avoiding substitution of `r` for the term variable `x` in `t`."""
    return _subst(t, x, r, free_vars(r))


def rename_cont_var(t: Term, old: str, new: str) -> Term:
    """Replace the free continuation variable `old` by `new`."""
    return _subst(t, old, new, VarSets(frozenset(), frozenset((new,))))


def _subst(u: Term, x: str, r: Term | str, r_free: VarSets) -> Term:
    """Replace the free `x` in `u`: a Term `r` replaces a term variable and
    a str `r` renames a continuation variable; `r_free` is what `r` holds
    free.  A lambda or catch binder that would capture a name of `r_free`
    is freshened first; a subtree without a free `x` is returned as it is.
    It loops down an App's argument spine while `x` is free in the
    argument, so a list of any length costs no host frame per cell.
    """
    renaming = type(r) is str
    if x not in (free_vars(u).cont_vars if renaming else free_vars(u).term_vars):
        return u
    cls = type(u)
    if cls is App:
        funs = []
        while True:
            funs.append(_subst(u.fun, x, r, r_free))
            u = u.arg
            if type(u) is not App or x not in (
                    free_vars(u).cont_vars if renaming else free_vars(u).term_vars):
                break
        out = _subst(u, x, r, r_free)
        for fun in reversed(funs):
            out = App(fun, out)
        return out
    if cls is Var:
        return r
    if cls is Lam:
        param, body = u.param, u.body
        if param in r_free.term_vars:
            param = fresh_name(param, r_free.term_vars | free_vars(body).term_vars)
            body = subst(body, u.param, Var(param))
        return Lam(param, u.annot, _subst(body, x, r, r_free))
    if cls is Catch:
        cont, body = u.cont, u.body
        if cont in r_free.cont_vars:
            cont = fresh_name(cont, r_free.cont_vars | free_vars(body).cont_vars)
            body = rename_cont_var(body, u.cont, cont)
        return Catch(cont, _subst(body, x, r, r_free))
    if cls is Throw:
        cont = u.cont
        return Throw(r if renaming and cont == x else cont, _subst(u.payload, x, r, r_free))
    raise ValueError(f"not a term: {u!r}")


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to consistent renaming of bound term/continuation variables.

    Binder annotations must either both be absent or both be present and
    structurally equal.
    """
    return t1 is t2 or _alpha_eq(t1, t2, {}, {}, {}, {}, 0)


def _alpha_eq(a, b, env1, env2, cenv1, cenv2, depth) -> bool:
    # loops into the last child (an App's argument, a binder's body)
    while True:
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is App:
            if not _alpha_eq(a.fun, b.fun, env1, env2, cenv1, cenv2, depth):
                return False
            a, b = a.arg, b.arg
        elif cls is Var:
            d1, d2 = env1.get(a.name), env2.get(b.name)
            return a.name == b.name if d1 is None and d2 is None else d1 == d2
        elif cls is Lam:
            if a.annot != b.annot:
                return False
            env1, env2 = {**env1, a.param: depth}, {**env2, b.param: depth}
            a, b, depth = a.body, b.body, depth + 1
        elif cls is Catch:
            cenv1, cenv2 = {**cenv1, a.cont: depth}, {**cenv2, b.cont: depth}
            a, b, depth = a.body, b.body, depth + 1
        elif cls is Throw:
            d1, d2 = cenv1.get(a.cont), cenv2.get(b.cont)
            if a.cont != b.cont if d1 is None and d2 is None else d1 != d2:
                return False
            a, b = a.payload, b.payload
        else:
            return cls in (UnitVal, Nil, ConsC, LrecC)


def canonical(t: Term) -> Term:
    """`t` itself: terms compare and hash up to alpha, so a term is its own
    key for deduplication modulo alpha."""
    return t


# The alpha hash of each leaf class, tags for the binders and Throw, and
# the tag hashed for a missing annotation.
_LEAF_HASH = {Var: 1, UnitVal: 2, Nil: 3, ConsC: 4, LrecC: 5}
_LAM, _CATCH, _THROW, _NO_ANNOT = 6, 7, 8, 9


def _alpha_hash(t: Term) -> int:
    """A structural hash of `t` that skips every name, bound or free, so
    alpha-equal terms share it; memoized per node.  It is `Term.__hash__`,
    and `alpha_eq` settles its collisions.  It hashes only ints, tuples
    and types, never a string or None (whose hash is its address before
    Python 3.12), so a term hashes the same in every process.  Like
    `free_vars`, it loops down an App's argument spine."""
    h = t._alpha_hash
    if h is None:
        cls = type(t)
        if cls is App:
            spine = [t]
            u = t.arg
            while type(u) is App and u._alpha_hash is None:
                spine.append(u)
                u = u.arg
            h = _alpha_hash(u)
            for u in reversed(spine):
                h = hash((_alpha_hash(u.fun), h))
                _set_alpha_hash(u, h)
            return h
        if cls is Lam:
            annot = _NO_ANNOT if t.annot is None else t.annot
            h = hash((_LAM, annot, _alpha_hash(t.body)))
        elif cls is Catch:
            h = hash((_CATCH, _alpha_hash(t.body)))
        elif cls is Throw:
            h = hash((_THROW, _alpha_hash(t.payload)))
        elif cls in _LEAF_HASH:
            h = _LEAF_HASH[cls]
        else:
            raise ValueError(f"not a term: {t!r}")
        _set_alpha_hash(t, h)
    return h


Term.__hash__ = _alpha_hash
