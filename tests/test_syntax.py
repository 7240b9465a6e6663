import copy
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional

import pytest

from lcatch import syntax
from lcatch.confluence import complete_development
from lcatch.metatheory import GenConfig, _draw_untyped, _gen_untyped, gen_term
from lcatch.prelude import prelude_defs
from lcatch.reduction import Rule, contractum, enumerate_redexes, redex
from lcatch.surface import parse_term
from lcatch.syntax import (
    App, Catch, ConsC, Lam, LrecC, Nil, Term, Throw, Type, UNIT, UnitVal, Var, VarSets,
    alpha_eq, canonical, children, cons, fcv, free_vars, fresh_name, is_cons_cell, lrec,
    numeral, rename_cont_var, replace_child, size, subst,
)

p = parse_term


def identical(a, b):
    """Equality that pins every name, bound ones included: `==` on terms is
    alpha-equivalence, while this compares each node's class and fields as
    built, as `repr` shows them.  Terms, tuples, lists and dataclasses are
    compared part by part from a work list, so an argument spine or any
    other nest costs no host frame, and a node both sides share is passed
    over at once; any other value, an enum member included, by `==`."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if isinstance(a, Term):
            names = cls.__match_args__
        elif cls is tuple or cls is list:
            if len(a) != len(b):
                return False
            todo += zip(a, b)
            continue
        elif is_dataclass(a):
            names = [f.name for f in fields(a)]
        elif a != b:
            return False
        else:
            continue
        todo += [(getattr(a, name), getattr(b, name)) for name in names]
    return True


def deep(test):
    """Mark a test that walks a term nested far past the recursion limit: a
    RecursionError out of it fails the test with a one-line message, since
    pytest's own report of a deep one compares the frames' terms by `==`
    and can run for minutes."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        overflowed = False
        try:
            test(*args, **kwargs)
        except RecursionError:
            overflowed = True
        if overflowed:
            pytest.fail(f"{test.__name__} raised RecursionError", pytrace=False)
    return run


def draw(seed, max_size, typed=True):
    """The typed draw of `gen_term`, or the untyped one of the confluence
    properties, for one seed."""
    cfg = GenConfig(seed=seed, max_size=max_size)
    return gen_term(cfg) if typed else _draw_untyped(random.Random(seed), cfg)


# ------------- value -------------


def test_lambda_is_value():
    assert p("\\x. x").value


def test_applied_cons_is_value():
    # cons applied to one or two values stays a value
    assert App(App(p("cons"), UNIT), Nil()).value
    assert App(p("cons"), UNIT).value


def test_throw_is_not_value():
    assert not Throw("a", UNIT).value


def test_fully_applied_lrec_is_not_value():
    assert not p("lrec () (\\x. x) []").value


def test_partially_applied_lrec_is_value():
    assert p("lrec ()").value
    assert p("lrec () (\\x. x)").value


def test_cons_of_non_value_is_not_value():
    assert not cons(Throw("a", UNIT), Nil()).value


# ------------- nodes against the dataclass oracle -------------
# The term classes as frozen dataclasses, with the pattern-match is_value:
# the representation the slotted nodes replaced.  Each class takes the
# name of the node it models, so that its repr is the one nodes must print.


class OTerm:
    __match_args__ = ()


@dataclass(frozen=True)
class OVar(OTerm):
    __qualname__ = "Var"
    name: str


@dataclass(frozen=True)
class OUnitVal(OTerm):
    __qualname__ = "UnitVal"


@dataclass(frozen=True)
class ONil(OTerm):
    __qualname__ = "Nil"


@dataclass(frozen=True)
class OConsC(OTerm):
    __qualname__ = "ConsC"


@dataclass(frozen=True)
class OLrecC(OTerm):
    __qualname__ = "LrecC"


@dataclass(frozen=True)
class OLam(OTerm):
    __qualname__ = "Lam"
    param: str
    annot: Optional[Type]
    body: OTerm


@dataclass(frozen=True)
class OApp(OTerm):
    __qualname__ = "App"
    fun: OTerm
    arg: OTerm


@dataclass(frozen=True)
class OCatch(OTerm):
    __qualname__ = "Catch"
    cont: str
    body: OTerm


@dataclass(frozen=True)
class OThrow(OTerm):
    __qualname__ = "Throw"
    cont: str
    payload: OTerm


def oracle_is_value(t):
    match t:
        case OVar() | OUnitVal() | ONil() | OConsC() | OLrecC() | OLam():
            return True
        case OApp(OConsC(), a):
            return oracle_is_value(a)
        case OApp(OApp(OConsC(), a), b):
            return oracle_is_value(a) and oracle_is_value(b)
        case OApp(OLrecC(), a):
            return oracle_is_value(a)
        case OApp(OApp(OLrecC(), a), b):
            return oracle_is_value(a) and oracle_is_value(b)
    return False


_ORACLE_CLASS = {Var: OVar, UnitVal: OUnitVal, Nil: ONil, ConsC: OConsC, LrecC: OLrecC,
                 Lam: OLam, App: OApp, Catch: OCatch, Throw: OThrow}


def to_oracle(t):
    fields = [getattr(t, name) for name in t.__match_args__]
    return _ORACLE_CLASS[type(t)](*(to_oracle(f) if isinstance(f, Term) else f for f in fields))


def _subterms(t):
    stack, out = [t], []
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(children(u))
    return out


def _node_groups():
    """A generated term, typed or untyped, with its one-step reducts and
    its complete development."""
    rng = random.Random(23)
    for seed in range(150):
        for max_size in (8, 14, 20):
            for typed in (True, False):
                if typed:
                    t = gen_term(GenConfig(seed=seed, max_size=max_size))
                else:
                    t = _gen_untyped(rng, max_size, 0)
                yield [t, complete_development(t)] + [e.result for e in enumerate_redexes(t)]


def test_nodes_agree_with_the_dataclass_oracle():
    # `repr` and the value flag are structural, as on the oracle; `==` is
    # the oracle's alpha classes: dataclass equality of the `!`-renamed
    # forms; and equal terms hash equal
    checked = values = equal_pairs = 0
    for group in _node_groups():
        subterms = {id(u): u for t in group for u in _subterms(t)}.values()
        pairs = [(u, to_oracle(oracle_canonical(u))) for u in subterms]
        for u, _ in pairs:
            o = to_oracle(u)
            assert u.value is oracle_is_value(o)
            assert repr(u) == repr(o)
            values += u.value
        # equality on every pair of subterms of one size: the pairs that
        # can be equal, and the near misses between them
        by_size = {}
        for u, o in pairs:
            by_size.setdefault(size(u), []).append((u, o))
        for same_size in by_size.values():
            for u, o in same_size:
                for v, ov in same_size:
                    assert (u == v) is (o == ov)
                    assert (u != v) is (o != ov)
                    if u == v:
                        assert hash(u) == hash(v)
                        equal_pairs += u is not v and repr(u) != repr(v)
        checked += len(pairs)
    assert checked > 10000 and 0 < values < checked and equal_pairs > 0


def test_nodes_are_immutable_and_have_no_dict():
    for group in _node_groups():
        for u in {id(u): u for t in group for u in _subterms(t)}.values():
            assert not hasattr(u, "__dict__")
            for name in u.__match_args__ + Term.__slots__ + ("value", "fresh"):
                with pytest.raises(AttributeError):
                    setattr(u, name, UNIT)
                with pytest.raises(AttributeError):
                    delattr(u, name)


def test_nodes_copy_and_pickle():
    for group in _node_groups():
        for t in group:
            hash(t)
            for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert identical(other, t) and hash(other) == hash(t) and other.value is t.value


NODE_CLASSES = (Var, UnitVal, Nil, ConsC, LrecC, Lam, App, Catch, Throw)


def _check_built(result, *inputs):
    """Every node of `result` is of a public class, never a mutable twin,
    and each node that is not one of `inputs`' or a shared constant holds
    no memo, save the cells `numeral` builds: each holds the shared empty
    VarSets as `_free_vars`, and the root alone holds `_type`, the `[1]`
    and `3n + 1` metavariables that `infer` stores for `n` cells.  Returns
    how many nodes were new."""
    old = {id(u) for t in (*inputs, UNIT, syntax.CONS, syntax.LREC) for u in _subterms(t)}
    new = 0
    tails = set()
    # in preorder, so a numeral's root comes before its tails
    for u in _subterms(result):
        assert type(u) in NODE_CLASSES, type(u)
        if id(u) in old:
            continue
        new += 1
        if u._free_vars is None:
            assert (u._alpha_hash, u._type) == (None, None), u
            continue
        funs, tail = _spine_funs(u)
        assert u._free_vars is syntax._EMPTY and u._alpha_hash is None, u
        assert type(tail) is Nil and all(fun is funs[0] for fun in funs), u
        assert type(funs[0].fun) is ConsC and type(funs[0].arg) is UnitVal, u
        if id(u) in tails:
            assert u._type is None, u
        else:
            assert u._type == (syntax.ListType(syntax.UNIT_TYPE), 3 * len(funs) + 1), u
        tails.add(id(u.arg))
    return new


def test_built_nodes_are_public_and_memo_free():
    leaves = [Var("x"), UnitVal(), Nil(), ConsC(), LrecC()]
    direct = leaves + [Lam("x", None, Var("x")), App(ConsC(), UnitVal()),
                       Catch("a", UnitVal()), Throw("a", Nil())]
    assert {type(t) for t in direct} == set(NODE_CLASSES)
    built = direct + [numeral(3), p("\\x: [1]. catch a. lrec () (\\h. h) [x, #2, throw a ()]")]
    for t in built:
        assert _check_built(t) > 0
    # the inputs' memos are filled, so a rebuilt node shows if it kept one
    t = p("\\y. catch a. throw a (cons (\\z. y z) [y])")
    hash(t), fcv(t)
    for u in _subterms(t):
        for i, child in enumerate(children(u)):
            assert _check_built(replace_child(u, i, Nil()), u) == 2
    r = p("\\w. w")
    assert _check_built(subst(t.body, "y", r), t, r) > 0
    t = p("throw a (throw a ())")
    assert _check_built(rename_cont_var(t, "a", "b"), t) == 2
    rules = set()
    for src in ("(\\x. cons x x) ()", "lrec () s []", "lrec () (\\h. h) [()]",
                "catch a. throw a ()", "catch a. throw b ()", "catch a. \\x. x",
                "(throw a ()) ()", "() (throw a ())", "throw b (throw a ())"):
        t = p(src)
        rule, slots = redex(t)
        rules.add(rule)
        _check_built(contractum(rule, t, slots), t)
    assert rules == set(Rule)
    for t in built:
        hash(t), fcv(t)
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            _check_built(other, *children(t))


def test_hashes_are_the_same_in_every_process():
    # names are skipped and a missing annotation hashes a fixed tag, so no
    # hash depends on an address or on the string hash seed
    script = ("from lcatch.prelude import prelude_defs\n"
              "from lcatch.surface import parse_term\n"
              "terms = [t for _, t in prelude_defs()] + [parse_term('\\\\x. x')]\n"
              "print([hash(t) for t in terms])\n")
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(syntax.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout)
    here = [hash(t) for _, t in prelude_defs()] + [hash(p("\\x. x"))]
    assert outputs[0] == outputs[1] == f"{here}\n"


def test_app_value_flag_follows_its_children():
    v, w = p("\\x. x"), Throw("a", UNIT)
    assert App(ConsC(), v).value and App(App(LrecC(), v), v).value
    assert not App(App(App(LrecC(), v), v), Nil()).value
    assert not App(App(ConsC(), w), Nil()).value and not App(ConsC(), w).value
    assert not App(v, v).value and not App(App(v, v), v).value


# ------------- free variables -------------


def test_free_vars_of_lambda():
    vs = free_vars(p("\\x. x y"))
    assert vs.term_vars == {"y"}
    assert vs.cont_vars == set()


def test_catch_binds_continuation():
    vs = free_vars(p("catch a. throw a ()"))
    assert vs.term_vars == set()
    assert vs.cont_vars == set()


def test_throw_frees_continuation_and_payload():
    vs = free_vars(p("throw a x"))
    assert vs.term_vars == {"x"}
    assert vs.cont_vars == {"a"}


def test_free_vars_share_sets_that_do_not_change():
    # constants share one empty VarSets; a node whose sets equal a child's
    # shares that child's
    assert free_vars(UNIT) is free_vars(Nil()) is free_vars(ConsC())
    y, throw = Var("y"), Throw("a", Var("y"))
    assert free_vars(Lam("x", None, y)) is free_vars(y)
    assert free_vars(Catch("b", throw)) is free_vars(throw)
    assert free_vars(Throw("a", throw)) is free_vars(throw)
    assert free_vars(App(throw, y)) is free_vars(throw)
    assert free_vars(App(UNIT, throw)) is free_vars(throw)
    assert free_vars(App(Var("x"), y)) == VarSets(frozenset("xy"), frozenset())
    assert free_vars(Lam("y", None, y)).term_vars == set()
    assert free_vars(Catch("a", throw)) == VarSets(frozenset("y"), frozenset())


# ------------- substitution -------------


def test_subst_variable():
    assert subst(Var("x"), "x", UNIT) == UNIT


def test_subst_avoids_term_capture():
    out = subst(p("\\y. x y"), "x", Var("y"))
    # the binder must be renamed so the free y survives
    assert alpha_eq(out, p("\\z. y z"))
    assert "y" in free_vars(out).term_vars


def test_subst_avoids_continuation_capture():
    out = subst(p("catch a. throw a x"), "x", p("throw a ()"))
    assert "a" in fcv(out)
    assert alpha_eq(out, p("catch b. throw b throw a ()"))


def test_subst_under_catch():
    out = subst(p("catch a. throw a x"), "x", Nil())
    assert alpha_eq(out, p("catch a. throw a []"))


def test_subst_shadowed_binder_is_untouched():
    t = p("\\x. x")
    assert identical(subst(t, "x", UNIT), t)


def test_subst_removes_the_variable():
    rng = random.Random(11)
    for _ in range(200):
        t = _gen_untyped(rng, 12, 0)
        out = subst(t, "x", UNIT)
        assert "x" not in free_vars(out).term_vars


def test_subst_value_into_value_is_value():
    rng = random.Random(12)
    checked = 0
    for _ in range(500):
        t = _gen_untyped(rng, 10, 0)
        v = _gen_untyped(rng, 6, 0)
        if t.value and v.value:
            assert subst(t, "x", v).value
            checked += 1
    assert checked > 20


def test_subst_free_var_monotonicity():
    rng = random.Random(13)
    for _ in range(300):
        t = _gen_untyped(rng, 12, 0)
        r = _gen_untyped(rng, 8, 0)
        before, repl = free_vars(t), free_vars(r)
        after = free_vars(subst(t, "x", r))
        assert after.term_vars <= (before.term_vars - {"x"}) | repl.term_vars
        assert after.cont_vars <= before.cont_vars | repl.cont_vars



def test_subst_renaming_a_catch_does_not_capture_a_throw():
    # the outer catch is freshened to a1, so its throw must not be captured
    # by the inner catch that already binds a1
    out = subst(p("catch a. catch a1. (\\z. z) (throw a x)"), "x", p("throw a ()"))
    assert alpha_eq(out, p("catch a1. catch a2. (\\z. z) (throw a1 throw a ())"))


def test_rename_cont_var_freshens_a_catch_that_binds_the_new_name():
    t = p("\\x. catch b. throw a throw b x")
    assert alpha_eq(rename_cont_var(t, "a", "b"), p("\\x. catch c. throw b throw c x"))
    assert rename_cont_var(t, "c", "d") is t


_SUFFIXED = ("a", "a1", "a2", "b")


def _suffixed_catch_term(rng, depth):
    """A term whose catches bind names that freshening also picks."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return Var(rng.choice(("x", "y")))
    if roll < 0.35:
        return Lam(rng.choice(("x", "y")), None, _suffixed_catch_term(rng, depth - 1))
    if roll < 0.5:
        return App(_suffixed_catch_term(rng, depth - 1), _suffixed_catch_term(rng, depth - 1))
    if roll < 0.75:
        return Catch(rng.choice(_SUFFIXED), _suffixed_catch_term(rng, depth - 1))
    return Throw(rng.choice(_SUFFIXED), _suffixed_catch_term(rng, depth - 1))


def _binders_apart(t, terms, conts, counter):
    """`t` with every binder renamed to a name bound or free nowhere else."""
    match t:
        case Var(name):
            return Var(terms.get(name, name))
        case Lam(param, annot, body):
            new = f"v{next(counter)}"
            return Lam(new, annot, _binders_apart(body, {**terms, param: new}, conts, counter))
        case Catch(cont, body):
            new = f"k{next(counter)}"
            return Catch(new, _binders_apart(body, terms, {**conts, cont: new}, counter))
        case Throw(cont, payload):
            return Throw(conts.get(cont, cont), _binders_apart(payload, terms, conts, counter))
        case App(fun, arg):
            return App(_binders_apart(fun, terms, conts, counter),
                       _binders_apart(arg, terms, conts, counter))
    return t


def test_subst_agrees_with_subst_into_binders_kept_apart():
    # with every binder of t renamed apart, subst never freshens, so the
    # result is the capture-free one
    rng = random.Random(29)
    replacements = [p("throw a ()"), p("throw a1 y"), p("\\y. throw b (throw a y)")]
    for _ in range(2000):
        t = _suffixed_catch_term(rng, 6)
        apart = _binders_apart(t, {}, {}, itertools.count())
        assert alpha_eq(t, apart)
        for r in replacements:
            assert alpha_eq(subst(t, "x", r), subst(apart, "x", r))


# ------------- substitution against the two-walker oracle -------------
# Substitution and continuation renaming as two walkers, each with its own
# freshening: the code one walker for both namespaces replaced.  Results
# are compared with the name-sensitive `==`, so every fresh name is pinned.


def oracle_rename_cont_var(t, old, new):
    if old not in free_vars(t).cont_vars:
        return t
    match t:
        case Lam(param, annot, body):
            return Lam(param, annot, oracle_rename_cont_var(body, old, new))
        case App(fun, arg):
            return App(oracle_rename_cont_var(fun, old, new), oracle_rename_cont_var(arg, old, new))
        case Catch(cont, body):
            if cont == new:
                cont = fresh_name(cont, free_vars(body).cont_vars | {new})
                body = oracle_rename_cont_var(body, new, cont)
            return Catch(cont, oracle_rename_cont_var(body, old, new))
        case Throw(cont, payload):
            return Throw(new if cont == old else cont, oracle_rename_cont_var(payload, old, new))
    raise ValueError(f"not a term: {t!r}")


def oracle_subst(u, x, r):
    r_free = free_vars(r)
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
                body = oracle_subst(body, param, Var(param2))
                param = param2
            return Lam(param, annot, oracle_subst(body, x, r))
        case App(fun, arg):
            return App(oracle_subst(fun, x, r), oracle_subst(arg, x, r))
        case Catch(cont, body):
            if cont in r_free.cont_vars:
                avoid = r_free.cont_vars | free_vars(body).cont_vars
                cont2 = fresh_name(cont, avoid)
                body = oracle_rename_cont_var(body, cont, cont2)
                cont = cont2
            return Catch(cont, oracle_subst(body, x, r))
        case Throw(cont, payload):
            return Throw(cont, oracle_subst(payload, x, r))
    raise ValueError(f"not a term: {u!r}")


_ORACLE_TERM_NAMES = ("x", "y", "z", "u", "x1", "y1")
_ORACLE_CONT_NAMES = ("a", "b", "c", "a1", "b1")


def _redrawn(t, rng, terms, conts):
    """`t` with each binder and each free name drawn again from the pools
    above, so that names freshening picks are often taken; a bound name
    follows its binder."""
    match t:
        case Var(name):
            return Var(terms.get(name) or rng.choice(_ORACLE_TERM_NAMES))
        case Lam(param, annot, body):
            new = rng.choice(_ORACLE_TERM_NAMES)
            return Lam(new, annot, _redrawn(body, rng, {**terms, param: new}, conts))
        case Catch(cont, body):
            new = rng.choice(_ORACLE_CONT_NAMES)
            return Catch(new, _redrawn(body, rng, terms, {**conts, cont: new}))
        case Throw(cont, payload):
            return Throw(conts.get(cont) or rng.choice(_ORACLE_CONT_NAMES),
                         _redrawn(payload, rng, terms, conts))
        case App(fun, arg):
            return App(_redrawn(fun, rng, terms, conts), _redrawn(arg, rng, terms, conts))
    return t


def _oracle_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        t = _redrawn(_gen_untyped(rng, rng.randint(4, 16), 0), rng, {}, {})
        r = _redrawn(_gen_untyped(rng, rng.randint(1, 8), 0), rng, {}, {})
        yield rng, t, r


def _counting_fresh_names(monkeypatch):
    """Record the base of every name the walker freshens."""
    bases = []

    def counting(base, avoid):
        bases.append(base)
        return fresh_name(base, avoid)

    monkeypatch.setattr(syntax, "fresh_name", counting)
    return bases


def test_subst_agrees_with_the_two_walker_oracle(monkeypatch):
    bases = _counting_fresh_names(monkeypatch)
    for rng, t, r in _oracle_cases(41, 10000):
        x = rng.choice(sorted(free_vars(t).term_vars) or _ORACLE_TERM_NAMES)
        assert identical(subst(t, x, r), oracle_subst(t, x, r))
    # both binder kinds were freshened, suffixed names included
    assert {"x", "x1", "a", "a1"} <= set(bases)
    assert sum(b in _ORACLE_CONT_NAMES for b in bases) > 100
    assert sum(b in _ORACLE_TERM_NAMES for b in bases) > 100


def test_rename_cont_var_agrees_with_the_two_walker_oracle(monkeypatch):
    bases = _counting_fresh_names(monkeypatch)
    for rng, t, _ in _oracle_cases(42, 10000):
        free = sorted(fcv(t))
        unused = [c for c in _ORACLE_CONT_NAMES if c not in free]
        if free and unused:
            old, new = rng.choice(free), rng.choice(unused)
            assert identical(rename_cont_var(t, old, new), oracle_rename_cont_var(t, old, new))
    # a catch that binds the new name was freshened
    assert len(bases) > 150


# ------------- alpha equivalence -------------


def test_alpha_eq_renamed_lambda():
    assert alpha_eq(p("\\x. x"), p("\\y. y"))


def test_alpha_eq_renamed_catch():
    assert alpha_eq(p("catch a. throw a ()"), p("catch b. throw b ()"))


def test_alpha_eq_distinguishes_binders():
    assert not alpha_eq(p("\\x. \\y. x"), p("\\x. \\y. y"))


def test_alpha_eq_free_names_matter():
    assert not alpha_eq(Var("x"), Var("y"))
    assert not alpha_eq(Throw("a", UNIT), Throw("b", UNIT))


def test_alpha_eq_annotation_mismatch():
    # both absent or both equal is required
    assert not alpha_eq(p("\\x: 1. x"), p("\\x. x"))
    assert not alpha_eq(p("\\x: 1. x"), p("\\x: [1]. x"))
    assert alpha_eq(p("\\x: 1. x"), p("\\y: 1. y"))


def test_alpha_eq_is_equivalence_on_random_terms():
    rng = random.Random(14)
    terms = [_gen_untyped(rng, 10, 0) for _ in range(60)]
    for t in terms:
        assert alpha_eq(t, t)
    for t in terms[:20]:
        for u in terms[:20]:
            assert alpha_eq(t, u) == alpha_eq(u, t)


def test_canonical_matches_alpha_eq():
    rng = random.Random(15)
    terms = [_gen_untyped(rng, 8, 0) for _ in range(40)]
    for t in terms:
        for u in terms:
            assert (canonical(t) == canonical(u)) == alpha_eq(t, u)


def oracle_canonical(t):
    """Binders renamed by a preorder counter, threading an environment down."""
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


_NAMES = ("x", "y", "z", "u", "a", "b", "c")


def _alpha_variant(t, rng, names=_NAMES):
    """`t` with every binder renamed to a random name it does not capture."""
    match t:
        case App(fun, arg):
            return App(_alpha_variant(fun, rng, names), _alpha_variant(arg, rng, names))
        case Throw(cont, payload):
            return Throw(cont, _alpha_variant(payload, rng, names))
        case Lam(param, annot, body):
            body = _alpha_variant(body, rng, names)
            new = rng.choice([n for n in names if n == param or n not in free_vars(body).term_vars])
            return Lam(new, annot, subst(body, param, Var(new)))
        case Catch(cont, body):
            body = _alpha_variant(body, rng, names)
            new = rng.choice([n for n in names if n == cont or n not in fcv(body)])
            return Catch(new, rename_cont_var(body, cont, new))
    return t


def _key_groups():
    """Groups of terms that are often alpha-equal: a generated term (typed
    or untyped), alpha-variants of it, its reducts and its development,
    and the same built from its `!`-renamed alpha-variant, whose binders
    sit at other heights once reduced."""
    rng = random.Random(17)
    for seed in range(300):
        if seed % 2:
            t = gen_term(GenConfig(seed=seed, max_size=14))
        else:
            t = _gen_untyped(rng, 12, 0)
        group = [t, _alpha_variant(t, rng), _alpha_variant(t, rng)]
        for base in (t, oracle_canonical(t)):
            group += [event.result for event in enumerate_redexes(base)]
            group.append(complete_development(base))
        yield group


def test_canonical_keys_agree_with_the_oracle():
    equal_pairs = 0
    for group in _key_groups():
        for t in group:
            for u in group:
                same = canonical(t) == canonical(u)
                assert same == identical(oracle_canonical(t), oracle_canonical(u))
                equal_pairs += same and t is not u
    assert equal_pairs > 1000


def test_canonical_is_idempotent():
    # a term and its `!`-renamed alpha-variant share one key and its hash
    for group in _key_groups():
        for t in group:
            variant = oracle_canonical(t)
            assert canonical(variant) == canonical(t)
            assert hash(canonical(variant)) == hash(canonical(t))
            assert alpha_eq(variant, t)


def test_canonical_keeps_free_names_apart_from_binder_names():
    # free names that look like `oracle_canonical`'s binder names are
    # neither captured nor confused with one
    open_body = Lam("y", None, Var("!x1"))
    assert canonical(open_body) != canonical(p("\\z. z"))
    assert canonical(open_body) == canonical(Lam("z", None, Var("!x1")))
    closed = Lam("!x1", None, Lam("!x5", None, Var("!x1")))
    assert canonical(closed) == canonical(p("\\x. \\y. x"))
    assert canonical(closed) != canonical(p("\\x. \\y. y"))
    assert canonical(Catch("c", Throw("!k1", UNIT))) != canonical(Catch("c", Throw("c", UNIT)))


def test_a_dict_of_terms_keeps_the_first_alpha_variant():
    first, other, variant = p("\\x. catch a. throw a x"), p("\\x. \\y. x"), p("\\y. catch b. throw b y")
    seen = dict.fromkeys([first, other, variant])
    assert identical(list(seen), [first, other]) and next(iter(seen)) is first
    assert variant in seen and len({first, variant}) == 1
    assert first == variant and not identical(first, variant) and hash(first) == hash(variant)
    assert first != "\\x. catch a. throw a x" and UNIT != ()


def test_identical_pins_names_and_agrees_with_repr():
    assert p("\\x. x") == p("\\y. y") and not identical(p("\\x. x"), p("\\y. y"))
    assert identical(p("\\x. x"), p("\\x. x"))
    # each generated term, its reducts and development, their memo-free
    # copies and their `!`-renamed alpha variants, one group at a time;
    # the redex lists hold dataclasses, enums and tuples
    checked = 0
    for group in _node_groups():
        terms = group + [copy.deepcopy(t) for t in group] + [oracle_canonical(t) for t in group]
        redexes = [enumerate_redexes(t) for t in terms]
        reprs = [(repr(t), repr(events)) for t, events in zip(terms, redexes)]
        for i, u in enumerate(terms):
            for j, v in enumerate(terms):
                assert identical(u, v) is (reprs[i][0] == reprs[j][0])
                assert identical(redexes[i], redexes[j]) is (reprs[i][1] == reprs[j][1])
                checked += reprs[i][0] == reprs[j][0] and u is not v
    assert checked > 1000


_FORM_LIKE = ("x", "!x1", "!x2", "!!x1", "a", "!k1", "!k2")


def _form_like_term(rng, depth):
    """A term whose free and bound names look like `oracle_canonical`'s."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Var(rng.choice(_FORM_LIKE))
    if roll < 0.5:
        return Lam(rng.choice(_FORM_LIKE), None, _form_like_term(rng, depth - 1))
    if roll < 0.7:
        return App(_form_like_term(rng, depth - 1), _form_like_term(rng, depth - 1))
    if roll < 0.85:
        return Catch(rng.choice(_FORM_LIKE), _form_like_term(rng, depth - 1))
    return Throw(rng.choice(_FORM_LIKE), _form_like_term(rng, depth - 1))


def test_canonical_keys_agree_with_alpha_eq_on_form_like_names():
    rng = random.Random(19)
    for _ in range(1000):
        t = _form_like_term(rng, 5)
        # binding `!x1` where it is free in t, or binding nothing there
        group = [t, _alpha_variant(t, rng, _FORM_LIKE), _alpha_variant(t, rng, _FORM_LIKE),
                 _form_like_term(rng, 5), Lam("y", None, t),
                 Lam("y", None, subst(t, "!x1", Var("y")))]
        for a in group:
            for b in group:
                assert (canonical(a) == canonical(b)) == alpha_eq(a, b)


def test_subst_respects_alpha_eq():
    t1, t2 = p("\\y. x y"), p("\\z. x z")
    assert alpha_eq(subst(t1, "x", p("\\w. w")), subst(t2, "x", p("\\w. w")))


def test_is_value_stable_under_alpha_and_value_subst():
    rng = random.Random(16)
    for _ in range(200):
        t = _gen_untyped(rng, 10, 0)
        assert t.value == oracle_canonical(t).value
        if t.value:
            assert subst(t, "x", p("\\w. w")).value


# ------------- size -------------


def test_size_unit():
    assert size(UNIT) == 1


def test_size_counts_all_nodes():
    # App + Lam + Var + Unit
    assert size(p("(\\x. x) ()")) == 4
    assert size(Throw("a", UNIT)) == 2
    assert size(Catch("a", Throw("a", UNIT))) == 3
    assert size(lrec(UNIT, UNIT, Nil())) == 7


# ------------- long lists -------------
# free_vars, hash and subst loop down an App's argument spine, so a list
# costs no host frame per cell.  These run in-process, under the default
# recursion limit, on lists a hundred times deeper than it.

LONG = 100_000


@deep
def test_long_lists_take_no_host_frame_per_cell():
    assert sys.getrecursionlimit() <= 1000
    # a parsed numeral holds its free-variable memos; a deep copy is built
    # memo-free, so free_vars walks its spine
    numeral = copy.deepcopy(p(f"#{LONG}"))
    assert numeral._free_vars is None
    assert free_vars(numeral) == VarSets(frozenset(), frozenset())
    # x at every head and y at the tail, so substitution walks every cell
    head, spine = Var("x"), Var("y")
    for _ in range(LONG):
        spine = cons(head, spine)
    assert free_vars(spine) == VarSets(frozenset({"x", "y"}), frozenset())
    closed = subst(subst(spine, "x", UNIT), "y", Nil())
    assert free_vars(closed).term_vars == frozenset()
    assert hash(closed) == hash(numeral)
    assert closed == numeral


def test_repr_of_a_two_cell_list():
    assert repr(cons(UNIT, cons(Nil(), Nil()))) == (
        "App(fun=App(fun=ConsC(), arg=UnitVal()), arg=App(fun=App(fun=ConsC(), arg=Nil()), "
        "arg=Nil()))")


@deep
def test_repr_of_a_long_list_takes_no_host_frame_per_cell():
    assert sys.getrecursionlimit() <= 1000
    cell = "App(fun=App(fun=ConsC(), arg=UnitVal()), arg="
    assert repr(p(f"#{LONG}")) == cell * LONG + "Nil()" + ")" * LONG


def _spine_funs(t):
    funs = []
    while type(t) is App:
        funs.append(t.fun)
        t = t.arg
    return funs, t


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_every_cell_of_a_numeral_shares_one_cons_unit_node(n):
    for t in (p(f"#{n}"), numeral(n)):
        funs, tail = _spine_funs(t)
        assert type(tail) is Nil and len(funs) == n
        assert all(fun is funs[0] for fun in funs)
        assert type(funs[0].fun) is ConsC and type(funs[0].arg) is UnitVal
        assert t == cons(UNIT, numeral(n - 1))


def test_numeral_rejects_a_negative_count():
    # a negative count builds no [] that carries a numeral's type memo
    with pytest.raises(ValueError, match="cannot encode a negative number"):
        numeral(-1)


@pytest.mark.parametrize("src, full", [
    ("cons () []", True), ("[(), ()]", True), ("#3", True),
    ("cons ()", False), ("cons", False), ("[]", False),
    ("lrec [] (\\h. \\t. \\r. r) []", False), ("\\x. x", False), ("(\\x. x) ()", False),
])
def test_is_cons_cell_truth_table(src, full):
    assert is_cons_cell(p(src)) is full


@deep
def test_long_lists_copy_and_pickle():
    assert sys.getrecursionlimit() <= 1000
    items = ["\\x. x", "()", "catch a. throw a [()]", "[#1, (\\y. y) ()]"]
    for t in (p("#5000"), p("[" + ", ".join(items * 750) + "]")):
        for other in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert other is not t and other == t and hash(other) == hash(t)
            # the copy shares what the original shares, by the copier's memo
            funs, _ = _spine_funs(other)
            assert len({id(fun) for fun in funs}) == len({id(fun) for fun in _spine_funs(t)[0]})
