import copy
import pickle
import random
import sys
from dataclasses import dataclass

import pytest

from lcatch.metatheory import GenConfig, gen_term
from lcatch.prelude import library, prelude_defs, prelude_source
from lcatch.surface import (
    expand_defs, expand_term, parse_program, parse_term, print_term, print_type,
)
from lcatch.syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, MetaVar, Nil, Term,
    Throw, Type, UNIT, UNIT_TYPE, UnitType, UnitVal, Var, _EMPTY, children, cons, free_vars,
    numeral, type_has_meta,
)
from lcatch.typecheck import (
    ErrorKind, TypingEnv, TypingError, check, derivable, infer, is_arrow_free,
)

from test_syntax import deep, draw, identical

p = parse_term
EMPTY = TypingEnv()
NAT = ListType(UNIT_TYPE)


def kind_of(env, term):
    with pytest.raises(TypingError) as info:
        infer(env, term)
    return info.value.kind


# ------------- is_arrow_free -------------


def test_arrow_free_base_types():
    assert is_arrow_free(UNIT_TYPE)
    assert is_arrow_free(ListType(ListType(UNIT_TYPE)))


def test_arrow_free_rejects_nested_arrow():
    assert not is_arrow_free(ListType(ArrowType(UNIT_TYPE, UNIT_TYPE)))


def test_arrow_free_rejects_metavariables():
    with pytest.raises(ValueError):
        is_arrow_free(MetaVar(1))


# ------------- inference -------------


def test_infer_identity():
    assert infer(EMPTY, p("\\x:1. x")) == ArrowType(UNIT_TYPE, UNIT_TYPE)


def test_infer_lrec_instance():
    # instantiating the recursor rule and unifying pins everything to unit
    assert infer(EMPTY, p("lrec () (\\h:1. \\t:[1]. \\r:1. r) []")) == UNIT_TYPE


def test_infer_rejects_catch_at_arrow_type():
    assert kind_of(EMPTY, p("catch a. \\x:1. x")) is ErrorKind.NON_ARROW_FREE_CATCH


def test_infer_rejects_unconstrained_list_element():
    assert kind_of(EMPTY, p("catch a. throw a []")) is ErrorKind.AMBIGUOUS_TYPE


def test_infer_prelude_pred_type():
    declared = {entry.name: entry.declared_type for entry in library()}
    assert print_type(declared["pred"]) == "[1] -> [1]"


def test_infer_unbound_variable():
    assert kind_of(EMPTY, Var("x")) is ErrorKind.UNBOUND_VAR


def test_infer_unbound_continuation():
    assert kind_of(EMPTY, Throw("a", UNIT)) is ErrorKind.UNBOUND_CONT_VAR


def test_infer_occurs_check():
    assert kind_of(EMPTY, p("\\x. x x")) is ErrorKind.OCCURS_CHECK


def test_infer_mismatch():
    assert kind_of(EMPTY, p("(\\x:1. x) []")) is ErrorKind.MISMATCH


def test_infer_ambiguous_bare_nil():
    assert kind_of(EMPTY, p("[]")) is ErrorKind.AMBIGUOUS_TYPE


def test_ascription_resolves_ambiguity():
    assert infer(EMPTY, p("catch a. throw a ([] : [1])")) == NAT


def test_throw_types_at_any_type():
    env = TypingEnv(delta={"a": UNIT_TYPE})
    check(env, p("throw a ()"), ListType(UNIT_TYPE))
    check(env, p("throw a ()"), ArrowType(UNIT_TYPE, UNIT_TYPE))


# ------------- checking -------------


def test_check_nil_against_list():
    check(EMPTY, p("[]"), ListType(UNIT_TYPE))


def test_check_mismatch_reports_expected_and_found():
    with pytest.raises(TypingError) as info:
        check(EMPTY, UNIT, ListType(UNIT_TYPE))
    assert info.value.kind is ErrorKind.MISMATCH
    assert info.value.expected == ListType(UNIT_TYPE)
    assert info.value.found == UNIT_TYPE


def test_unit_types_built_apart_unify():
    # unification compares types by class, so a UnitType other than
    # UNIT_TYPE still unifies with it
    env = TypingEnv(gamma={"x": UnitType()})
    assert infer(env, p("(\\y:1. y) x")) == UNIT_TYPE
    check(EMPTY, UNIT, UnitType())
    check(EMPTY, p("[()]"), ListType(UnitType()))


def test_check_rejects_meta_in_expected_type():
    with pytest.raises(ValueError):
        check(EMPTY, UNIT, MetaVar(3))


def test_delta_validated_arrow_free_at_construction():
    with pytest.raises(ValueError):
        TypingEnv(delta={"a": ArrowType(UNIT_TYPE, UNIT_TYPE)})


# ------------- derivability (subject-reduction oracle) -------------


def test_derivable_accepts_orphaned_subterm_types():
    # a catch whose element type nothing pins is not inferable, but the
    # judgment is derivable at unit
    env = TypingEnv(delta={"b": UNIT_TYPE})
    term = p("(throw b ()) (catch c. [])")
    with pytest.raises(TypingError):
        infer(env, term)
    assert derivable(env, term, UNIT_TYPE)


def test_derivable_rejects_wrong_type():
    assert not derivable(EMPTY, UNIT, ListType(UNIT_TYPE))
    assert not derivable(EMPTY, p("catch a. \\x:1. x"),
                         ArrowType(UNIT_TYPE, UNIT_TYPE))


def test_typing_leaves_the_environment_unchanged():
    # each binder, x and a shadowing the environment's, extends a new dict
    env = TypingEnv(gamma={"x": NAT}, delta={"a": UNIT_TYPE})
    gamma, delta = env.gamma, env.delta
    good = p("(\\x: 1. catch a. throw a x) (catch b. throw a ())")
    bad = p("(\\x: 1. catch a. throw a x) (catch b. throw b [])")

    def unchanged():
        return (env.gamma is gamma and gamma == {"x": NAT}
                and env.delta is delta and delta == {"a": UNIT_TYPE})

    assert infer(env, good) == UNIT_TYPE and unchanged()
    check(env, good, UNIT_TYPE)
    assert unchanged()
    assert derivable(env, good, UNIT_TYPE) and unchanged()
    assert not derivable(env, bad, UNIT_TYPE) and unchanged()
    for judge in (infer, lambda e, t: check(e, t, UNIT_TYPE)):
        with pytest.raises(TypingError):
            judge(env, bad)
        assert unchanged()


# ------------- continuation closure of values -------------


def test_values_of_arrow_free_type_have_no_free_continuations():
    from lcatch.syntax import fcv
    env = TypingEnv(delta={"a": UNIT_TYPE})
    for src, ty in [("cons () []", NAT),
                    ("[[], [()]]", ListType(NAT)),
                    ("()", UNIT_TYPE)]:
        v = p(src)
        check(env, v, ty)
        assert fcv(v) == set()


def test_arrow_typed_values_may_capture_continuations():
    # the restriction matters: at an arrow type a value can mention a
    # continuation, which is exactly what catch must not bind
    from lcatch.syntax import fcv
    env = TypingEnv(delta={"a": UNIT_TYPE})
    v = p("\\x:1. throw a x")
    check(env, v, ArrowType(UNIT_TYPE, UNIT_TYPE))
    assert fcv(v) == {"a"}


# ------------- weakening -------------


def test_weakening_preserves_inferred_types():
    wide = TypingEnv(gamma={"unused": NAT}, delta={"spare": UNIT_TYPE})
    for seed in range(150):
        t = gen_term(GenConfig(seed=seed, max_size=16))
        assert infer(EMPTY, t) == infer(wide, t)


# ------------- side-condition order -------------


def test_first_error_is_outermost_leftmost_side_condition():
    # the catch at /0/0 binds an arrow; the one at /1 is ambiguous and
    # comes later in preorder
    with pytest.raises(TypingError) as info:
        infer(EMPTY, p("(\\u:[1]. catch b. \\y:1. y) (catch a. throw a [])"))
    assert info.value.render() == \
        "NonArrowFreeCatch at /0/0: catch bound at non-arrow-free type 1 -> 1"


def test_a_throw_of_an_arrow_fails_at_its_catch():
    # a payload's type is its continuation's, so the catch's own arrow-free
    # condition, earlier in preorder, rejects it; throws have no condition
    t = p("catch a. throw a (\\x: 1. x)")
    with pytest.raises(TypingError) as info:
        infer(EMPTY, t)
    assert info.value.render() == \
        "NonArrowFreeCatch at /: catch bound at non-arrow-free type 1 -> 1"
    assert not derivable(EMPTY, t, ArrowType(UNIT_TYPE, UNIT_TYPE))


def test_lambda_domain_checked_before_its_body():
    with pytest.raises(TypingError) as info:
        infer(EMPTY, p("(\\x. ()) (catch a. throw a [])"))
    assert info.value.render() == "AmbiguousType at /0: unsolved binder type [?3]"


def _error_under(bottom, depth, alternate=False):
    """The TypingError of `bottom` nested under `depth` lambdas, every
    other one replaced by an application with `bottom` as its argument."""
    t = bottom
    for i in range(depth):
        t = App(UNIT, t) if alternate and i % 2 else Lam("v", UNIT_TYPE, t)
    with pytest.raises(TypingError) as info:
        infer(EMPTY, t)
    return info.value


def test_error_paths_deep_in_the_term():
    # raised on the way down, raised by unification on the way up, and
    # raised by a side condition after solving
    depth = 640
    err = _error_under(Var("zz"), depth, alternate=True)
    assert err.path == (1, 0) * (depth // 2)
    assert err.render() == f"UnboundVar at {'/1/0' * (depth // 2)}: unbound variable 'zz'"
    err = _error_under(App(UNIT, UNIT), depth)
    assert err.path == (0,) * depth
    assert err.render() == f"Mismatch at {'/0' * depth}: expected 1, found 1 -> ?1"
    err = _error_under(p("catch a. \\x:1. x"), depth)
    assert err.render() == \
        f"NonArrowFreeCatch at {'/0' * depth}: catch bound at non-arrow-free type 1 -> 1"


# ------------- the pipeline against the two-pass checker -------------
# The checker as it was before the single pipeline: constraint generation
# builds a tree of node types, and `_finalize` zonks every node and checks
# the binder side conditions on the way down.  It is the oracle for every
# result, error kind, message, path and metavariable number.


class _OracleSolver:
    def __init__(self):
        self.assignments = {}
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return MetaVar(self.counter)

    def prune(self, ty):
        while isinstance(ty, MetaVar) and ty.ident in self.assignments:
            ty = self.assignments[ty.ident]
        return ty

    def zonk(self, ty):
        ty = self.prune(ty)
        match ty:
            case ListType(elem):
                return ListType(self.zonk(elem))
            case ArrowType(dom, cod):
                return ArrowType(self.zonk(dom), self.zonk(cod))
        return ty

    def occurs(self, ident, ty):
        ty = self.prune(ty)
        match ty:
            case MetaVar(i):
                return i == ident
            case ListType(elem):
                return self.occurs(ident, elem)
            case ArrowType(dom, cod):
                return self.occurs(ident, dom) or self.occurs(ident, cod)
        return False

    def unify(self, a, b, path):
        a, b = self.prune(a), self.prune(b)
        if a == b:
            return
        if isinstance(a, MetaVar):
            if self.occurs(a.ident, b):
                raise TypingError(ErrorKind.OCCURS_CHECK,
                                  f"occurs check: ?{a.ident} in {print_type(self.zonk(b))}",
                                  path=path)
            self.assignments[a.ident] = b
            return
        if isinstance(b, MetaVar):
            self.unify(b, a, path)
            return
        match a, b:
            case ListType(e1), ListType(e2):
                self.unify(e1, e2, path)
                return
            case ArrowType(d1, c1), ArrowType(d2, c2):
                self.unify(d1, d2, path)
                self.unify(c1, c2, path)
                return
        raise TypingError(
            ErrorKind.MISMATCH,
            f"expected {print_type(self.zonk(a))}, found {print_type(self.zonk(b))}",
            expected=self.zonk(a), found=self.zonk(b), path=path)


@dataclass(frozen=True)
class TypedTerm:
    """A term with a type at every node: open types after constraint
    generation, fully solved ones after `_oracle_finalize`."""

    term: Term
    type: Type
    children: tuple["TypedTerm", ...]


def _oracle_constrain(solver, t, gamma, delta, path):
    match t:
        case Var(name):
            if name not in gamma:
                raise TypingError(ErrorKind.UNBOUND_VAR,
                                  f"unbound variable {name!r}", path=path)
            return TypedTerm(t, gamma[name], ())
        case UnitVal():
            return TypedTerm(t, UNIT_TYPE, ())
        case Nil():
            return TypedTerm(t, ListType(solver.fresh()), ())
        case ConsC():
            elem = solver.fresh()
            return TypedTerm(t, ArrowType(elem, ArrowType(ListType(elem), ListType(elem))), ())
        case LrecC():
            res = solver.fresh()
            elem = solver.fresh()
            step = ArrowType(elem, ArrowType(ListType(elem), ArrowType(res, res)))
            return TypedTerm(t, ArrowType(res, ArrowType(step, ArrowType(ListType(elem), res))), ())
        case Lam(param, annot, body):
            dom = annot if annot is not None else solver.fresh()
            inner = _oracle_constrain(solver, body, {**gamma, param: dom}, delta, path + (0,))
            return TypedTerm(t, ArrowType(dom, inner.type), (inner,))
        case App(fun, arg):
            f = _oracle_constrain(solver, fun, gamma, delta, path + (0,))
            a = _oracle_constrain(solver, arg, gamma, delta, path + (1,))
            res = solver.fresh()
            solver.unify(f.type, ArrowType(a.type, res), path)
            return TypedTerm(t, res, (f, a))
        case Catch(cont, body):
            psi = solver.fresh()
            inner = _oracle_constrain(solver, body, gamma, {**delta, cont: psi}, path + (0,))
            solver.unify(psi, inner.type, path)
            return TypedTerm(t, psi, (inner,))
        case Throw(cont, payload):
            if cont not in delta:
                raise TypingError(ErrorKind.UNBOUND_CONT_VAR,
                                  f"unbound continuation variable {cont!r}", path=path)
            inner = _oracle_constrain(solver, payload, gamma, delta, path + (0,))
            solver.unify(delta[cont], inner.type, path)
            return TypedTerm(t, solver.fresh(), (inner,))
    raise ValueError(f"not a term: {t!r}")


def _oracle_finalize(solver, raw, path):
    ty = solver.zonk(raw.type)
    match raw.term:
        case Lam():
            dom = ty.dom if isinstance(ty, ArrowType) else ty
            if type_has_meta(dom):
                raise TypingError(ErrorKind.AMBIGUOUS_TYPE,
                                  f"unsolved binder type {print_type(dom)}",
                                  found=dom, path=path)
        case Catch():
            if type_has_meta(ty):
                raise TypingError(ErrorKind.AMBIGUOUS_TYPE,
                                  f"unsolved catch binder type {print_type(ty)}",
                                  found=ty, path=path)
            if not is_arrow_free(ty):
                raise TypingError(ErrorKind.NON_ARROW_FREE_CATCH,
                                  f"catch bound at non-arrow-free type {print_type(ty)}",
                                  found=ty, path=path)
        case Throw():
            payload_ty = solver.zonk(raw.children[0].type)
            if type_has_meta(payload_ty):
                raise TypingError(ErrorKind.AMBIGUOUS_TYPE,
                                  f"unsolved throw payload type {print_type(payload_ty)}",
                                  found=payload_ty, path=path)
            # a payload's type is its catch binder's, checked at the catch
            # before its body, or a delta entry, which TypingEnv validates
            assert is_arrow_free(payload_ty), print_type(payload_ty)
    kids = tuple(_oracle_finalize(solver, child, path + (i,))
                 for i, child in enumerate(raw.children))
    return TypedTerm(raw.term, ty, kids)


def oracle_infer_typed(env, t):
    solver = _OracleSolver()
    raw = _oracle_constrain(solver, t, dict(env.gamma), dict(env.delta), ())
    root_ty = solver.zonk(raw.type)
    if type_has_meta(root_ty):
        raise TypingError(ErrorKind.AMBIGUOUS_TYPE,
                          f"unsolved result type {print_type(root_ty)}",
                          found=root_ty, path=())
    return _oracle_finalize(solver, raw, ())


def oracle_check(env, t, ty):
    solver = _OracleSolver()
    raw = _oracle_constrain(solver, t, dict(env.gamma), dict(env.delta), ())
    solver.unify(ty, raw.type, ())
    _oracle_finalize(solver, raw, ())


def oracle_derivable(env, t, ty):
    solver = _OracleSolver()
    try:
        raw = _oracle_constrain(solver, t, dict(env.gamma), dict(env.delta), ())
        solver.unify(ty, raw.type, ())
    except TypingError:
        return False

    def unsolved(ty):
        ty = solver.prune(ty)
        match ty:
            case MetaVar(ident):
                return [ident]
            case ListType(elem):
                return unsolved(elem)
            case ArrowType(dom, cod):
                return unsolved(dom) + unsolved(cod)
        return []

    def close(node):
        for meta in unsolved(node.type):
            solver.assignments[meta] = UNIT_TYPE
        for child in node.children:
            close(child)

    close(raw)
    try:
        _oracle_finalize(solver, raw, ())
    except TypingError:
        return False
    return True


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TypingError as err:
        return ("error", err.kind, str(err), err.path, err.expected, err.found)


# Free variables of untyped generated terms, so that they get past the
# unbound-variable check and reach unification and the side conditions.
WIDE = TypingEnv(gamma={"x": UNIT_TYPE, "y": NAT, "z": ArrowType(NAT, NAT)},
                 delta={"a": UNIT_TYPE, "b": NAT})
CHECK_TYPES = (UNIT_TYPE, NAT, ArrowType(UNIT_TYPE, UNIT_TYPE))


def assert_same_as_oracle(env, t):
    got = _outcome(infer, env, t)
    assert got == _outcome(lambda: oracle_infer_typed(env, t).type)
    for ty in CHECK_TYPES:
        assert _outcome(check, env, t, ty) == _outcome(oracle_check, env, t, ty)
        assert derivable(env, t, ty) == oracle_derivable(env, t, ty)


@pytest.mark.parametrize("typed", [True, False])
@pytest.mark.parametrize("max_size", [8, 14, 20])
def test_pipeline_matches_oracle_on_generated_terms(typed, max_size):
    for seed in range(150):
        t = draw(seed, max_size, typed)
        assert_same_as_oracle(EMPTY, t)
        if not typed:
            assert_same_as_oracle(WIDE, t)
            # at the head and at the tail of a two-cell cons spine
            for spine in (cons(t, cons(UNIT, Nil())), cons(UNIT, cons(UNIT, t))):
                assert_same_as_oracle(EMPTY, spine)
                assert_same_as_oracle(WIDE, spine)


def test_pipeline_matches_oracle_on_prelude_definitions():
    for _name, term in prelude_defs():
        assert_same_as_oracle(EMPTY, term)


# ------------- the application rule -------------
# An application whose function type is an arrow with a solved codomain
# unifies the domain with the argument's type and returns the codomain;
# only the metavariable counter steps.  The oracle allocates a fresh ?r
# and unifies with `a -> ?r` every time, so it pins that every type,
# error and `?n` is unchanged, and its counter pins the step.


def _oracle_counter(env, t):
    solver = _OracleSolver()
    _oracle_constrain(solver, t, dict(env.gamma), dict(env.delta), ())
    return solver.counter


# prelude functions on numerals and list literals of up to 300 cells, and
# ill-typed applications of them
_PRELUDE_APPLICATIONS = (
    "plus #{n} #3", "plus #3 #{n}", "times #2 #{n}", "pred #{n}", "pred (pred #{n})",
    "prodz [#2, #{n}, #0]", "prodz [{ones}]", "catch a. plus #{n} (throw a #1)",
    "(\\x. x) (times #{n})", "plus #{n} (\\x. x)", "pred [{ones}]", "prodz #{n}",
    "lrec #{n} (\\h. \\t. plus) [{ones}]",
)


@pytest.mark.parametrize("n", [0, 1, 40, 300])
def test_application_rule_matches_oracle_on_prelude_applications(n):
    defs = list(prelude_defs())
    ones = ", ".join(["#1"] * n)
    for src in _PRELUDE_APPLICATIONS:
        t = copy.deepcopy(expand_term(p(src.format(n=n, ones=ones)), defs))
        assert_same_as_oracle(EMPTY, t)


# each shape of the function's type at an application: an arrow with a
# solved codomain, an arrow whose codomain is still a bare metavariable,
# and a bare metavariable; well typed or not, closed or under WIDE's names
_APPLICATION_SHAPES = (
    "(\\x: 1. x) ()", "(\\x: 1. [x]) ()", "cons () []", "(\\x: [1]. x) ()",
    "(\\f. f ()) (\\x. x)", "(\\f. f ()) (\\x: 1. [x])", "(\\f. f ()) ()",
    "\\f. f ()", "\\f. f (f ())", "\\f. f f", "(\\f. f ()) (\\x: [1]. x)",
    "(\\g. \\x. g (g x)) (\\y: 1. y) ()", "z y", "z x", "z (z y)", "(\\f. f y) z",
    "(\\f. f x) z", "catch a. (\\f. f (throw a ())) (\\u. u)", "catch b. z (throw b y)",
    "lrec () (\\h. \\t. \\r. r) y", "(\\u. \\v. u) () (\\w. w)", "x ()",
    # the codomain stays unsolved and shows in the error as the oracle's ?r
    "(\\x: 1. throw a ()) ()", "(\\u. \\v. u) ((\\x: 1. throw a ()) ())",
    "\\u: 1. (\\w: 1. throw a w) u", "catch k. (\\u. \\v. u) ((\\x: 1. throw k ()) ())",
)


@pytest.mark.parametrize("src", _APPLICATION_SHAPES)
def test_application_rule_matches_oracle_on_each_function_type_shape(src):
    for env in (EMPTY, WIDE):
        assert_same_as_oracle(env, p(src))


# ------------- cons spines -------------
# A list is an argument spine whose functions are `cons h`; the walk types
# it in one loop, by the application rule at each cell, and the oracle
# recursively.  Both instantiate cons's scheme and apply it twice at
# every cell.  The shapes: a mismatch at one cell or
# at two (the innermost is reported), a tail that is not a list, a spine
# ending in a variable or a throw, nested lists and an element type left
# unsolved.
_CONS_SPINES = (
    "[(), \\x. x, ()]", "[(), [], \\x. x]", "[y, x, z]",
    "cons () (\\x. x)", "cons () (cons () y)", "cons x y",
    "catch a. cons () (throw a #1)", "[[()], [], [(), ()]]", "[[]]",
    "[(), x, (\\u. u) ()]", "[y, [], #2, z y]", "[[], [()], [\\x. x]]",
    "cons () (cons [] [])", "cons (\\v. v) (cons (\\w: 1. w) [])",
    "catch b. [#1, throw b [], y]", "cons () (cons () (\\x. x) ())",
)


@pytest.mark.parametrize("src", _CONS_SPINES)
def test_cons_spine_rule_matches_oracle(src):
    for env in (EMPTY, WIDE):
        assert_same_as_oracle(env, p(src))


@deep
def test_cons_spines_take_no_host_frame_per_cell():
    # in-process, under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    # a parsed numeral holds its type memo; a deep copy is built memo-free,
    # so the loop walks every cell
    numeral = copy.deepcopy(p(f"#{n}"))
    assert numeral._type is None
    assert infer(EMPTY, numeral) == NAT
    # per cell one for cons and one at each of its two applications; one for nil
    assert numeral._type[1] == 3 * n + 1
    bad = UNIT
    for _ in range(n):
        bad = cons(UNIT, bad)
    with pytest.raises(TypingError) as info:
        infer(EMPTY, bad)
    assert info.value.render() == f"Mismatch at {'/1' * (n - 1)}: expected [1], found 1"


@deep
def test_argument_nests_take_no_host_frame_per_level():
    # in-process, under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    env = TypingEnv({"f": ArrowType(UNIT_TYPE, UNIT_TYPE)})
    f = Var("f")
    good, bad = UNIT, Nil()
    for _ in range(n):
        good, bad = App(f, good), App(f, bad)
    assert infer(env, good) == UNIT_TYPE
    with pytest.raises(TypingError) as info:
        infer(env, bad)
    assert info.value.render() == f"Mismatch at {'/1' * (n - 1)}: expected 1, found [?1]"


def test_memo_counts_the_metavariables_the_oracle_allocates():
    defs = list(prelude_defs())
    sources = [src.format(n=n, ones=", ".join(["#1"] * n))
               for src in _PRELUDE_APPLICATIONS for n in (0, 7)]
    sources += list(_APPLICATION_SHAPES) + list(_CONS_SPINES)
    sources += [print_term(gen_term(GenConfig(seed=seed, max_size=14)))
                for seed in range(100)]
    closed = 0
    for src in sources:
        t = copy.deepcopy(expand_term(p(src), defs))
        try:
            infer(EMPTY, t)
        except TypingError:
            continue
        assert t._type[1] == _oracle_counter(EMPTY, t)
        closed += 1
    assert closed > 100


# ------------- independent derivation replayer -------------
# Re-validates a typed tree directly against the derivation rules, with no
# unification: every node type is known, so each rule is a local equality
# check.  It is the soundness oracle for the oracle's typed trees.


def replay(node, gamma, delta):
    t, ty = node.term, node.type
    match t:
        case Var(name):
            return gamma.get(name) == ty
        case UnitVal():
            return ty == UNIT_TYPE
        case Nil():
            return isinstance(ty, ListType)
        case ConsC():
            match ty:
                case ArrowType(e, ArrowType(ListType(e2), ListType(e3))):
                    return e == e2 == e3
            return False
        case LrecC():
            match ty:
                case ArrowType(r, ArrowType(ArrowType(e, ArrowType(ListType(e2), ArrowType(r2, r3))),
                                            ArrowType(ListType(e3), r4))):
                    return r == r2 == r3 == r4 and e == e2 == e3
            return False
        case Lam(param, annot, _):
            match ty:
                case ArrowType(dom, cod):
                    if annot is not None and annot != dom:
                        return False
                    body = node.children[0]
                    return body.type == cod and replay(body, {**gamma, param: dom}, delta)
            return False
        case App():
            f, a = node.children
            return (f.type == ArrowType(a.type, ty)
                    and replay(f, gamma, delta) and replay(a, gamma, delta))
        case Catch(cont, _):
            if not is_arrow_free(ty):
                return False
            body = node.children[0]
            return body.type == ty and replay(body, gamma, {**delta, cont: ty})
        case Throw(cont, _):
            if cont not in delta:
                return False
            payload = node.children[0]
            return payload.type == delta[cont] and replay(payload, gamma, delta)
    return False


def test_replay_validates_generated_judgments():
    for seed in range(400):
        t = gen_term(GenConfig(seed=seed, max_size=18))
        tt = oracle_infer_typed(EMPTY, t)
        assert tt.type == infer(EMPTY, t)
        assert replay(tt, {}, {})


def test_replay_rejects_a_forged_tree():
    tt = oracle_infer_typed(EMPTY, p("\\x:1. x"))
    forged = type(tt)(tt.term, ListType(UNIT_TYPE), tt.children)
    assert not replay(forged, {}, {})


# ------------- closed-term memo -------------
# `infer` stores the type of a term it inferred closed on the term's node,
# and later walks return it without visiting the term again.  Expansion
# shares each definition by identity, so checking a program's definitions
# in order, as `lcatch check` does, hits the memo of every earlier one.
# A deep copy rebuilds every node with its memos cleared, so `infer` on a
# copy is the memo-free reference.


def _memo_hits(t):
    """Compound nodes strictly inside `t` whose memo a walk of `t` would
    hit (a leaf with a memo can only be the shared `()`)."""
    hits, stack = 0, list(children(t))
    while stack:
        u = stack.pop()
        if u._type is None:
            stack.extend(children(u))
        elif children(u):
            hits += 1
    return hits


def _check_in_order(source):
    """Each definition's and main's outcome with the memo, as `lcatch check`
    would meet them (but going on past errors), against a memo-free run;
    returns the outcomes and the memo hits."""
    prog = parse_program(source)
    defs = expand_defs(prog)
    terms = [term for _, term in defs]
    if prog.main is not None:
        terms.append(expand_term(prog.main, defs))
    outcomes, hits = [], 0
    for term in terms:
        want = _outcome(infer, EMPTY, copy.deepcopy(term))
        hits += _memo_hits(term)
        got = _outcome(infer, EMPTY, term)
        assert got == want
        outcomes.append(got)
    return outcomes, hits


# Errors met after a hit on a prelude definition, so that every `?n` in
# them counts the metavariables the skipped walk would have allocated.
ERRORS_AFTER_A_HIT = {
    "plus #1 (\\x. x)": "Mismatch at /: expected [1], found ?20 -> ?20",
    "(\\q. \\u. u) (times #1 #2) (\\y. y)": "AmbiguousType at /: unsolved result type ?45 -> ?45",
    "(\\p. \\u. p) (pred #3) (\\f. f f)": "OccursCheck at /1/0: occurs check: ?27 in ?27 -> ?28",
    "pred nope": "UnboundVar at /1: unbound variable 'nope'",
    "(\\q. q) (catch a. throw a plus)":
        "NonArrowFreeCatch at /1: catch bound at non-arrow-free type [1] -> [1] -> [1]",
}


@pytest.mark.parametrize("main", list(ERRORS_AFTER_A_HIT))
def test_memo_keeps_errors_after_a_hit(main):
    outcomes, hits = _check_in_order(prelude_source() + f"main = {main};")
    assert hits > 0
    assert all(outcome[0] == "ok" for outcome in outcomes[:-1])
    status, kind, message, path, _, _ = outcomes[-1]
    assert status == "error"
    assert TypingError(kind, message, path=path).render() == ERRORS_AFTER_A_HIT[main]


# Later definitions built from earlier ones, well typed or not: {a} and {b}
# name earlier definitions.
_COMBINATIONS = (
    "{a} {b}", "(\\u. \\v. v) {a} {b}", "[{a}, {b}]", "cons {a} {b}",
    "catch k. throw k {a}", "catch k. {a}", "(\\f. f f) {a}", "\\w. {a}",
    "lrec {a} (\\h. \\t. \\r. r) {b}", "({a} : [1])", "(\\u. u {a}) {b}",
    "nope {a}", "(\\u: [1]. \\v. u) {a} {b}", "(\\u. \\v. u) {a} (\\x. x)",
)


def _random_program(seed):
    rng = random.Random(seed)
    lines = []
    for i in range(8):
        if i < 3 or rng.random() < 0.25:
            body = print_term(draw(seed * 8 + i, 10, typed=rng.random() < 0.8))
        else:
            body = rng.choice(_COMBINATIONS).format(
                a=f"d{rng.randrange(i)}", b=f"d{rng.randrange(i)}")
        lines.append(f"def d{i} = {body};")
    lines.append(f"main = {rng.choice(_COMBINATIONS).format(a='d7', b='d6')};")
    return "\n".join(lines)


def test_memo_matches_a_memo_free_run_on_multi_definition_programs():
    kinds, hits = set(), 0
    for seed in range(300):
        outcomes, program_hits = _check_in_order(_random_program(seed))
        hits += program_hits
        kinds.update(outcome[1] for outcome in outcomes if outcome[0] == "error")
    assert hits > 1000
    assert kinds >= {ErrorKind.MISMATCH, ErrorKind.AMBIGUOUS_TYPE, ErrorKind.OCCURS_CHECK,
                     ErrorKind.UNBOUND_VAR, ErrorKind.NON_ARROW_FREE_CATCH}


@pytest.mark.parametrize("main", [
    "cons () d", "[(), (), d]", "c d", "[d, d]", "c (c d)", "cons (c d) []", "c [[]]",
    "cons () (c (cons () d))", "c (cons (\\x. x) [])", "catch a. c (throw a #1)",
    "c (c (\\x. x))", "[(), c d]", "c (c y)",
])
def test_cons_spine_stops_at_a_cell_with_a_memo(main):
    # d is a checked list and c a checked `cons ()`, so the spine meets
    # memos at a tail and at a cell's `cons h`
    outcomes, hits = _check_in_order(f"def d = [(), ()]; def c = cons (); main = {main};")
    assert hits > 0
    assert outcomes[:2] == [("ok", NAT), ("ok", ArrowType(NAT, NAT))]


@deep
def test_a_numeral_types_in_a_loop_when_its_cons_unit_has_a_memo():
    # the cells of `#n` share one `cons ()` node.  With a memo on it, the
    # spine loop reads that node's type at each cell and steps the counter
    # by its count, 2, as walking it would, so a memo changes nothing.
    # A deep copy is built memo-free, so the loop walks every cell
    assert sys.getrecursionlimit() <= 1000
    n = 5000
    t = copy.deepcopy(p(f"#{n}"))
    assert t._type is None
    assert infer(EMPTY, t.fun) == ArrowType(NAT, NAT)
    assert t.fun._type[1] == 2
    reference = copy.deepcopy(t)
    assert reference.fun._type is None
    assert infer(EMPTY, t) == infer(EMPTY, reference) == NAT
    assert t._type == reference._type == (NAT, 3 * n + 1)


@deep
def test_a_numeral_is_built_with_the_memos_infer_and_free_vars_store():
    # a deep copy is built memo-free, so infer and free_vars walk its cells
    # and store what `numeral` stored as it built: the type and count at
    # the root, and empty sets at each cell
    assert sys.getrecursionlimit() <= 1000
    for n in [*range(65), 100_000]:
        t = numeral(n)
        reference = copy.deepcopy(t)
        assert (reference._type, reference._free_vars) == (None, None)
        try:
            infer(EMPTY, reference)
        except TypingError:
            assert n == 0    # `[]` alone has an unsolved element type
        free_vars(reference)
        assert t._type == reference._type
        u, v = t, reference
        while type(u) is App:
            assert u._free_vars is _EMPTY and v._free_vars == _EMPTY
            assert u._type is None or u is t
            u, v = u.arg, v.arg
        assert type(v) is Nil


def test_memo_is_written_only_by_a_successful_closed_infer():
    # \x. x checks at [1] -> [1] and is derivable there, but its own type
    # is not ground, so infer rejects it and nothing is stored
    ident = p("\\x. x")
    check(EMPTY, ident, ArrowType(NAT, NAT))
    assert derivable(EMPTY, ident, ArrowType(NAT, NAT))
    assert kind_of(EMPTY, ident) is ErrorKind.AMBIGUOUS_TYPE
    assert ident._type is None
    t = p("(\\x: 1 -> 1. x) (\\y:1. y)")
    ty = ArrowType(UNIT_TYPE, UNIT_TYPE)
    check(EMPTY, t, ty)
    assert derivable(EMPTY, t, ty)
    for env in (TypingEnv(gamma={"unused": NAT}), TypingEnv(delta={"spare": UNIT_TYPE})):
        assert infer(env, t) == ty
    assert t._type is None
    assert infer(EMPTY, t) == ty
    assert t._type == (ty, 1)    # one metavariable, for the application
    assert t.fun._type is None and t.arg._type is None
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert identical(other, t) and other._type is None
