import random

import pytest

from lcatch import confluence, metatheory
from lcatch.confluence import (
    complete_development, parallel_reducts, reachable_by_reduction, throw_decompositions,
)
from lcatch.metatheory import GenConfig, _gen_untyped, run_property
from lcatch.reduction import enumerate_redexes
from lcatch.surface import parse_term, print_term
from lcatch.syntax import (
    App, Catch, ConsC, Lam, LrecC, Nil, Throw, UNIT, Var, alpha_eq, canonical,
    fcv, free_vars, numeral, subst, subterm_at,
)

from test_syntax import draw, identical

p = parse_term


def keys(terms):
    return {canonical(t) for t in terms}


def contains(terms, t):
    return canonical(t) in keys(terms)


# ------------- compound contexts -------------


def _spine_throws(t):
    """(path, throw) for each throw on the frame spine of `t`, outermost
    first: into a non-value function, into the argument under a value
    function, through throw payloads."""
    out, path = [], ()
    while True:
        match t:
            case App(fun, arg) if fun.value:
                t, path = arg, path + (1,)
            case App(fun, _):
                t, path = fun, path + (0,)
            case Throw(_, payload):
                out.append((path, t))
                t, path = payload, path + (0,)
            case _:
                return out


def test_decompositions_reassemble():
    rng = random.Random(31)
    for _ in range(400):
        t = _gen_untyped(rng, 12, 0)
        spine = _spine_throws(t)
        throws = throw_decompositions(t)
        assert len(throws) == len(spine)
        for throw, (path, expected) in zip(throws, spine):
            assert throw is expected
            assert subterm_at(t, path) is throw
            assert isinstance(throw, Throw)


def test_decompositions_require_value_functions():
    # the hole may enter an argument only under a value function
    assert throw_decompositions(p("(x y) (throw a ())")) == []
    assert len(throw_decompositions(p("x (throw a ())"))) == 1


# ------------- complete development -------------


def test_develop_beta():
    assert complete_development(p("(\\x. x) ()")) == UNIT


def test_develop_catch_of_matching_throw():
    out = complete_development(p("catch a. throw a ()"))
    assert alpha_eq(out, p("catch a. ()"))


def test_develop_throw_jumps_maximally():
    out = complete_development(p("throw a throw b ()"))
    assert out == Throw("b", UNIT)
    out = complete_development(p("throw a ((throw b ()) x)"))
    assert out == Throw("b", UNIT)


def test_develop_lrec_nil():
    assert alpha_eq(complete_development(p("lrec #1 s []")), p("#1"))


def test_develop_lrec_cons():
    out = complete_development(p("lrec r s (cons () [])"))
    assert alpha_eq(out, p("s () [] (lrec r s [])"))


def test_develop_contracts_everywhere_at_once():
    out = complete_development(p("((\\x. x) ()) ((\\y. y) [])"))
    assert alpha_eq(out, p("() []"))


def test_develop_respects_catch_side_conditions():
    # alpha occurs free in the value: no catch rule applies
    t = p("catch a. \\x. throw a x")
    assert alpha_eq(complete_development(t), t)


def test_second_develop_round_applies_catch3():
    once = complete_development(p("catch a. throw a ()"))
    assert complete_development(once) == UNIT


def test_develop_walks_a_long_list_in_linear_time(monkeypatch):
    # a list with no free continuation has no throw on any frame spine, so
    # the development never walks one; a throw at the end of a long spine
    # is still found, by one walk from the root
    calls = 0
    real = confluence.throw_decompositions

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(confluence, "throw_decompositions", counting)
    n800 = numeral(800)
    assert complete_development(n800) == n800
    assert calls == 0
    t = Throw("a", UNIT)
    for _ in range(800):
        t = App(App(ConsC(), UNIT), t)
    assert repr(complete_development(t)) == "Throw(cont='a', payload=UnitVal())"
    assert calls == 1


def test_develop_walks_the_frame_spine_of_a_list_with_a_free_continuation_once(monkeypatch):
    # every cell holds `a` free, so each passes the `fcv` guard; under a
    # value function the frame spine goes on in the argument, so the walk
    # from the first cell covers every later one
    n = 800
    t = p("catch a. [" + ", ".join(["\\x. throw a x"] * n) + "]")
    cells = set()
    u = t.body
    while type(u) is App:
        cells.add(id(u))
        u = u.arg
    walked = []
    real = confluence.throw_decompositions

    def counting(u):
        if id(u) in cells:
            walked.append(u)
        return real(u)

    monkeypatch.setattr(confluence, "throw_decompositions", counting)
    assert complete_development(t) == t
    assert walked == [t.body]


# ------------- parallel reducts -------------


def test_preds_reflexive_singleton_for_atoms():
    assert parallel_reducts(UNIT) == [UNIT]


def test_preds_beta_redex():
    out = parallel_reducts(p("(\\x. x) ()"))
    assert len(out) == 2
    assert contains(out, p("(\\x. x) ()"))
    assert contains(out, UNIT)


def test_preds_throw_chain_matches_jump_rule():
    # each reduct keeps exactly one spine throw and its own payload; an
    # outer throw can never reach past its payload's throws
    chain = p("throw a throw b throw c ()")
    out = parallel_reducts(chain)
    assert contains(out, p("throw b throw c ()"))
    assert contains(out, p("throw c ()"))
    assert contains(out, p("throw a throw c ()"))
    assert not contains(out, p("throw a ()"))
    assert len(out) == 4


def test_is_parallel_step_reflexive():
    rng = random.Random(32)
    for _ in range(200):
        t = _gen_untyped(rng, 10, 0)
        assert t in parallel_reducts(t)


def test_is_parallel_step_examples():
    assert UNIT in parallel_reducts(p("(\\x. x) ()"))
    assert p("(\\x. x) ()") not in parallel_reducts(UNIT)  # no expansion


def test_parallel_step_validity():
    assert UNIT in parallel_reducts(p("(\\x. x) ()"))
    assert p("(\\x. x) ()") not in parallel_reducts(UNIT)
    rng = random.Random(44)
    for _ in range(100):
        t = _gen_untyped(rng, 10, 0)
        for u in parallel_reducts(t):
            assert u in parallel_reducts(t)


# ------------- confluence properties on random terms -------------

CASES = 300
MAX_SIZE = 12


def _random_terms(n, seed=33):
    rng = random.Random(seed)
    return [_gen_untyped(rng, MAX_SIZE, 0) for _ in range(n)]


def test_one_step_reduction_is_parallel_reduction():
    for t in _random_terms(CASES):
        reduct_keys = keys(parallel_reducts(t))
        for event in enumerate_redexes(t):
            assert canonical(event.result) in reduct_keys, print_term(t)


def test_parallel_reduction_is_multi_step_reduction():
    for t in _random_terms(CASES, seed=34):
        for u in parallel_reducts(t):
            assert reachable_by_reduction(t, u), (print_term(t), print_term(u))


# ------------- the reachability search's budget -------------

TWO_STEPS = "(\\x. x) ((\\y. y) ())"


def test_reachability_meets_a_reduct_two_steps_away():
    assert reachable_by_reduction(p(TWO_STEPS), UNIT) is True


def test_reachability_is_false_once_the_graph_is_exhausted():
    assert reachable_by_reduction(UNIT, Nil()) is False


def test_reachability_settles_nothing_once_its_budget_is_spent(monkeypatch):
    # the first reduction looked at leads to `(\x. x) ()`, not to `()`
    monkeypatch.setattr(confluence, "_REACH_BUDGET", 1)
    assert reachable_by_reduction(p(TWO_STEPS), UNIT) is None


def test_pred_subset_redd_counts_a_spent_budget_as_inconclusive(monkeypatch):
    monkeypatch.setattr(confluence, "_REACH_BUDGET", 1)
    report = run_property("PredSubsetRedd", 50, GenConfig(seed=0, max_size=12))
    assert report.passed
    assert report.inconclusive == 20


def test_pred_subset_redd_fails_when_one_reduct_is_unreached_and_another_unsettled(monkeypatch):
    asked = []

    def reachable(start, target):
        asked.append(target)
        return None if len(asked) == 1 else False

    monkeypatch.setattr(metatheory, "reachable_by_reduction", reachable)
    detail = metatheory._check_pred_subset_redd(p(TWO_STEPS))
    assert len(asked) == 2
    assert detail == f"parallel reduct {print_term(asked[1])} not reached by ->*"


def test_the_default_budget_settles_every_size_20_case():
    # every parallel reduct of these draws is met within 9 steps
    report = run_property("PredSubsetRedd", 200, GenConfig(seed=0, max_size=20))
    assert report.passed
    assert report.inconclusive == 0


def test_takahashi_property():
    # every parallel reduct steps to the complete development
    for t in _random_terms(CASES, seed=35):
        developed = complete_development(t)
        for u in parallel_reducts(t):
            assert contains(parallel_reducts(u), developed), \
                (print_term(t), print_term(u))


def test_diamond_property_witnessed_by_development():
    for t in _random_terms(120, seed=36):
        developed = complete_development(t)
        reducts = parallel_reducts(t)
        memberships = {
            id(u): contains(parallel_reducts(u), developed)
            for u in reducts
        }
        # the development joins every pair of parallel reducts
        assert all(memberships.values()), print_term(t)


def test_values_parallel_reduce_to_values():
    for t in _random_terms(400, seed=37):
        if not t.value:
            continue
        for u in parallel_reducts(t):
            assert u.value


def test_free_variable_monotonicity_under_parallel_reduction():
    for t in _random_terms(300, seed=38):
        before = free_vars(t)
        for u in parallel_reducts(t):
            after = free_vars(u)
            assert after.term_vars <= before.term_vars
            assert after.cont_vars <= before.cont_vars


def test_development_is_itself_a_parallel_reduct():
    for t in _random_terms(CASES, seed=39):
        assert contains(parallel_reducts(t), complete_development(t))


# ------------- join -------------


def join(t1, t2, max_rounds=16):
    """Search for a common reduct by developing both sides in lockstep,
    comparing them modulo alpha after each round; None means the search
    was exhausted, not that no common reduct exists."""
    a, b = t1, t2
    for _ in range(max_rounds + 1):
        if a == b:
            return a
        a = complete_development(a)
        b = complete_development(b)
    return None


def test_join_identical_terms():
    t = p("catch a. throw a ()")
    assert alpha_eq(join(t, t), t)


def test_join_beta():
    assert join(UNIT, p("(\\x. x) ()")) == UNIT


def test_join_catch_pair():
    out = join(p("catch a. ()"), p("catch a. throw a ()"))
    assert out == UNIT


def test_join_exhaustion_returns_none():
    assert join(Var("x"), Var("y"), max_rounds=3) is None


# ------------- development and parallel reducts against rule-by-rule oracles -------------


def oracle_throws(t):
    """The throws on the compound-context spine of `t`, outermost first."""
    out = []
    while True:
        match t:
            case App(fun, arg):
                t = arg if fun.value else fun
            case Throw(_, payload):
                out.append(t)
                t = payload
            case _:
                return out


def oracle_development(t):
    """Complete development with each rule's pattern matched on its own."""
    match t:
        case App(Lam(param, _, body), arg) if arg.value:
            return subst(oracle_development(body), param, oracle_development(arg))
        case App(App(App(LrecC(), base), step), Nil()) \
                if base.value and step.value:
            return oracle_development(base)
        case App(App(App(LrecC(), base), step), App(App(ConsC(), head), tail)) \
                if base.value and step.value and head.value and tail.value:
            b, s = oracle_development(base), oracle_development(step)
            h, tl = oracle_development(head), oracle_development(tail)
            return App(App(App(s, h), tl), App(App(App(LrecC(), b), s), tl))
        case App() | Throw():
            throws = oracle_throws(t)
            if throws:
                throw = throws[-1]
                return Throw(throw.cont, oracle_development(throw.payload))
            match t:
                case App(fun, arg):
                    return App(oracle_development(fun), oracle_development(arg))
            raise AssertionError("throw root always decomposes")
        case Catch(cont, Throw(cont2, payload)) if cont2 == cont:
            return Catch(cont, oracle_development(payload))
        case Catch(cont, Throw(cont2, payload)) \
                if cont2 != cont and payload.value and cont not in fcv(payload):
            return Throw(cont2, oracle_development(payload))
        case Catch(cont, body) if body.value and cont not in fcv(body):
            return oracle_development(body)
        case Catch(cont, body):
            return Catch(cont, oracle_development(body))
        case Lam(param, annot, body):
            return Lam(param, annot, oracle_development(body))
    return t


def oracle_dedup(terms):
    """The first term of each alpha class, by a pairwise alpha_eq scan."""
    out = []
    for u in terms:
        if not any(alpha_eq(u, v) for v in out):
            out.append(u)
    return out


def oracle_preds(t):
    """Parallel reducts with each rule's pattern matched on its own."""
    def gen():
        match t:
            case App(fun, arg):
                fun_reducts = oracle_preds(fun)
                arg_reducts = oracle_preds(arg)
                for f in fun_reducts:
                    for a in arg_reducts:
                        yield App(f, a)
                match fun:
                    case Lam(param, _, body) if arg.value:
                        for b in oracle_preds(body):
                            for a in arg_reducts:
                                yield subst(b, param, a)
                match t:
                    case App(App(App(LrecC(), base), step), Nil()) \
                            if base.value and step.value:
                        yield from oracle_preds(base)
                    case App(App(App(LrecC(), base), step),
                             App(App(ConsC(), head), tail)) \
                            if base.value and step.value \
                            and head.value and tail.value:
                        for b in oracle_preds(base):
                            for s in oracle_preds(step):
                                for h in oracle_preds(head):
                                    for tl in oracle_preds(tail):
                                        yield App(App(App(s, h), tl),
                                                  App(App(App(LrecC(), b), s), tl))
                for throw in oracle_throws(t):
                    for p in oracle_preds(throw.payload):
                        yield Throw(throw.cont, p)
            case Throw():
                for throw in oracle_throws(t):
                    for p in oracle_preds(throw.payload):
                        yield Throw(throw.cont, p)
            case Catch(cont, body):
                for b in oracle_preds(body):
                    yield Catch(cont, b)
                match body:
                    case Throw(cont2, payload) if cont2 == cont:
                        for p in oracle_preds(payload):
                            yield Catch(cont, p)
                    case Throw(cont2, payload) \
                            if cont2 != cont and payload.value \
                            and cont not in fcv(payload):
                        for p in oracle_preds(payload):
                            yield Throw(cont2, p)
                if body.value and cont not in fcv(body):
                    yield from oracle_preds(body)
            case Lam(param, annot, body):
                for b in oracle_preds(body):
                    yield Lam(param, annot, b)

    match t:
        case App() | Throw() | Catch() | Lam():
            return oracle_dedup(gen())
    return [t]


def _assert_matches_oracles(t):
    assert identical(complete_development(t), oracle_development(t))
    assert identical(parallel_reducts(t), oracle_preds(t))


@pytest.mark.parametrize("max_size", [8, 12, 14, 20])
def test_development_and_reducts_match_oracles(max_size):
    for seed in range(150):
        _assert_matches_oracles(draw(seed, max_size, typed=False))


@pytest.mark.parametrize("src", [
    "catch a. throw b \\x. throw a x", "catch a. throw b ((\\x. x) ())",
    "catch a. throw a (throw b ())", "catch a. cons (\\y. throw a y) []",
    "lrec r ((\\x. x) ()) []", "lrec r s (cons (throw a ()) [])", "lrec r s (cons () t)",
    "(\\x. x) (throw a ())", "(x y) (throw a ())", "throw a ((throw b ()) x)",
])
def test_development_and_reducts_match_oracles_on_side_conditions(src):
    # a continuation free in the catch_2 payload, non-value slots, stuck lrec
    _assert_matches_oracles(p(src))


def test_reducts_match_oracle_on_shared_subterm_objects():
    rng = random.Random(42)
    for _ in range(150):
        s = _gen_untyped(rng, 6, 0)
        for t in [App(s, s)] + [App(u, s) for u in parallel_reducts(s)[:3]]:
            assert identical(parallel_reducts(t), oracle_preds(t))


def test_reducts_are_stable_across_calls_and_caller_mutation():
    for seed in range(150):
        t = draw(seed, 12, typed=False)
        expected = oracle_preds(t)
        first = parallel_reducts(t)
        assert identical(first, expected)
        first.reverse()
        first.append(UNIT)
        assert identical(parallel_reducts(t), expected)
        assert parallel_reducts(t) is not parallel_reducts(t)
