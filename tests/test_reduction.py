import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import lcatch.reduction as reduction
from lcatch.cli import render_trace
from lcatch.confluence import complete_development
from lcatch.metatheory import GenConfig, _gen_untyped, gen_term
from lcatch.prelude import prelude_defs
from lcatch.reduction import (
    Outcome, OutcomeKind, ReductionEvent, Rule, _classify, contract,
    enumerate_redexes, evaluate, step_cbv,
)
from lcatch.surface import expand_term, parse_term
from lcatch.syntax import (
    App, Catch, ConsC, Lam, LrecC, Nil, Throw, UNIT, Var, alpha_eq, canonical,
    children, fcv, free_vars, numeral, replace_at, subst, subterm_at,
)

from test_syntax import deep, draw, identical, oracle_canonical

p = parse_term


def run(src, **kw):
    return evaluate(expand_term(p(src), list(prelude_defs())), **kw)


# ------------- contract -------------


def test_contract_beta():
    rule, out = contract(p("(\\x. x) ()"))
    assert rule is Rule.BETA_V and out == UNIT


def test_contract_beta_requires_value_argument():
    assert contract(p("(\\x. x) ((\\y. y) ())")) is None


def test_contract_lrec_nil():
    rule, out = contract(p("lrec #1 s []"))
    assert rule is Rule.LREC_NIL
    assert alpha_eq(out, p("#1"))


def test_contract_lrec_cons():
    rule, out = contract(p("lrec r s (cons () [])"))
    assert rule is Rule.LREC_CONS
    assert alpha_eq(out, p("s () [] (lrec r s [])"))


def test_lrec_cons_reuses_the_redex_recursor_node():
    # the redex lister contracts the view's own slots and the machine pushes
    # the redex's `lrec base step` in its recursive-call frame, so both build
    # the recursive call on that node; development passes developed slots
    # and builds a new one
    t = p("lrec () (\\h. \\t. \\r. r) [(), ()]")
    for out in (contract(t)[1], step_cbv(t).result, evaluate(t, fuel=1).term,
                enumerate_redexes(t)[-1].result):
        assert out.arg.fun is t.fun
    developed = complete_development(t)
    assert developed.arg.fun is not t.fun
    assert identical(developed, contract(t)[1])


def test_contract_throw_in_function_position():
    rule, out = contract(App(Throw("a", UNIT), Nil()))
    assert rule is Rule.THROW and out == Throw("a", UNIT)


def test_contract_throw_in_argument_position():
    rule, out = contract(p("(\\x. x) (throw a ())"))
    assert rule is Rule.THROW and out == Throw("a", UNIT)


def test_contract_throw_through_throw():
    rule, out = contract(p("throw b throw a ()"))
    assert rule is Rule.THROW and out == Throw("a", UNIT)


def test_contract_catch_rules():
    assert contract(p("catch a. throw a x"))[0] is Rule.CATCH_1
    assert contract(p("catch a. throw b ()"))[0] is Rule.CATCH_2
    assert contract(p("catch a. cons () []"))[0] is Rule.CATCH_3


def test_contract_catch2_side_condition():
    # the payload mentions the bound continuation, so nothing fires
    assert contract(p("catch a. throw b \\x. throw a x")) is None


def test_contract_catch3_side_condition():
    assert contract(p("catch a. \\x. throw a x")) is None


def test_contract_non_redexes():
    for src in ["()", "\\x. x", "x y", "cons () []", "lrec () (\\x. x)"]:
        assert contract(p(src)) is None


def _all_subterms(t):
    yield t
    from lcatch.syntax import children
    for child in children(t):
        yield from _all_subterms(child)


# ------------- the redex view against the rule-by-rule oracle -------------


def matching_rules(t):
    """All root contractions of `t` with their contracta, each rule's
    pattern matched on its own; the oracle for `contract`."""
    out = []
    match t:
        case Catch(a, Throw(b, q)) if b == a:
            out.append((Rule.CATCH_1, Catch(a, q)))
        case Catch(a, Throw(b, v)) if b != a and v.value and a not in fcv(v):
            out.append((Rule.CATCH_2, Throw(b, v)))
    match t:
        case Catch(a, body) if body.value and a not in fcv(body):
            out.append((Rule.CATCH_3, body))
    match t:
        case App(Lam(param, _, body), arg) if arg.value:
            out.append((Rule.BETA_V, subst(body, param, arg)))
    match t:
        case App(App(App(LrecC(), base), step), Nil()) if base.value and step.value:
            out.append((Rule.LREC_NIL, base))
        case App(App(App(LrecC(), base), step), App(App(ConsC(), head), tail)) \
                if base.value and step.value and head.value and tail.value:
            rec = App(App(App(LrecC(), base), step), tail)
            out.append((Rule.LREC_CONS, App(App(App(step, head), tail), rec)))
    match t:
        case App(Throw(a, q), _):
            out.append((Rule.THROW, Throw(a, q)))
        case App(v, Throw(a, q)) if v.value:
            out.append((Rule.THROW, Throw(a, q)))
        case Throw(_, Throw(a, q)):
            out.append((Rule.THROW, Throw(a, q)))
    return out


def test_root_rules_are_mutually_exclusive():
    rng = random.Random(21)
    for _ in range(2000):
        t = _gen_untyped(rng, 12, 0)
        for sub in _all_subterms(t):
            assert len(matching_rules(sub)) <= 1


@pytest.mark.parametrize("typed", [True, False])
@pytest.mark.parametrize("max_size", [8, 14, 20])
def test_contract_matches_oracle_on_every_subterm(typed, max_size):
    for seed in range(150):
        t = draw(seed, max_size, typed)
        for sub in _all_subterms(t):
            want = matching_rules(sub)
            assert identical(contract(sub), want[0] if want else None)


# side conditions that generated terms rarely reach: a continuation free in
# the catch_2 payload or the catch_3 body, non-value slots, stuck lrec
SIDE_CONDITION_TERMS = [
    "catch a. throw b \\x. throw a x", "catch a. throw b (cons (\\x. throw a x) [])",
    "catch a. throw b ((\\x. x) ())", "catch a. throw a (throw b ())",
    "catch a. \\x. throw a x", "catch a. cons (\\y. throw a y) []", "catch a. lrec ()",
    "lrec r ((\\x. x) ()) []", "lrec r s (cons (throw a ()) [])", "lrec r s (cons () t)",
    "lrec r s ()", "lrec (throw a ()) s []", "(\\x. x) (throw a ())", "x (throw a ())",
    "(x y) (throw a ())", "throw a throw b ()", "cons (throw a ()) []",
    # values with the wrong head constant at some level of the lrec patterns
    "lrec r s (cons ())", "lrec r s (lrec r s)", "lrec r s (lrec r)", "lrec r s cons",
    "lrec r s (\\x. x)", "cons r s []", "cons r s (cons () [])",
]


def test_contract_matches_oracle_on_fixed_terms():
    terms = [t for _, t in prelude_defs()] + [p(src) for src in SIDE_CONDITION_TERMS]
    for t in terms:
        for sub in _all_subterms(t):
            want = matching_rules(sub)
            assert identical(contract(sub), want[0] if want else None)


# ------------- pinned reducts -------------


def test_reducts_match_the_pinned_ones():
    # `pinned_reducts.json` holds, for the untyped terms of seeds 0-199 at
    # size 12, each redex event (rule, path, printed result) and the printed
    # complete development, as written at commit a958849 by the implementation
    # with named binders and capture-avoiding renaming.  A change of the term
    # representation is checked against it without sharing any oracle code;
    # terms are compared up to alpha by parsing the text.
    cases = json.loads((Path(__file__).parent / "pinned_reducts.json").read_text())
    assert len(cases) == 200
    for case in cases:
        t = draw(case["seed"], 12, typed=False)
        assert alpha_eq(t, p(case["term"]))
        events = enumerate_redexes(t)
        assert [(e.rule.value, list(e.path)) for e in events] == \
            [(rule, path) for rule, path, _ in case["redexes"]]
        for event, (_, _, result) in zip(events, case["redexes"]):
            assert alpha_eq(event.result, p(result)), result
        assert alpha_eq(complete_development(t), p(case["development"]))


# ------------- enumerate_redexes -------------


def test_enumerate_normal_form():
    assert enumerate_redexes(p("\\x. x")) == []


def test_enumerate_cons_throw_has_single_inner_event():
    events = enumerate_redexes(p("cons (throw a r) t"))
    assert len(events) == 1
    assert events[0].rule is Rule.THROW
    assert events[0].path == (0,)
    assert alpha_eq(events[0].result, p("(throw a r) t"))


def test_enumerate_catch_with_inner_beta():
    events = enumerate_redexes(p("catch a. throw a ((\\x. x) ())"))
    assert [(e.rule, e.path) for e in events] == [
        (Rule.BETA_V, (0, 0)),  # innermost first
        (Rule.CATCH_1, ()),
    ]


def test_enumerate_descends_under_lambda():
    events = enumerate_redexes(p("\\x. (\\y. y) ()"))
    assert [e.rule for e in events] == [Rule.BETA_V]


def postorder_paths(t, path=()):
    for i, child in enumerate(children(t)):
        yield from postorder_paths(child, path + (i,))
    yield path


def test_enumerate_event_results_are_consistent():
    rng = random.Random(22)
    terms = [_gen_untyped(rng, 12, 0) for _ in range(400)]
    terms += [gen_term(GenConfig(seed=seed, max_size=20)) for seed in range(400)]
    for t in terms:
        events = enumerate_redexes(t)
        # exactly the positions whose subterm contracts, in postorder
        assert [event.path for event in events] == [
            path for path in postorder_paths(t) if contract(subterm_at(t, path)) is not None]
        for event in events:
            redex = subterm_at(t, event.path)
            rule, contractum = contract(redex)
            assert rule is event.rule
            assert identical(replace_at(t, event.path, contractum), event.result)


def oracle_redexes(t):
    """The recursive lister: the events of each child's subterm, then the
    subterm's own, with the path grown one index a level and the contractum
    put in place by `replace_at`."""
    events = []

    def walk(u, path):
        for i, child in enumerate(children(u)):
            walk(child, path + (i,))
        found = contract(u)
        if found is not None:
            rule, contractum = found
            events.append(ReductionEvent(rule, path, replace_at(t, path, contractum)))

    walk(t, ())
    return events


@pytest.mark.parametrize("typed", [True, False])
@pytest.mark.parametrize("max_size", [8, 14, 20])
def test_enumerate_matches_the_recursive_oracle_on_generated_terms(typed, max_size):
    for seed in range(150):
        t = draw(seed, max_size, typed)
        assert identical(enumerate_redexes(t), oracle_redexes(t))


PRELUDE_PROGRAMS = [
    "plus #3 #2", "times #3 #3", "pred #4", "pred #0", "prodz [#2, #0, #3]",
    "prodz [#2, #3]", "catch a. plus #2 (throw a #1)",
]


@pytest.mark.parametrize("src", PRELUDE_PROGRAMS)
def test_enumerate_matches_the_recursive_oracle_on_prelude_programs(src):
    # the program and every term its run passes through
    t = expand_term(p(src), list(prelude_defs()))
    for u in [t] + [event.result for event in evaluate(t, keep_trace=True).trace]:
        assert identical(enumerate_redexes(u), oracle_redexes(u))


# ------------- step_cbv -------------


def test_step_evaluates_argument_after_function():
    event = step_cbv(p("(\\x. x) ((\\y. y) ())"))
    assert event.rule is Rule.BETA_V and event.path == (1,)


def test_step_catch3_at_root():
    event = step_cbv(p("catch a. cons () []"))
    assert event.rule is Rule.CATCH_3
    assert alpha_eq(event.result, p("cons () []"))


def test_step_returns_none_for_values():
    assert step_cbv(p("\\x. (\\y. y) ()")) is None


def test_step_returns_none_for_uncaught_throw():
    assert step_cbv(p("throw b ()")) is None


def test_step_descends_into_throw_payload():
    event = step_cbv(p("throw b ((\\x. x) ())"))
    assert event.rule is Rule.BETA_V and event.path == (0,)


def test_step_agrees_with_enumeration():
    rng = random.Random(23)
    for _ in range(500):
        t = _gen_untyped(rng, 12, 0)
        event = step_cbv(t)
        if event is None:
            continue
        keys = {canonical(e.result) for e in enumerate_redexes(t)}
        assert canonical(event.result) in keys


def test_step_deterministic_up_to_alpha():
    # stepping an alpha-variant gives an alpha-equal result
    for seed in range(200):
        t = gen_term(GenConfig(seed=seed, max_size=16))
        e1, e2 = step_cbv(t), step_cbv(oracle_canonical(t))
        assert (e1 is None) == (e2 is None)
        if e1 is not None:
            assert alpha_eq(e1.result, e2.result)


def test_closed_typed_terms_evaluate_to_values():
    # progress + subject reduction: the machine never gets stuck and, with
    # no free continuations, never ends on a throw
    for seed in range(300):
        t = gen_term(GenConfig(seed=seed, max_size=16))
        out = evaluate(t)
        assert out.kind is OutcomeKind.VALUE
        assert out.term.value


def test_typed_redex_free_terms_are_values_or_throws():
    # the normal-form lemma, checked over every reduct of generated terms
    for seed in range(200):
        t = gen_term(GenConfig(seed=seed, max_size=14))
        frontier = [t]
        for _ in range(4):
            nxt = []
            for u in frontier:
                events = enumerate_redexes(u)
                if not events:
                    assert u.value or (
                        isinstance(u, Throw) and u.payload.value)
                nxt.extend(e.result for e in events[:3])
            frontier = nxt[:12]


# ------------- evaluate -------------


def test_evaluate_product_example():
    out = run("prodz [#4, #0, #9]")
    assert out.kind is OutcomeKind.VALUE
    assert alpha_eq(out.term, numeral(0))


def test_evaluate_pred():
    out = run("pred #3", keep_trace=True)
    assert alpha_eq(out.term, numeral(2))
    assert out.steps == len(out.trace)


def test_evaluate_uncaught_throw():
    out = evaluate(Throw("b", UNIT), fuel=10)
    assert out.kind is OutcomeKind.UNCAUGHT_THROW
    assert out.term.cont == "b"
    assert out.term.payload.value


def test_evaluate_omega_runs_out_of_fuel():
    out = evaluate(p("(\\x. x x) (\\x. x x)"), fuel=50)
    assert out.kind is OutcomeKind.OUT_OF_FUEL
    assert out.steps == 50


def test_evaluate_stuck_untyped_term():
    out = evaluate(p("() ()"), fuel=10)
    assert out.kind is OutcomeKind.ILL_FORMED


def test_evaluate_rejects_negative_fuel():
    with pytest.raises(ValueError):
        evaluate(UNIT, fuel=-1)


def test_evaluate_zero_fuel_on_value():
    assert evaluate(UNIT, fuel=0).kind is OutcomeKind.VALUE


def test_trace_lines_format():
    out = evaluate(p("(\\x:1. x) ()"), keep_trace=True)
    assert render_trace(out) == ["step 1: [beta_v] ()"]


def test_steps_count_rule_applications_exactly():
    # two betas, no charge for frame navigation
    out = evaluate(p("(\\x. x) ((\\y. y) ())"))
    assert out.steps == 2


@pytest.mark.parametrize("src, counts", [
    ("times #5 #5", {"beta_v": 114, "lrec_cons": 30, "lrec_nil": 6}),
    ("pred #3", {"beta_v": 5, "catch_1": 1, "catch_3": 1, "lrec_cons": 1, "throw": 1}),
    ("prodz [#2, #0, #9]",
     {"beta_v": 17, "catch_1": 1, "catch_3": 1, "lrec_cons": 4, "lrec_nil": 2, "throw": 2}),
    ("catch a. (\\x. x) (catch b. throw a (catch c. throw b #1))",
     {"beta_v": 1, "catch_1": 1, "catch_2": 1, "catch_3": 2, "throw": 1}),
])
def test_steps_per_rule(src, counts):
    # the paper's observable, rule by rule
    out = run(src, keep_trace=True)
    assert out.kind is OutcomeKind.VALUE
    assert Counter(e.rule.value for e in out.trace) == counts
    assert out.steps == sum(counts.values())


@deep
def test_a_chain_of_closures_reads_back_without_a_frame_per_link():
    # the value nests n closures `\x. r x`, each with `r` bound to the next
    # one in; they are read back innermost first, in a loop
    n = 5000
    out = evaluate(p(f"lrec (\\x. x) (\\h. \\t. \\r. \\x. r x) #{n}"))
    assert (out.kind, out.steps) == (OutcomeKind.VALUE, 4 * n + 1)
    u = out.term
    for _ in range(n):
        assert type(u) is Lam and type(u.body) is App and identical(u.body.arg, Var("x"))
        u = u.body.fun
    assert identical(u, p("\\x. x"))


# ------------- the machine against the root-redescent oracle -------------


def oracle_step(t):
    """The CBV step by a fresh walk from the root and a spine rebuild."""

    def descend(u, path):
        c = contract(u)
        if c is not None:
            return (c[0], path, c[1])
        match u:
            case App(fun, arg):
                if not fun.value:
                    return descend(fun, path + (0,))
                if not arg.value:
                    return descend(arg, path + (1,))
                return None
            case Throw(_, payload):
                if not payload.value:
                    return descend(payload, path + (0,))
                return None
            case Catch(_, body):
                return descend(body, path + (0,))
        return None

    if t.value:
        return None
    found = descend(t, ())
    if found is None:
        return None
    rule, path, contractum = found
    return ReductionEvent(rule, path, replace_at(t, path, contractum))


def oracle_evaluate(t, fuel, keep_trace=False):
    """Iterate oracle_step for at most `fuel` rule applications."""
    trace = [] if keep_trace else None
    steps = 0
    while steps < fuel:
        event = oracle_step(t)
        if event is None:
            return Outcome(_classify(t), t, steps, trace)
        steps += 1
        t = event.result
        if trace is not None and len(trace) < reduction.TRACE_CAP:
            trace.append(event)
    if oracle_step(t) is None:
        return Outcome(_classify(t), t, steps, trace)
    return Outcome(OutcomeKind.OUT_OF_FUEL, t, steps, trace)


def _assert_same_run(t, fuel):
    got = evaluate(t, fuel=fuel, keep_trace=True)
    want = oracle_evaluate(t, fuel, keep_trace=True)
    assert identical((got.kind, got.term, got.steps), (want.kind, want.term, want.steps))
    assert identical([(e.rule, e.path, e.result) for e in got.trace],
                     [(e.rule, e.path, e.result) for e in want.trace])


@pytest.mark.parametrize("typed", [True, False])
@pytest.mark.parametrize("max_size", [8, 14, 20, 30])
def test_machine_matches_oracle_on_generated_terms(typed, max_size):
    for seed in range(60):
        t = draw(seed, max_size, typed)
        assert identical(step_cbv(t), oracle_step(t))
        for fuel in (0, 1, 2, 5, 50):
            _assert_same_run(t, fuel)


@pytest.mark.parametrize("src", PRELUDE_PROGRAMS)
def test_machine_matches_oracle_on_prelude_programs(src):
    t = expand_term(p(src), list(prelude_defs()))
    _assert_same_run(t, reduction.DEFAULT_FUEL)


def test_machine_matches_oracle_past_trace_cap(monkeypatch):
    monkeypatch.setattr(reduction, "TRACE_CAP", 7)
    t = expand_term(p("times #2 #2"), list(prelude_defs()))
    _assert_same_run(t, reduction.DEFAULT_FUEL)
    out = evaluate(t, keep_trace=True)
    assert len(out.trace) < out.steps


# every fuel from 0 to the run's step count, so an out-of-fuel stop lands
# after each kind of transition the machine fuses, the frames lrec_cons
# pushes included
@pytest.mark.parametrize("src", [
    "times #3 #3", "plus #4 #3", "pred #6", "prodz [#2, #0, #3]", "prodz [#2, #1, #3]",
])
def test_machine_matches_oracle_at_every_fuel(src):
    t = expand_term(p(src), list(prelude_defs()))
    steps = evaluate(t).steps
    for fuel in range(steps + 1):
        _assert_same_run(t, fuel)


# open terms at the machine's transitions, with the outcome each ends in
@pytest.mark.parametrize("src, kind, steps, result", [
    # an application of two free variables, and a function of a free one
    ("f x", OutcomeKind.ILL_FORMED, 0, "f x"),
    ("(\\x. \\y. x y) f", OutcomeKind.VALUE, 1, "\\y. f y"),
    # beta into a variable body, the argument free
    ("(\\y. y) x", OutcomeKind.VALUE, 1, "x"),
    ("(\\y. f y) x", OutcomeKind.ILL_FORMED, 1, "f x"),
    ("() x", OutcomeKind.ILL_FORMED, 0, "() x"),
    # `cons () y` with `y` free, and with `y` bound to a closure read back
    ("cons () y", OutcomeKind.VALUE, 0, "cons () y"),
    ("(\\w. (\\y. cons () y) (\\z. w)) ()", OutcomeKind.VALUE, 2, "cons () (\\z. ())"),
    ("(\\y. cons f y) ()", OutcomeKind.VALUE, 1, "cons f ()"),
    # the recursive call lrec_cons pushes meets a free tail and is stuck
    ("lrec r (\\h. \\u. \\k. k) (cons () t)", OutcomeKind.ILL_FORMED, 3,
     "(\\k. k) (lrec r (\\h. \\u. \\k. k) t)"),
])
def test_machine_matches_oracle_on_open_terms(src, kind, steps, result):
    t = p(src)
    out = evaluate(t)
    assert (out.kind, out.steps) == (kind, steps)
    assert identical(out.term, p(result))
    # the free-variable memo the machine stores on a cell it builds is the
    # one a walk of a memo-free copy computes
    assert free_vars(out.term) == free_vars(copy.deepcopy(out.term))
    for fuel in range(steps + 2):
        _assert_same_run(t, fuel)


def test_machine_shares_no_rule_code_with_contract(monkeypatch):
    # a planted lrec_cons that swaps head and tail reaches the oracle through
    # `contract`; the machine states its rules itself, so the runs part
    real = reduction.contractum

    def swapped(rule, t, slots):
        if rule is Rule.LREC_CONS:
            base, step, head, tail = slots
            slots = (base, step, tail, head)
        return real(rule, t, slots)

    monkeypatch.setattr(reduction, "contractum", swapped)
    t = expand_term(p("times #2 #2"), list(prelude_defs()))
    with pytest.raises(AssertionError):
        _assert_same_run(t, reduction.DEFAULT_FUEL)


@pytest.mark.parametrize("program", ["plus #{n} #7", "times #{n} #{n}"])
def test_contractions_per_step_stay_constant_as_terms_grow(monkeypatch, program):
    # the machine builds a node where a value forms (a cons cell, a partial
    # application) or an open argument is substituted, never to rebuild the
    # term around a contraction, so the nodes built per step do not grow
    # with the term.  `oracle_evaluate`, which rebuilds the spine from the
    # root, builds about 4 per step at n = 5 and 20 to 40 at n = 40.
    built = 0
    for cls in (Var, Lam, App, Catch, Throw):
        def counting(cls, *fields, _new=cls.__new__):
            nonlocal built
            built += 1
            return _new(cls, *fields)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    defs = list(prelude_defs())
    for n in (5, 20, 40):
        t = expand_term(p(program.format(n=n)), defs)
        built = 0
        out = evaluate(t)
        assert out.kind is OutcomeKind.VALUE
        assert built <= out.steps


def test_a_traced_run_reads_back_no_term_past_the_trace_cap(monkeypatch):
    # counted as in the test above; an event's term is read back only
    # while the trace has room, so at cap 0 tracing builds no node
    built = 0
    for cls in (Var, Lam, App, Catch, Throw):
        def counting(cls, *fields, _new=cls.__new__):
            nonlocal built
            built += 1
            return _new(cls, *fields)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    monkeypatch.setattr(reduction, "TRACE_CAP", 0)
    t = expand_term(p("times #5 #5"), list(prelude_defs()))
    counts = []
    for keep_trace in (False, True):
        built = 0
        out = evaluate(t, keep_trace=keep_trace)
        counts.append(built)
    assert counts[0] == counts[1]
    assert out.trace == []
    assert len(out.trace) < out.steps
