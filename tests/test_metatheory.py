import gc
import hashlib
import random

import pytest

from lcatch import metatheory
from lcatch.metatheory import (
    GenConfig, PROPERTIES, PropertyReport, _draw_arrow_free, _draw_non_value, _draw_untyped,
    _gen_untyped, _gen_with_rng, _value_shape_ok, gen_term, minimize, reduction_graph_status,
    run_property,
)
from lcatch.prelude import prelude_defs
from lcatch.reduction import Outcome, OutcomeKind, Rule, enumerate_redexes, evaluate
from lcatch.surface import expand_term, parse_term, print_term
from lcatch.syntax import (
    CONS, App, ArrowType, Catch, ListType, Nil, UNIT, UNIT_TYPE, alpha_eq, canonical, size,
)
from lcatch.typecheck import TypingEnv, infer

p = parse_term
EMPTY = TypingEnv()


# ------------- generation -------------


def test_gen_term_is_deterministic():
    for seed in (0, 5, 99):
        cfg = GenConfig(seed=seed, max_size=16)
        assert alpha_eq(gen_term(cfg), gen_term(cfg))


def test_typed_generation_is_sound():
    for seed in range(1000):
        t = gen_term(GenConfig(seed=seed, max_size=18))
        infer(EMPTY, t)  # must not raise


def test_typed_generation_hits_target_type():
    for seed in range(100):
        t = _gen_with_rng(random.Random(seed), 14, UNIT_TYPE)
        assert infer(EMPTY, t) == UNIT_TYPE


def test_typed_generation_fallback_types_at_target():
    # all twenty typed draws for this seed leave a list element type open,
    # so the generator falls back to a canonical inhabitant of [[1]]
    from lcatch.syntax import ListType, UNIT_TYPE
    cfg = GenConfig(seed=5000240, max_size=20)
    assert infer(EMPTY, gen_term(cfg)) == ListType(ListType(UNIT_TYPE))
    report = run_property("SubjectReduction", 1, cfg)
    assert report.render() == "PROP SubjectReduction CASES 1 FAILURES 0"


def test_untyped_generation_exercises_control():
    rng = random.Random(41)
    shapes = set()
    for _ in range(400):
        t = _gen_untyped(rng, 12, 0)
        shapes.add(type(t).__name__)
    assert {"Catch", "Throw", "App", "Lam"} <= shapes


def test_generator_rule_coverage():
    # every reduction rule shows up in the graphs of generated terms
    seen = set()
    for seed in range(3000):
        t = gen_term(GenConfig(seed=seed, max_size=20))
        for event in enumerate_redexes(t):
            seen.add(event.rule)
        if len(seen) == len(Rule):
            break
    assert seen == set(Rule)


# SHA-256 of the printed draws, one per line, for seeds 0-499: (typed,
# untyped, typed non-value, typed arrow-free) per size, so every draw of
# PROPERTY_TABLE is pinned.  A change to a generator changes these on purpose.
_DRAW_DIGESTS = {
    12: ("ef4740102f69dce3bb144e3f022c996a7afe2823367ede9c933f7c1660b33fb4",
         "c7bd71f299b686cda9bd9315b86574a9d2348ccd33e88c190b417ce114859143",
         "c9949c5fd6d0dff6927b29ddf4caa288371bc1eae98c619d2265b43affb9a7db",
         "743882a9afa6cacce333bcf1e172642c8656fba9cfa6a236aaf6b8648866fff8"),
    20: ("9c8e6c74c5d2b6cdac0ff51264152651ae2f5066de81dacbd14df08ddec81725",
         "c491de74be3b7f2ec062d69818ec3a8f85dcabeca38688a725fac17f92b3ebb4",
         "de1919c02eed2ad146ae2dfe60dd0344fafad6dfa812dcdcc24c06446fb8ddba",
         "3ac263b83db939624a8a9d44bb8a26590fae4d68642cbccb80a01111fc3d652a"),
}


@pytest.mark.parametrize("max_size", sorted(_DRAW_DIGESTS))
def test_draws_are_pinned(max_size):
    draws = (lambda rng, cfg: gen_term(cfg), _draw_untyped, _draw_non_value, _draw_arrow_free)
    digests = [hashlib.sha256() for _ in draws]
    for seed in range(500):
        cfg = GenConfig(seed=seed, max_size=max_size)
        for draw, digest in zip(draws, digests):
            digest.update(print_term(draw(random.Random(seed), cfg)).encode() + b"\n")
    assert tuple(digest.hexdigest() for digest in digests) == _DRAW_DIGESTS[max_size]


def test_gen_config_validates_max_size():
    with pytest.raises(ValueError):
        GenConfig(max_size=0)


# ------------- properties -------------


def test_all_properties_pass_smoke():
    typed_cfg = GenConfig(seed=0, max_size=16)
    untyped_cfg = GenConfig(seed=0, max_size=10)
    for prop in PROPERTIES:
        cfg = typed_cfg if prop in ("SubjectReduction", "Progress",
                                    "StrongNormalization", "ValueShapes",
                                    "FcvClosed") else untyped_cfg
        report = run_property(prop, 120, cfg)
        assert report.passed, report.render()
        assert report.cases_run == 120


def test_run_property_zero_cases():
    report = run_property("SubjectReduction", 0, GenConfig(seed=0))
    assert report.cases_run == 0 and report.passed


def test_run_property_counts_only_checked_cases(monkeypatch):
    # at size 1 every unit-typed term is the value (), so Progress skips all
    monkeypatch.setattr(metatheory, "_random_type", lambda *args, **kwargs: UNIT_TYPE)
    report = run_property("Progress", 5, GenConfig(seed=0, max_size=1))
    assert report.render() == "PROP Progress CASES 0 FAILURES 0"


def test_run_property_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_property("NotAProperty", 1, GenConfig())


def test_report_render_format():
    report = PropertyReport("Progress", 10)
    assert report.render() == "PROP Progress CASES 10 FAILURES 0"
    report.failures.append((3, UNIT, "boom"))
    lines = report.render().splitlines()
    assert lines[0] == "PROP Progress CASES 10 FAILURES 1"
    assert lines[1] == "FAIL seed=3 term=()"


# ------------- reduction graphs -------------


def test_graph_status_of_normalizing_term():
    assert reduction_graph_status(p("(\\x. x) ()")) == "acyclic"


def test_graph_status_detects_cycles():
    omega = p("(\\x. x x) (\\x. x x)")
    assert reduction_graph_status(omega) == "cyclic"


def test_graph_status_overflow(monkeypatch):
    monkeypatch.setattr(metatheory, "GRAPH_NODE_CAP", 40)
    grower = p("(\\x. x x) (\\y. y y y)")
    assert reduction_graph_status(grower) == "overflow"


_SHAPE_VALUES = ("()", "[]", "[()]", "[(), ()]", "[[()]]", "cons", "cons ()", "lrec",
                 "lrec ()", "lrec () (\\x. x)", "\\x. x")
_NAT = ListType(UNIT_TYPE)
_SHAPE_TYPES = (UNIT_TYPE, _NAT, ListType(_NAT), ArrowType(UNIT_TYPE, UNIT_TYPE),
                ArrowType(_NAT, _NAT))


def test_value_shape_truth_table():
    # the shape is read off the value, not checked against element types:
    # each list passes at both list types, each function at both arrows
    unit, lists, arrows = _SHAPE_TYPES[:1], _SHAPE_TYPES[1:3], _SHAPE_TYPES[3:]
    expected = {"()": unit, **dict.fromkeys(_SHAPE_VALUES[1:5], lists),
                **dict.fromkeys(_SHAPE_VALUES[5:], arrows)}
    for src, passing in expected.items():
        assert p(src).value, src
        for ty in _SHAPE_TYPES:
            assert _value_shape_ok(p(src), ty) == (ty in passing), (src, ty)


def test_graph_explorer_agrees_with_evaluator():
    # both notions of termination coincide on small typed terms
    for seed in range(150):
        t = gen_term(GenConfig(seed=seed, max_size=12))
        if size(t) > 12:
            continue
        status = reduction_graph_status(t)
        out = evaluate(t)
        assert status == "acyclic"
        assert out.kind is not OutcomeKind.OUT_OF_FUEL


def test_reduction_graph_of_a_prelude_program_has_fixed_counts():
    # every redex, under binders, of a real program: the classes modulo
    # alpha that a walk keyed by `canonical` finds, and the edges it takes
    start = expand_term(parse_term("times #1 #1"), list(prelude_defs()))
    seen, stack, edges = {canonical(start)}, [start], 0
    while stack:
        for event in enumerate_redexes(stack.pop()):
            edges += 1
            key = canonical(event.result)
            if key not in seen:
                seen.add(key)
                stack.append(event.result)
    assert (len(seen), edges) == (1918, 9095)


# ------------- shrinking -------------


def test_minimize_to_unit_under_trivial_predicate():
    t = p("catch a. (\\x. x) (cons () [])")
    assert minimize(t, lambda _u: True) == UNIT


def test_minimize_keeps_failure():
    def failing(u):
        return size(u) >= 3

    t = p("(\\x. x) (cons () [])")
    out = minimize(t, failing)
    assert failing(out)
    assert size(out) == 3


def test_minimize_catch_predicate():
    def has_catch(u):
        if isinstance(u, Catch):
            return True
        from lcatch.syntax import children
        return any(has_catch(c) for c in children(u))

    t = p("(\\x. x) (catch a. cons () ((\\y. y) []))")
    out = minimize(t, has_catch)
    assert isinstance(out, Catch)
    assert size(out) == 2


def test_minimize_requires_failing_input():
    with pytest.raises(ValueError):
        minimize(UNIT, lambda _u: False)


def test_confluence_checks_leave_no_cyclic_garbage():
    # terms carry per-node memos; a memo that formed a reference cycle, or a
    # recursive closure over a term, would keep dropped terms alive until
    # the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        for prop in ("Diamond", "RedSubsetPred", "PredSubsetRedd", "TakahashiMpred"):
            assert run_property(prop, 150, GenConfig(seed=9, max_size=12)).passed
        outcome = evaluate(p("(\\x. \\y. catch a. throw a (x y)) (\\z. z) [(), ()]"),
                           keep_trace=True)
        assert print_term(outcome.term) == "[(), ()]"
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0


# ------------- property reports under planted mutants -------------
#
# Each mutant replaces one name that the property checks reach through
# `lcatch.metatheory`; every property then runs 6 cases at seed 40.  The
# pinned reports cover the generators, the checks, which failures get
# shrunk (and to what), and the inconclusive count of strong normalization.

_CONFLUENCE = ("Diamond", "RedSubsetPred", "PredSubsetRedd", "TakahashiMpred")

_MUTANTS = {
    "step_cbv": ("step_cbv", lambda t: None),
    "derivable": ("derivable", lambda env, t, ty: False),
    "complete_development": ("complete_development", lambda t: t),
    "reachable_by_reduction": ("reachable_by_reduction", lambda t, u: False),
    "parallel_reducts": ("parallel_reducts", lambda t: [t]),
    "graph_cyclic": ("reduction_graph_status", lambda t, cap=0: "cyclic"),
    "graph_overflow": ("reduction_graph_status", lambda t, cap=0: "overflow"),
    "evaluate": ("evaluate", lambda t, fuel=0, keep_trace=False:
                 Outcome(OutcomeKind.OUT_OF_FUEL, t, 0)),
    # every case evaluates to one value, of the wrong shape for some types
    "value_unit": ("evaluate", lambda t, fuel=0, keep_trace=False:
                   Outcome(OutcomeKind.VALUE, UNIT, 0)),
    "value_nil": ("evaluate", lambda t, fuel=0, keep_trace=False:
                  Outcome(OutcomeKind.VALUE, Nil(), 0)),
    "value_cons": ("evaluate", lambda t, fuel=0, keep_trace=False:
                   Outcome(OutcomeKind.VALUE, App(CONS, UNIT), 0)),
}

_SHRUNK_CONFLUENCE = ("FAIL seed=40 term=throw a throw b ()",
                      "FAIL seed=42 term=catch c. []",
                      "FAIL seed=43 term=catch c. y")
_TYPED_DRAWS = (
    "FAIL seed=40 term=lrec (catch a. catch b. ()) (\\x: 1. \\y: [1]. \\z: 1. ()) "
    "(catch a. catch b. [])",
    "FAIL seed=41 term=catch a. throw a (\\v: [1]. \\x: [1]. ()) [] "
    "((\\w: [1]. \\x: 1. []) [] ())",
    "FAIL seed=42 term=[catch a. throw a catch b. (), ()]",
    "FAIL seed=43 term=(\\y: 1. (\\v: 1. y) ()) (lrec () (\\x: [1]. \\y: [[1]]. \\z: 1. ()) [])",
    "FAIL seed=44 term=(\\y: [1]. catch a. catch b. ()) ((\\z: [1]. []) [])",
    "FAIL seed=45 term=(\\x: 1. ()) (catch a. throw a catch b. ())",
)

# (mutant, property) -> (FAIL lines, inconclusive); every other pair
# passes all 6 cases with nothing inconclusive.
_MUTANT_REPORTS = {
    ("step_cbv", "Progress"): ((
        "FAIL seed=40 term=lrec (catch b. ()) (\\x: 1. \\y: [1]. \\z: 1. ())",
        "FAIL seed=41 term=catch a. ()",
        "FAIL seed=42 term=catch a. ()",
        "FAIL seed=43 term=(\\y: [[1]]. ()) []",
        "FAIL seed=44 term=(\\y: [1]. ()) []",
        "FAIL seed=45 term=catch a. ()"), 0),
    ("derivable", "SubjectReduction"): ((
        "FAIL seed=40 term=lrec (catch b. ()) (\\x: 1. \\y: [1]. \\z: 1. ())",
        "FAIL seed=41 term=catch a. ()",
        "FAIL seed=42 term=catch a. ()",
        "FAIL seed=43 term=\\y: 1. (\\v: 1. y) ()",
        "FAIL seed=44 term=catch b. ()",
        "FAIL seed=45 term=catch a. ()"), 0),
    ("complete_development", "Diamond"): (_SHRUNK_CONFLUENCE, 0),
    ("complete_development", "TakahashiMpred"): (_SHRUNK_CONFLUENCE, 0),
    ("reachable_by_reduction", "PredSubsetRedd"): (
        tuple(f"FAIL seed={s} term=()" for s in range(40, 46)), 0),
    ("parallel_reducts", "Diamond"): (_SHRUNK_CONFLUENCE, 0),
    ("parallel_reducts", "RedSubsetPred"): (_SHRUNK_CONFLUENCE, 0),
    ("parallel_reducts", "TakahashiMpred"): (_SHRUNK_CONFLUENCE, 0),
    ("graph_cyclic", "StrongNormalization"): (_TYPED_DRAWS[2:3] + _TYPED_DRAWS[4:], 0),
    ("graph_overflow", "StrongNormalization"): ((), 3),
    ("evaluate", "StrongNormalization"): (_TYPED_DRAWS[:2] + _TYPED_DRAWS[3:4], 0),
    ("evaluate", "ValueShapes"): (_TYPED_DRAWS, 0),
    ("evaluate", "FcvClosed"): (_TYPED_DRAWS, 0),
    # seed 42 draws a list type and the other five draw unit
    ("value_unit", "ValueShapes"): (_TYPED_DRAWS[2:3], 0),
    ("value_nil", "ValueShapes"): (_TYPED_DRAWS[:2] + _TYPED_DRAWS[3:], 0),
    ("value_cons", "ValueShapes"): (_TYPED_DRAWS, 0),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_property_reports_under_planted_mutant(monkeypatch, mutant):
    name, replacement = _MUTANTS[mutant]
    monkeypatch.setattr(metatheory, name, replacement)
    for prop in PROPERTIES:
        max_size = 12 if prop in _CONFLUENCE else 16
        report = run_property(prop, 6, GenConfig(seed=40, max_size=max_size))
        fails, inconclusive = _MUTANT_REPORTS.get((mutant, prop), ((), 0))
        header = f"PROP {prop} CASES 6 FAILURES {len(fails)}"
        assert report.render() == "\n".join((header, *fails)), (mutant, prop)
        assert report.inconclusive == inconclusive, (mutant, prop)
