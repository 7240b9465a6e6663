"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import io
import random
import time
from contextlib import redirect_stdout

from lcatch.cli import main
from lcatch.confluence import (
    complete_development, parallel_reducts, reachable_by_reduction,
)
from lcatch.metatheory import (
    GenConfig, _gen_untyped, gen_term, reduction_graph_status,
    run_property,
)
from lcatch.prelude import decode_nat, prelude_defs
from lcatch.reduction import OutcomeKind, enumerate_redexes, evaluate
from lcatch.surface import expand_term, parse_term, print_term
from lcatch.syntax import alpha_eq, canonical, size
from lcatch.typecheck import ErrorKind, TypingEnv, TypingError, infer

EMPTY = TypingEnv()


def _passed(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def run_prelude(src, **kw):
    return evaluate(expand_term(parse_term(src), list(prelude_defs())), **kw)


def test_01_product_example():
    started = time.monotonic()
    code, out = cli("eval", "-e", "prodz [#4, #0, #9]")
    elapsed = time.monotonic() - started
    assert code == 0
    assert out.splitlines() == ["#0"]
    assert elapsed < 1.0
    _passed(1, "paper product example evaluates to #0")


def test_02_predecessor_constant_steps():
    started = time.monotonic()
    base_steps = None
    for n in range(1, 65):
        code, out = cli("eval", "-e", f"pred #{n}", "--count")
        assert code == 0
        value_line, steps_line = out.splitlines()
        assert value_line == f"#{n - 1}"
        steps = int(steps_line.removeprefix("steps: "))
        if base_steps is None:
            base_steps = steps
        assert steps == base_steps, f"pred #{n} took {steps}"
    assert time.monotonic() - started < 5.0
    _passed(2, f"pred #n is #(n-1) in a constant {base_steps} steps for n in 1..64")


def test_03_product_short_circuit():
    rng = random.Random(2024)
    base_steps = run_prelude("prodz [#4, #0]").steps
    for length in rng.sample(range(9), 5):
        suffix = [f"#{rng.randint(0, 12)}" for _ in range(length)]
        src = "prodz [" + ", ".join(["#4", "#0"] + suffix) + "]"
        outcome = run_prelude(src)
        assert decode_nat(outcome.term) == 0
        assert outcome.steps == base_steps, (src, outcome.steps, base_steps)
    _passed(3, "prodz step count ignores any suffix after the first 0")


def test_04_arithmetic_oracle():
    started = time.monotonic()
    for n in range(11):
        for m in range(11):
            assert decode_nat(run_prelude(f"plus #{n} #{m}").term) == n + m
            assert decode_nat(run_prelude(f"times #{n} #{m}").term) == n * m
    assert time.monotonic() - started < 30.0
    _passed(4, "plus/times agree with host arithmetic for all n,m <= 10")


def test_05_subject_reduction_suite():
    report = run_property("SubjectReduction", 10000, GenConfig(seed=0, max_size=20))
    assert report.cases_run == 10000
    assert report.passed, report.render()
    _passed(5, "subject reduction holds on 10000 generated terms")


def test_06_progress_suite():
    report = run_property("Progress", 10000, GenConfig(seed=0, max_size=20))
    assert report.cases_run == 10000
    assert report.passed, report.render()
    _passed(6, "progress holds on 10000 generated non-values")


def test_07_confluence_suite():
    started = time.monotonic()
    rng = random.Random(7)
    for case in range(2000):
        t = _gen_untyped(rng, 12, 0)
        reducts = parallel_reducts(t)
        reduct_keys = {canonical(u) for u in reducts}
        # (a) every one-step reduct is a parallel reduct
        for event in enumerate_redexes(t):
            assert canonical(event.result) in reduct_keys, print_term(t)
        developed = complete_development(t)
        dev_key = canonical(developed)
        for u in reducts:
            # (b) every parallel reduct is reachable by plain reduction
            assert reachable_by_reduction(t, u), (print_term(t), print_term(u))
            # (c) Takahashi: every parallel reduct steps to the development
            u_reducts = parallel_reducts(u)
            assert dev_key in {canonical(w) for w in u_reducts}, \
                (print_term(t), print_term(u))
        # (d) the development therefore witnesses the diamond for every
        # pair of parallel reducts; (c) checked it against each one
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"confluence suite took {elapsed:.1f}s"
    _passed(7, "confluence properties hold on 2000 untyped terms")


def test_08_strong_normalization_suite():
    # full graph exploration for 1000 small typed terms
    small_checked = 0
    seed = 0
    while small_checked < 1000:
        t = gen_term(GenConfig(seed=seed, max_size=12))
        seed += 1
        if size(t) > 12:
            continue
        status = reduction_graph_status(t)
        assert status != "cyclic", print_term(t)
        assert status != "overflow", print_term(t)
        small_checked += 1
    # fuel-bounded evaluation for 5000 larger typed terms
    for i in range(5000):
        t = gen_term(GenConfig(seed=100000 + i, max_size=25))
        outcome = evaluate(t, fuel=100000)
        assert outcome.kind is not OutcomeKind.OUT_OF_FUEL, print_term(t)
    _passed(8, "no cycles in 1000 graphs, no fuel exhaustion in 5000 runs")


def test_09_negative_typing():
    for src in ["catch a. \\x:1. x",
                "(catch a. \\x:1. throw a (\\y:1. y)) ()"]:
        try:
            infer(EMPTY, parse_term(src))
            raise AssertionError(f"{src} was accepted")
        except TypingError as err:
            assert err.kind is ErrorKind.NON_ARROW_FREE_CATCH, (src, err.kind)
    _passed(9, "both counterexample terms rejected with NonArrowFreeCatch")


def test_10_parser_round_trip():
    rng = random.Random(10)
    for case in range(6000):
        t = _gen_untyped(rng, 14, 0)
        assert alpha_eq(parse_term(print_term(t, sugar=case % 2 == 0)), t), \
            print_term(t)
    for seed in range(4000):
        t = gen_term(GenConfig(seed=seed, max_size=18))
        assert alpha_eq(parse_term(print_term(t, sugar=seed % 2 == 0)), t), \
            print_term(t)
    _passed(10, "parse/print round trip holds on 10000 generated terms")
