import pytest

from lcatch.prelude import NotANumeral, decode_nat, library, prelude_defs
from lcatch.reduction import OutcomeKind, evaluate
from lcatch.surface import expand_term, parse_term, print_type
from lcatch.syntax import Nil, UNIT, cons, free_vars, numeral
from lcatch.typecheck import TypingEnv, check

from test_confluence import join

p = parse_term


def run(src, **kw):
    return evaluate(expand_term(p(src), list(prelude_defs())), **kw)


def run_nat(src):
    out = run(src)
    assert out.kind is OutcomeKind.VALUE
    return decode_nat(out.term)


# ------------- numerals -------------


def test_encode_zero_is_nil():
    assert numeral(0) == Nil()


def test_encode_two():
    assert numeral(2) == cons(UNIT, cons(UNIT, Nil()))


def test_encode_decode_round_trip():
    for n in range(30):
        assert decode_nat(numeral(n)) == n


def test_encode_rejects_negative():
    with pytest.raises(ValueError):
        numeral(-1)


def test_decode_rejects_non_numerals():
    for src in ["\\x. x", "[[]]", "cons () x"]:
        with pytest.raises(NotANumeral):
            decode_nat(p(src))


@pytest.mark.parametrize("src, message", [
    ("cons ()", "not a numeral: App(fun=ConsC(), arg=UnitVal())"),
    ("[(), []]", "not a numeral: App(fun=App(fun=ConsC(), arg=Nil()), arg=Nil())"),
    ("cons () (\\x. x)", "not a numeral: Lam(param='x', annot=None, body=Var(name='x'))"),
])
def test_decode_names_the_first_part_that_is_no_numeral(src, message):
    # a partial cell, a cell whose head is not (), and a cell whose tail is no list
    with pytest.raises(NotANumeral) as err:
        decode_nat(p(src))
    assert str(err.value) == message


# ------------- the library -------------


def test_library_names():
    assert [entry.name for entry in library()] == [
        "nrec", "pred", "plus", "times", "prodz"]


def test_library_terms_are_closed_and_typed():
    env = TypingEnv()
    for entry in library():
        free = free_vars(entry.term)
        assert not free.term_vars and not free.cont_vars
        check(env, entry.term, entry.declared_type)


def test_library_declared_types():
    declared = {entry.name: entry.declared_type for entry in library()}
    assert print_type(declared["pred"]) == "[1] -> [1]"
    assert print_type(declared["plus"]) == "[1] -> [1] -> [1]"
    assert print_type(declared["times"]) == "[1] -> [1] -> [1]"
    assert print_type(declared["prodz"]) == "[[1]] -> [1]"


# ------------- arithmetic -------------


def test_plus_small_oracle():
    for n in range(8):
        for m in range(8):
            assert run_nat(f"plus #{n} #{m}") == n + m


def test_times_small_oracle():
    for n in range(6):
        for m in range(6):
            assert run_nat(f"times #{n} #{m}") == n * m


def test_pred_endpoints():
    assert run_nat("pred #1") == 0
    assert run_nat("pred #5") == 4
    assert run_nat("pred #0") == 0


def test_pred_constant_steps():
    base = run("pred #1").steps
    for n in (2, 7, 33, 64):
        assert run(f"pred #{n}").steps == base


# ------------- product with short-circuit -------------


def test_product_of_paper_list():
    assert run_nat("prodz [#4, #0, #9]") == 0


def test_product_without_zero():
    assert run_nat("prodz [#2, #3]") == 6
    assert run_nat("prodz []") == 1
    assert run_nat("prodz [#5]") == 5


def test_product_steps_ignore_suffix_after_zero():
    base = run("prodz [#4, #0]").steps
    for suffix in ("#1", "#3, #2", "#9, #9, #9, #9"):
        assert run(f"prodz [#4, #0, {suffix}]").steps == base


# ------------- nrec conversions -------------


def test_nrec_on_zero_reduces_to_base():
    out = run("nrec #7 (\\x. \\y. y) #0")
    assert decode_nat(out.term) == 7


def test_nrec_on_successor_joins_with_unfolding():
    # the recursor equation holds as a conversion, witnessed by joining
    lhs = expand_term(p("nrec #0 (\\x. \\y. cons () y) #3"), list(prelude_defs()))
    rhs = expand_term(
        p("(\\x. \\y. cons () y) #2 (nrec #0 (\\x. \\y. cons () y) #2)"),
        list(prelude_defs()))
    witness = join(lhs, rhs, max_rounds=32)
    assert witness is not None
    assert decode_nat(witness) == 3
