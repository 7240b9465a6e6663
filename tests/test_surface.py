import itertools
import random
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import pytest

from lcatch import surface
from lcatch.confluence import complete_development
from lcatch.metatheory import GenConfig, _gen_untyped, gen_term
from lcatch.reduction import enumerate_redexes
from lcatch.surface import (
    ParseError, SourceProgram, expand_defs, expand_term, parse_program,
    parse_term, print_term, print_type,
)
from lcatch.syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, Nil, Term, Throw,
    Type, UNIT, UNIT_TYPE, UnitVal, Var, alpha_eq, canonical, cons,
)

from test_syntax import draw, identical

p = parse_term


# ------------- parsing -------------


def test_parse_annotated_lambda():
    assert identical(p("\\x:1. x"), Lam("x", UNIT_TYPE, Var("x")))


def test_parse_catch_throw():
    assert identical(p("catch a. throw a ()"), Catch("a", Throw("a", UNIT)))


def test_parse_application_left_associative():
    t = p("lrec r s t u")
    assert t == App(App(App(App(LrecC(), Var("r")), Var("s")), Var("t")), Var("u"))


def test_parse_list_literal():
    assert p("[(), ()]") == cons(UNIT, cons(UNIT, Nil()))


def test_parse_numeral_sugar():
    assert p("#0") == Nil()
    assert p("#2") == cons(UNIT, cons(UNIT, Nil()))


def test_parse_prefix_forms_extend_maximally():
    # catch/lambda/throw swallow the whole rest of their scope
    assert identical(p("catch a. f x"), Catch("a", App(Var("f"), Var("x"))))
    assert identical(p("throw a f x"), Throw("a", App(Var("f"), Var("x"))))
    assert identical(p("\\x. f x"), Lam("x", None, App(Var("f"), Var("x"))))


def test_parse_types():
    t = p("\\f: (1 -> 1) -> [1]. f")
    assert t.annot == ArrowType(ArrowType(UNIT_TYPE, UNIT_TYPE), ListType(UNIT_TYPE))
    t = p("\\f: 1 -> 1 -> 1. f")  # right-associative
    assert t.annot == ArrowType(UNIT_TYPE, ArrowType(UNIT_TYPE, UNIT_TYPE))


def test_parse_comments_and_whitespace():
    src = """
    -- leading comment
    (\\x. -- inline comment
       x) ()
    """
    assert identical(p(src), App(Lam("x", None, Var("x")), UNIT))


def test_parse_ascription_elaborates_to_identity_application():
    t = p("([] : [1])")
    assert identical(t, App(Lam("_asc", ListType(UNIT_TYPE), Var("_asc")), Nil()))


def test_parse_primed_identifiers():
    assert p("x'1") == Var("x'1")


def test_parse_error_positions_are_one_based():
    with pytest.raises(ParseError) as info:
        p("\\x. (x")
    assert info.value.line == 1
    assert info.value.column == 7


def test_parse_error_on_unicode_identifier():
    with pytest.raises(ParseError):
        p("λx. x")


def test_parse_error_reports_expected():
    with pytest.raises(ParseError) as info:
        p("throw . x")
    assert info.value.expected


def test_parse_is_deterministic():
    src = "catch a. throw a (cons () [])"
    assert identical(p(src), p(src))


# ------------- programs -------------


def test_parse_program_defs_and_main():
    prog = parse_program("def id = \\x. x;\ndef two = id #2;\nmain = two;\n")
    assert [name for name, _ in prog.defs] == ["id", "two"]
    assert prog.main == Var("two")


def test_parse_program_rejects_duplicate_names():
    with pytest.raises(ParseError):
        parse_program("def f = (); def f = [];")


def test_expand_defs_substitutes_earlier_into_later():
    prog = parse_program("def id = \\x. x;\ndef app = id ();\n")
    defs = expand_defs(prog)
    assert alpha_eq(defs[1][1], p("(\\x. x) ()"))


def test_expand_term_uses_scope():
    prog = parse_program("def id = \\x. x;")
    out = expand_term(p("id id"), expand_defs(prog))
    assert alpha_eq(out, p("(\\x. x) (\\x. x)"))


def test_expansion_substitutes_only_the_definitions_named_free(monkeypatch):
    calls = []
    real = surface.subst

    def counting(t, x, r):
        calls.append(x)
        return real(t, x, r)

    monkeypatch.setattr(surface, "subst", counting)
    prog = parse_program("def a = (); def b = \\x. x; def c = b a; def d = c; def e = [];")
    defs = expand_defs(prog)
    assert calls == ["a", "b", "c"]
    assert defs[1][1] is prog.defs[1][1] and defs[4][1] is prog.defs[4][1]
    assert identical(defs[3][1], p("(\\x. x) ()"))
    main = p("d e")
    calls.clear()
    assert identical(expand_term(main, defs), p("(\\x. x) () []"))
    assert calls == ["d", "e"]
    assert expand_term(defs[2][1], defs) is defs[2][1] and calls == ["d", "e"]


def test_empty_program():
    prog = parse_program("  -- nothing here\n")
    assert prog.defs == [] and prog.main is None


# ------------- printing -------------


def test_print_application_of_lambda():
    assert print_term(p("(\\x. x) ()")) == "(\\x. x) ()"


def test_print_list_sugar():
    assert print_term(cons(UNIT, Nil())) == "[()]"


def test_print_numeral_sugar_only_when_enabled():
    two = cons(UNIT, cons(UNIT, Nil()))
    assert print_term(two) == "[(), ()]"
    assert print_term(two, sugar=True) == "#2"
    assert print_term(Nil(), sugar=True) == "#0"


def test_print_throw_body_is_maximal():
    assert print_term(Throw("a", Var("x"))) == "throw a x"
    assert print_term(Throw("a", App(Var("f"), Var("x")))) == "throw a f x"
    assert print_term(App(Throw("a", Var("x")), Var("y"))) == "(throw a x) y"


def test_print_partial_cons_as_application():
    assert print_term(App(ConsC(), UNIT)) == "cons ()"
    assert print_term(cons(UNIT, Var("t"))) == "cons () t"


def test_print_types():
    assert print_type(ArrowType(ArrowType(UNIT_TYPE, UNIT_TYPE), UNIT_TYPE)) == "(1 -> 1) -> 1"
    assert print_type(ListType(ListType(UNIT_TYPE))) == "[[1]]"


# ------------- round trip -------------


def test_round_trip_untyped_terms():
    rng = random.Random(100)
    for _ in range(800):
        t = _gen_untyped(rng, 14, 0)
        for sugar in (False, True):
            assert alpha_eq(parse_term(print_term(t, sugar=sugar)), t)


def test_round_trip_typed_terms():
    for seed in range(300):
        t = gen_term(GenConfig(seed=seed, max_size=18))
        assert alpha_eq(parse_term(print_term(t)), t)


def _round_trip_groups():
    """Typed and untyped generated terms of three sizes, each with its
    one-step reducts and its complete development."""
    for seed in range(300):
        for max_size in (8, 14, 20):
            for typed in (True, False):
                t = draw(seed, max_size, typed)
                yield [t, complete_development(t)] + [e.result for e in enumerate_redexes(t)]


def test_printing_then_parsing_is_the_identity():
    # reducts carry the names substitution freshened; the text must still
    # parse back to the same term, names included
    checked = 0
    for group in _round_trip_groups():
        for u in group:
            for sugar in (False, True):
                assert identical(parse_term(print_term(u, sugar=sugar)), u), print_term(u)
            checked += 1
    assert checked > 3000


def _renamed(t, terms, conts, counter):
    """`t` with every binder renamed to a name used nowhere else."""
    match t:
        case Var(name):
            return Var(terms.get(name, name))
        case Lam(param, annot, body):
            new = f"v{next(counter)}"
            return Lam(new, annot, _renamed(body, {**terms, param: new}, conts, counter))
        case Catch(cont, body):
            new = f"k{next(counter)}"
            return Catch(new, _renamed(body, terms, {**conts, cont: new}, counter))
        case Throw(cont, payload):
            return Throw(conts.get(cont, cont), _renamed(payload, terms, conts, counter))
        case App(fun, arg):
            return App(_renamed(fun, terms, conts, counter), _renamed(arg, terms, conts, counter))
    return t


def test_alpha_variants_parsed_from_renamed_text_are_one_class():
    # the text of a term with its binders renamed parses to an alpha-variant
    # whose canonical key is the same, with the same hash
    for group in _round_trip_groups():
        for u in group:
            text = print_term(_renamed(u, {}, {}, itertools.count()))
            variant = parse_term(text)
            assert alpha_eq(variant, u), text
            assert canonical(variant) == canonical(u)
            assert hash(canonical(variant)) == hash(canonical(u))


# ------------- the character-loop lexer, token-object parser and printer as oracles -------------
# The regex lexer over token arrays, the parser that indexes them and the
# printer that dispatches on the node class replaced the code below; it
# stays here to pin that parsing, error positions and printing did not move.

_KEYWORDS = {"catch", "throw", "def", "main", "cons", "lrec"}

_SIMPLE = {
    "\\": "LAMBDA", ".": "DOT", ":": "COLON", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", "=": "EQUALS",
    ";": "SEMI",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def oracle_lex(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(line, col, "expected digits after '#'", ["digits"])
            tokens.append(Token("HASHNUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() and ch.isascii() or ch == "_":
            j = i
            while j < n and (src[j].isascii() and (src[j].isalnum() or src[j] in "_'")):
                j += 1
            word = src[i:j]
            kind = word.upper() if word in _KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens


_ATOM_START = {"LPAREN", "LBRACKET", "HASHNUM", "IDENT", "CONS", "LREC"}


class OracleParser:
    def __init__(self, src: str):
        self.tokens = oracle_lex(src)
        self.pos = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def fail(self, message: str, expected: list[str]) -> ParseError:
        t = self.tok
        found = t.text if t.kind != "EOF" else "end of input"
        return ParseError(t.line, t.column, f"{message}, found {found!r}", expected)

    def expect(self, kind: str, what: str) -> Token:
        if self.tok.kind != kind:
            raise self.fail(f"expected {what}", [what])
        return self.advance()

    def parse_type(self) -> Type:
        left = self.parse_type_atom()
        if self.tok.kind == "ARROW":
            self.advance()
            return ArrowType(left, self.parse_type())
        return left

    def parse_type_atom(self) -> Type:
        t = self.tok
        if t.kind == "NUMBER" and t.text == "1":
            self.advance()
            return UNIT_TYPE
        if t.kind == "LBRACKET":
            self.advance()
            inner = self.parse_type()
            self.expect("RBRACKET", "']'")
            return ListType(inner)
        if t.kind == "LPAREN":
            self.advance()
            inner = self.parse_type()
            self.expect("RPAREN", "')'")
            return inner
        raise self.fail("expected a type", ["'1'", "'['", "'('"])

    def parse_term(self) -> Term:
        t = self.tok
        if t.kind == "LAMBDA":
            self.advance()
            name = self.expect("IDENT", "identifier").text
            annot = None
            if self.tok.kind == "COLON":
                self.advance()
                annot = self.parse_type()
            self.expect("DOT", "'.'")
            return Lam(name, annot, self.parse_term())
        if t.kind == "CATCH":
            self.advance()
            name = self.expect("IDENT", "identifier").text
            self.expect("DOT", "'.'")
            return Catch(name, self.parse_term())
        if t.kind == "THROW":
            self.advance()
            name = self.expect("IDENT", "identifier").text
            return Throw(name, self.parse_term())
        if t.kind not in _ATOM_START:
            raise self.fail("expected a term",
                            ["'\\\\'", "'catch'", "'throw'", "atom"])
        out = self.parse_atom()
        while self.tok.kind in _ATOM_START:
            out = App(out, self.parse_atom())
        return out

    def parse_atom(self) -> Term:
        t = self.tok
        if t.kind == "IDENT":
            self.advance()
            return Var(t.text)
        if t.kind == "CONS":
            self.advance()
            return ConsC()
        if t.kind == "LREC":
            self.advance()
            return LrecC()
        if t.kind == "HASHNUM":
            self.advance()
            out: Term = Nil()
            for _ in range(int(t.text[1:])):
                out = cons(UNIT, out)
            return out
        if t.kind == "LPAREN":
            self.advance()
            if self.tok.kind == "RPAREN":
                self.advance()
                return UNIT
            inner = self.parse_term()
            if self.tok.kind == "COLON":
                self.advance()
                ty = self.parse_type()
                self.expect("RPAREN", "')'")
                return App(Lam("_asc", ty, Var("_asc")), inner)
            self.expect("RPAREN", "')'")
            return inner
        if t.kind == "LBRACKET":
            self.advance()
            if self.tok.kind == "RBRACKET":
                self.advance()
                return Nil()
            items = [self.parse_term()]
            while self.tok.kind == "COMMA":
                self.advance()
                items.append(self.parse_term())
            self.expect("RBRACKET", "']'")
            out = Nil()
            for item in reversed(items):
                out = cons(item, out)
            return out
        raise self.fail("expected a term", ["atom"])

    def parse_program(self) -> SourceProgram:
        prog = SourceProgram()
        seen: set[str] = set()
        while self.tok.kind == "DEF":
            self.advance()
            name_tok = self.expect("IDENT", "identifier")
            if name_tok.text in seen:
                raise ParseError(name_tok.line, name_tok.column,
                                 f"duplicate definition of {name_tok.text!r}")
            seen.add(name_tok.text)
            self.expect("EQUALS", "'='")
            body = self.parse_term()
            self.expect("SEMI", "';'")
            prog.defs.append((name_tok.text, body))
        if self.tok.kind == "MAIN":
            self.advance()
            self.expect("EQUALS", "'='")
            prog.main = self.parse_term()
            self.expect("SEMI", "';'")
        self.expect("EOF", "end of input")
        return prog


def oracle_parse_term(src: str) -> Term:
    parser = OracleParser(src)
    out = parser.parse_term()
    parser.expect("EOF", "end of input")
    return out


def oracle_parse_program(src: str) -> SourceProgram:
    return OracleParser(src).parse_program()


def _as_list(t: Term) -> Optional[list[Term]]:
    items: list[Term] = []
    while True:
        match t:
            case Nil():
                return items
            case App(App(ConsC(), head), tail):
                items.append(head)
                t = tail
            case _:
                return None


def oracle_print_term(u: Term, sugar: bool = False, ctx: int = 0) -> str:
    items = _as_list(u)
    if items is not None:
        if sugar and all(isinstance(it, UnitVal) for it in items):
            return f"#{len(items)}"
        if not items:
            return "[]"
        return "[" + ", ".join(oracle_print_term(it, sugar) for it in items) + "]"
    match u:
        case Var(name):
            return name
        case UnitVal():
            return "()"
        case ConsC():
            return "cons"
        case LrecC():
            return "lrec"
        case Lam(param, annot, body):
            ann = f": {print_type(annot)}" if annot is not None else ""
            s = f"\\{param}{ann}. {oracle_print_term(body, sugar)}"
            return s if ctx == 0 else f"({s})"
        case Catch(cont, body):
            s = f"catch {cont}. {oracle_print_term(body, sugar)}"
            return s if ctx == 0 else f"({s})"
        case Throw(cont, payload):
            s = f"throw {cont} {oracle_print_term(payload, sugar)}"
            return s if ctx == 0 else f"({s})"
        case App(fun, arg):
            s = f"{oracle_print_term(fun, sugar, 1)} {oracle_print_term(arg, sugar, 2)}"
            return s if ctx != 2 else f"({s})"
    raise ValueError(f"not a term: {u!r}")


def outcome(parse, src):
    """What `parse` makes of `src`: its result, or the ParseError's fields.
    Any other exception fails the test, except a RecursionError, which
    only a term nested past the interpreter's depth limit may raise."""
    try:
        out = parse(src)
    except ParseError as err:
        return ("error", err.line, err.column, err.message, err.expected)
    except RecursionError:
        return ("too deep",)
    if isinstance(out, SourceProgram):
        return ("program", out.defs, out.main)
    return ("term", out)


# Pieces a mutation inserts or swaps in: every token, the comment and
# arrow openers, and the characters the lexer rejects.  Non-ASCII digits
# are left out on purpose: the old lexer read them with str.isdigit.
MUTATION_ALPHABET = [
    "--", "->", "-", "#", "'", "\u03bb", "\t", "\n", "\r", " ", "\\", ".", ":",
    "(", ")", "[", "]", ",", "=", ";", "0", "1", "7", "x", "_", "x'",
    "catch", "throw", "def", "main", "cons", "lrec", "()", "[]", "#2", "@",
]


def mutate(rng: random.Random, src: str) -> str:
    """One to three random insertions, deletions or replacements."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(src))
        op = rng.random()
        if op < 0.4:
            src = src[:i] + rng.choice(MUTATION_ALPHABET) + src[i:]
        elif op < 0.7:
            src = src[:i] + src[i + rng.randint(1, 3):]
        else:
            src = src[:i] + rng.choice(MUTATION_ALPHABET) + src[i + 1:]
    return src


def fuzz_inputs(seed: int, count: int) -> list[str]:
    """The prelude, printed generated terms, and `count` mutations of them."""
    rng = random.Random(seed)
    prelude = resources.files("lcatch").joinpath("prelude.lc").read_text(encoding="utf-8")
    programs = [prelude, prelude + "main = prodz [#4, #0, #9]; -- trailing comment"]
    terms = []
    for k in range(60):
        typed = gen_term(GenConfig(seed=seed * 1000 + k, max_size=18))
        untyped = _gen_untyped(rng, 14, 0)
        terms += [print_term(typed), print_term(untyped, sugar=k % 2 == 0)]
    # half the mutations hit a program, so the definition syntax is fuzzed too
    return programs + terms + [mutate(rng, rng.choice(rng.choice((programs, terms))))
                               for _ in range(count)]


def test_lexer_and_parser_match_the_oracle_on_mutated_inputs():
    for src in fuzz_inputs(seed=8, count=1500):
        assert identical(outcome(parse_term, src), outcome(oracle_parse_term, src)), src
        assert identical(outcome(parse_program, src), outcome(oracle_parse_program, src)), src


@pytest.mark.parametrize("src", [
    "", "  ", "\n\n ", "x -- c", "x\n-- c", "x --", "a -- c\nb -- d", "-- only",
    "x\t\t-", "\\x: 1 -> . x", "(x : [1)", "[x, y", "#", "# 3", "#12#", "x#",
    "1", "01", "\\x: 01. x", "catch a: x", "throw . x", "def", "main = x",
    "def f = x; def f = y;", "def f = x; main = y; main = z;", "x\r\ny z)",
    "\u03bbx. x", "x'' y_ _z", "\\_: (1 -> [1]) -> 1. _", "((((x))))", "[[], [[]]]",
    "\ufeffx", "x \u00a0 y", "\\x:1.x\f",
])
def test_edge_cases_match_the_oracle(src):
    assert identical(outcome(parse_term, src), outcome(oracle_parse_term, src))
    assert identical(outcome(parse_program, src), outcome(oracle_parse_program, src))


def improper_chain(heads, end):
    for head in reversed(heads):
        end = cons(head, end)
    return end


def test_printer_matches_the_oracle():
    ends = [Var("y"), App(ConsC(), UNIT), App(App(ConsC(), UNIT), Var("z")), LrecC(),
            Lam("x", None, Nil()), Throw("a", Var("y")), Catch("a", Nil())]
    heads = [UNIT, Nil(), Var("h"), cons(UNIT, Nil()), Lam("x", None, Var("x")),
             improper_chain([UNIT], Var("w")), App(Var("f"), Var("g"))]
    rng = random.Random(5)
    terms = []
    for _ in range(300):
        inner = improper_chain(rng.choices(heads, k=rng.randint(0, 4)),
                               rng.choice(ends + [Nil()]))
        chain = improper_chain(rng.choices(heads + [inner], k=rng.randint(0, 6)),
                               rng.choice(ends + [Nil(), inner]))
        terms += [chain, App(chain, inner), App(Var("f"), chain), Lam("x", None, chain),
                  Throw("a", chain), App(App(App(LrecC(), chain), inner), chain)]
    terms += [_gen_untyped(rng, 16, 0) for _ in range(300)]
    for t in terms:
        for sugar in (False, True):
            assert print_term(t, sugar=sugar) == oracle_print_term(t, sugar), t


def test_printer_walks_a_long_improper_chain_once():
    # each cell used to re-scan the rest of the chain and cost one frame
    n = 20000
    chain = improper_chain([UNIT] * n, Var("y"))
    expected = "cons () " + "(cons () " * (n - 1) + "y" + ")" * (n - 1)
    assert print_term(chain) == expected
    assert print_term(chain, sugar=True) == expected


def test_printer_takes_no_frame_per_argument_level():
    # the argument spine `f1 (f2 (... u))` prints in one loop, whether its
    # functions are lambdas, cons cells or variables above a list literal
    assert sys.getrecursionlimit() <= 1000
    n = 100_000
    spines = [
        (Lam("y", None, Var("y")), "(\\y. y)", Var("x"), "x", "x"),
        (App(ConsC(), UNIT), "cons ()", Var("y"), "y", "y"),
        (None, None, cons(UNIT, cons(UNIT, Nil())), "[(), ()]", "#2"),
    ]
    for fun, fun_text, end, plain, sugared in spines:
        funs = [fun] * n if fun is not None else [Var("f"), Var("g")] * (n // 2)
        term = end
        for f in reversed(funs):
            term = App(f, term)
        opening = " (".join(fun_text or f.name for f in funs)
        for sugar, tail in ((False, plain), (True, sugared)):
            expected = f"{opening} {tail}" + ")" * (n - 1)
            try:
                printed = print_term(term, sugar=sugar)
            except RecursionError:
                # reported as a plain failure: pytest's report of a deep
                # RecursionError compares the frames' terms by `==`
                printed = "RecursionError"
            assert printed == expected
