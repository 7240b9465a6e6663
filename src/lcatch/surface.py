"""Concrete syntax: lexer, parser, and pretty-printer.

Grammar (UTF-8 text, `.lc` files):

    program  ::= ('def' ident '=' term ';')*  ('main' '=' term ';')?
    term     ::= '\\' ident (':' type)? '.' term
               | 'catch' ident '.' term
               | 'throw' ident term
               | atom+                          -- application, left-assoc
    atom     ::= '()' | '[]' | 'cons' | 'lrec' | ident
               | '#' digits                     -- numeral sugar
               | '[' term (',' term)* ']'       -- list sugar
               | '(' term (':' type)? ')'
    type     ::= tatom ('->' type)?             -- right-assoc
    tatom    ::= '1' | '[' type ']' | '(' type ')'

Prefix forms (lambda, catch, throw) bind to the end of their scope, so
`catch a. f x` parses as `catch a. (f x)`.  Comments run from `--` to end
of line.  Identifiers are ASCII: letter or underscore, then letters,
digits, underscores, or primes.  A type ascription `(t : T)` elaborates to
an identity application `(\\x: T. x) t`; the printer never emits one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, MetaVar, Nil, Term,
    Throw, Type, UNIT, UNIT_TYPE, UnitVal, Var, cons, subst,
)


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str,
                 expected: list[str] | None = None):
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected or []
        super().__init__(f"{line}:{column}: {message}")


@dataclass
class SourceProgram:
    defs: list[tuple[str, Term]] = field(default_factory=list)
    main: Optional[Term] = None


# ---------------------------------------------------------------------------
# Lexer

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


def _lex(src: str) -> list[Token]:
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


# ---------------------------------------------------------------------------
# Parser

_ATOM_START = {"LPAREN", "LBRACKET", "HASHNUM", "IDENT", "CONS", "LREC"}


class _Parser:
    def __init__(self, src: str):
        self.tokens = _lex(src)
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

    # types

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

    # terms

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

    # programs

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


def parse_term(src: str) -> Term:
    """Parse a single term; raises ParseError on the first syntax error."""
    parser = _Parser(src)
    out = parser.parse_term()
    parser.expect("EOF", "end of input")
    return out


def parse_program(src: str) -> SourceProgram:
    return _Parser(src).parse_program()


# ---------------------------------------------------------------------------
# Definition expansion


def expand_defs(prog: SourceProgram) -> list[tuple[str, Term]]:
    """Substitute earlier definitions into later ones, in order."""
    out: list[tuple[str, Term]] = []
    for name, term in prog.defs:
        for prev_name, prev_term in out:
            term = subst(term, prev_name, prev_term)
        out.append((name, term))
    return out


def expand_term(term: Term, defs: list[tuple[str, Term]]) -> Term:
    """Substitute already-expanded definitions into `term`."""
    for name, body in defs:
        term = subst(term, name, body)
    return term


# ---------------------------------------------------------------------------
# Pretty-printer

_TOP, _FUN, _ARG = 0, 1, 2


def print_type(ty: Type) -> str:
    match ty:
        case ArrowType(dom, cod):
            dom_s = print_type(dom)
            if isinstance(dom, ArrowType):
                dom_s = f"({dom_s})"
            return f"{dom_s} -> {print_type(cod)}"
        case ListType(elem):
            return f"[{print_type(elem)}]"
        case MetaVar(ident):
            return f"?{ident}"
    return "1"


def _as_list(t: Term) -> Optional[list[Term]]:
    """Elements of a literal cons chain ending in nil, else None."""
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


def print_term(t: Term, sugar: bool = False) -> str:
    """Render with minimal parentheses; `sugar` prints unit-lists as `#n`."""
    return _fmt(t, _TOP, sugar)


def _fmt(u: Term, ctx: int, sugar: bool) -> str:
    items = _as_list(u)
    if items is not None:
        if sugar and all(isinstance(it, UnitVal) for it in items):
            return f"#{len(items)}"
        if not items:
            return "[]"
        return "[" + ", ".join(_fmt(it, _TOP, sugar) for it in items) + "]"
    match u:
        case Var(name):
            return name
        case UnitVal():
            return "()"
        case Nil():
            return "[]"
        case ConsC():
            return "cons"
        case LrecC():
            return "lrec"
        case Lam(param, annot, body):
            ann = f": {print_type(annot)}" if annot is not None else ""
            s = f"\\{param}{ann}. {_fmt(body, _TOP, sugar)}"
            return s if ctx == _TOP else f"({s})"
        case Catch(cont, body):
            s = f"catch {cont}. {_fmt(body, _TOP, sugar)}"
            return s if ctx == _TOP else f"({s})"
        case Throw(cont, payload):
            # the payload is a full term position: throw binds maximally
            s = f"throw {cont} {_fmt(payload, _TOP, sugar)}"
            return s if ctx == _TOP else f"({s})"
        case App(fun, arg):
            s = f"{_fmt(fun, _FUN, sugar)} {_fmt(arg, _ARG, sugar)}"
            return s if ctx != _ARG else f"({s})"
    raise ValueError(f"not a term: {u!r}")
