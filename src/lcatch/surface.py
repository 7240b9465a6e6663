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
of line.  Digits are ASCII digits, and a numeral is at most `#1000000`
(leading zeros do not count).  Identifiers are ASCII: letter or
underscore, then letters, digits, underscores, or primes.  A type
ascription `(t : T)` elaborates to an identity application
`(\\x: T. x) t`; the printer never emits one.

The lexer is one compiled pattern: each match skips blanks and comments
and captures one token, or any other single character as an error token,
or the empty end of input.  `findall` over it gives the token texts, a
dict gives their kinds, and the parser indexes the two parallel lists.
Tokens carry no position: a ParseError lexes again up to the offending
token to find its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    CONS, LREC, App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, MetaVar,
    Nil, Term, Throw, Type, UNIT, UNIT_TYPE, UnitVal, Var, cons, free_vars,
    numeral, subst,
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
    defs: list[tuple[str, Term]] = field(default_factory=list, init=False)
    main: Optional[Term] = field(default=None, init=False)


# ---------------------------------------------------------------------------
# Lexer

# Blanks and comments are matched greedily, and some alternative always
# matches right after them, so the pattern never backtracks into a
# comment and the matches tile the source.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*
    ( [A-Za-z_][A-Za-z0-9_']* | [\\.:()\[\],=;] | -> | \#[0-9]+ | [0-9]+
    | . | \Z )""", re.VERBOSE | re.DOTALL)

_KINDS = {
    "\\": "LAMBDA", ".": "DOT", ":": "COLON", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", "=": "EQUALS",
    ";": "SEMI", "->": "ARROW", "#": "ERROR",    # '#' alone: no digits follow
    **{word: word.upper() for word in ("catch", "throw", "def", "main", "cons", "lrec")},
}
# The kind of any other token follows from its first character.
_FIRST = {"#": "HASHNUM", **dict.fromkeys("0123456789", "NUMBER"),
          **dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "IDENT")}


def _lex(src: str) -> tuple[list[str], list[str]]:
    """Token kinds and texts, ending in one EOF token with text ''."""
    texts = _TOKEN.findall(src)
    del texts[texts.index(""):]    # the end of input matches once or twice
    kinds = [_KINDS.get(t) or _FIRST.get(t[0], "ERROR") for t in texts]
    if "ERROR" in kinds:
        index = kinds.index("ERROR")
        line, column = _position(src, index)
        if texts[index] == "#":
            raise ParseError(line, column, "expected digits after '#'", ["digits"])
        raise ParseError(line, column, f"unexpected character {texts[index]!r}")
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _position(src: str, index: int) -> tuple[int, int]:
    """1-based line and column of token `index` of `src` (EOF included)."""
    for i, match in enumerate(_TOKEN.finditer(src)):
        if i == index:
            break
    offset = match.start(1)
    if offset == len(src):
        # an end of input right after a comment sits where the comment starts
        comment = src.find("--", max(match.start(), src.rfind("\n") + 1))
        if comment != -1:
            offset = comment
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser

_CLOSE = {"LPAREN": ("RPAREN", "')'"), "LBRACKET": ("RBRACKET", "']'")}
# The largest numeral built.  Its cells share one `cons ()` node and are
# built with their memos, so each keeps one App of 80 bytes (about 115
# once hashed) and costs about 1.2 us through `lcatch eval` (0.87 to
# parse, 0.34 to print, none to expand or type; Python 3.11, 2 shared
# CPUs), and no layer takes a host frame per cell, so the cap bounds a
# numeral's cells at about 115 MB and a second or two: `eval --count -e
# "plus #0 #1000000"` took 1.5 s and 108 MB peak in one process.  Its
# digit count is checked first, so `int` never sees a huge string.
_NUMERAL_MAX = 10**6


class _Parser:
    """Recursive descent over the token lists; `pos` indexes both."""

    def __init__(self, src: str):
        self.src = src
        self.kinds, self.texts = _lex(src)
        self.pos = 0

    def error_at(self, index: int, message: str, expected=None) -> ParseError:
        line, column = _position(self.src, index)
        return ParseError(line, column, message, expected)

    def fail(self, pos: int, what: str, expected: list[str] | None = None) -> ParseError:
        found = self.texts[pos] if self.kinds[pos] != "EOF" else "end of input"
        return self.error_at(pos, f"expected {what}, found {found!r}", expected or [what])

    def expect(self, kind: str, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.fail(pos, what)
        self.pos = pos + 1
        return self.texts[pos]

    # types

    def parse_type(self) -> Type:
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        if kind == "NUMBER" and self.texts[pos] == "1":
            left = UNIT_TYPE
        elif kind in _CLOSE:
            self.pos = pos + 1
            left = self.parse_type()
            pos = self.pos
            close, what = _CLOSE[kind]
            if kinds[pos] != close:
                raise self.fail(pos, what)
            if kind == "LBRACKET":
                left = ListType(left)
        else:
            raise self.fail(pos, "a type", ["'1'", "'['", "'('"])
        if kinds[pos + 1] == "ARROW":
            self.pos = pos + 2
            return ArrowType(left, self.parse_type())
        self.pos = pos + 1
        return left

    # terms

    def parse_term(self) -> Term:
        kinds, texts, pos = self.kinds, self.texts, self.pos
        kind = kinds[pos]
        if kind == "LAMBDA" or kind == "CATCH" or kind == "THROW":
            if kinds[pos + 1] != "IDENT":
                raise self.fail(pos + 1, "identifier")
            name = texts[pos + 1]
            self.pos = pos = pos + 2
            if kind == "THROW":
                return Throw(name, self.parse_term())
            annot = None
            if kind == "LAMBDA" and kinds[pos] == "COLON":
                self.pos = pos + 1
                annot = self.parse_type()
                pos = self.pos
            if kinds[pos] != "DOT":
                raise self.fail(pos, "'.'")
            self.pos = pos + 1
            if kind == "CATCH":
                return Catch(name, self.parse_term())
            return Lam(name, annot, self.parse_term())
        out = None
        while True:
            if kind == "IDENT":
                atom = Var(texts[pos])
            elif kind in _CLOSE:
                self.pos = pos
                atom = self.parse_group()
                pos = self.pos - 1
            elif kind == "HASHNUM":
                digits = texts[pos][1:].lstrip("0") or "0"
                if len(digits) > len(str(_NUMERAL_MAX)) or int(digits) > _NUMERAL_MAX:
                    raise self.error_at(pos, "numeral too large")
                atom = numeral(int(digits))
            elif kind == "CONS":
                atom = CONS
            elif kind == "LREC":
                atom = LREC
            elif out is None:
                raise self.fail(pos, "a term", ["'\\\\'", "'catch'", "'throw'", "atom"])
            else:
                self.pos = pos
                return out
            out = atom if out is None else App(out, atom)
            pos += 1
            kind = kinds[pos]

    def parse_group(self) -> Term:
        """A term, unit, ascription or list literal in brackets."""
        kinds, pos = self.kinds, self.pos
        kind = kinds[pos]
        close, what = _CLOSE[kind]
        if kinds[pos + 1] == close:
            self.pos = pos + 2
            return UNIT if kind == "LPAREN" else Nil()
        items = []
        while True:
            self.pos = pos + 1
            items.append(self.parse_term())
            pos = self.pos
            if kind == "LPAREN" or kinds[pos] != "COMMA":
                break
        if kind == "LPAREN" and kinds[pos] == "COLON":
            self.pos = pos + 1
            items[0] = App(Lam("_asc", self.parse_type(), Var("_asc")), items[0])
            pos = self.pos
        if kinds[pos] != close:
            raise self.fail(pos, what)
        self.pos = pos + 1
        if kind == "LPAREN":
            return items[0]
        out = Nil()
        for item in reversed(items):
            out = cons(item, out)
        return out

    # programs

    def parse_program(self) -> SourceProgram:
        prog = SourceProgram()
        seen: set[str] = set()
        kinds = self.kinds
        while kinds[self.pos] == "DEF":
            self.pos += 1
            name = self.expect("IDENT", "identifier")
            if name in seen:
                raise self.error_at(self.pos - 1, f"duplicate definition of {name!r}")
            seen.add(name)
            self.expect("EQUALS", "'='")
            body = self.parse_term()
            self.expect("SEMI", "';'")
            prog.defs.append((name, body))
        if kinds[self.pos] == "MAIN":
            self.pos += 1
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
        out.append((name, expand_term(term, out)))
    return out


def expand_term(term: Term, defs: list[tuple[str, Term]]) -> Term:
    """Substitute already-expanded definitions into `term`.  A definition
    whose name is not free in the term so far is skipped: `subst` would
    return the term itself."""
    for name, body in defs:
        if name in free_vars(term).term_vars:
            term = subst(term, name, body)
    return term


# ---------------------------------------------------------------------------
# Pretty-printer

_TOP, _FUN, _ARG = 0, 1, 2


def print_type(ty: Type) -> str:
    cls = type(ty)
    if cls is ArrowType:
        dom = ty.dom
        dom_s = print_type(dom)
        if type(dom) is ArrowType:
            dom_s = f"({dom_s})"
        return f"{dom_s} -> {print_type(ty.cod)}"
    if cls is ListType:
        return f"[{print_type(ty.elem)}]"
    if cls is MetaVar:
        return f"?{ty.ident}"
    return "1"


def print_term(t: Term, sugar: bool = False) -> str:
    """Render with minimal parentheses; `sugar` prints unit-lists as `#n`."""
    return _fmt(t, _TOP, sugar)


_CONSTANTS = {UnitVal: "()", ConsC: "cons", LrecC: "lrec"}


def _fmt(u: Term, ctx: int, sugar: bool) -> str:
    cls = type(u)
    if cls is App:
        # the argument spine `f1 (f2 (... u))` in one loop, so its length
        # costs no host frame, with a run of `cons h` down to nil at its
        # bottom as a list literal; the common `f a` has no spine to walk
        arg_cls = type(u.arg)
        if arg_cls is not App and arg_cls is not Nil:
            s = f"{_fmt(u.fun, _FUN, sugar)} {_fmt(u.arg, _ARG, sugar)}"
            return s if ctx != _ARG else f"({s})"
        funs = []
        while cls is App:
            funs.append(u.fun)
            u = u.arg
            cls = type(u)
        if cls is Nil:
            n = len(funs)
            while n and type(f := funs[n - 1]) is App and type(f.fun) is ConsC:
                n -= 1
            if sugar and all(type(f.arg) is UnitVal for f in funs[n:]):
                tail = f"#{len(funs) - n}"
            else:
                tail = "[" + ", ".join([_fmt(f.arg, _TOP, sugar) for f in funs[n:]]) + "]"
            if not n:
                return tail
            del funs[n:]
        else:
            tail = _fmt(u, _ARG, sugar)
        s = " (".join([_fmt(f, _FUN, sugar) for f in funs]) + f" {tail}" + ")" * (len(funs) - 1)
        return s if ctx != _ARG else f"({s})"
    if cls is Var:
        return u.name
    if cls is Lam:
        ann = f": {print_type(u.annot)}" if u.annot is not None else ""
        s = f"\\{u.param}{ann}. {_fmt(u.body, _TOP, sugar)}"
    elif cls is Catch:
        s = f"catch {u.cont}. {_fmt(u.body, _TOP, sugar)}"
    elif cls is Throw:
        # the payload is a full term position: throw binds maximally
        s = f"throw {u.cont} {_fmt(u.payload, _TOP, sugar)}"
    elif cls is Nil:
        return "#0" if sugar else "[]"
    elif cls in _CONSTANTS:
        return _CONSTANTS[cls]
    else:
        raise ValueError(f"not a term: {u!r}")
    return s if ctx == _TOP else f"({s})"
