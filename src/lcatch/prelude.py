"""The bundled term library: numerals and the named prelude programs.

Naturals are unit lists: zero is nil, successor is `cons ()`.  The
prelude ships as an `.lc` source file parsed at import of `library()`;
its definitions (nrec, pred, plus, times, prodz) are expanded by
substitution and type checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .surface import SourceProgram, expand_defs, parse_program
from .syntax import App, ConsC, Nil, Term, Type, UnitVal, numeral
from .typecheck import TypingEnv, infer


class NotANumeral(Exception):
    """Raised when decoding a term that is not suc^n zero."""


@dataclass(frozen=True)
class NamedTerm:
    """A closed, typechecked prelude definition."""

    name: str
    term: Term
    declared_type: Type


def encode_nat(n: int) -> Term:
    """suc^n zero; the numeral for n at type [1].  `numeral` rejects n < 0."""
    return numeral(n)


def decode_nat(v: Term) -> int:
    """Inverse of encode_nat; raises NotANumeral for any other term."""
    n = 0
    while True:
        match v:
            case Nil():
                return n
            case App(App(ConsC(), UnitVal()), tail):
                n += 1
                v = tail
            case _:
                raise NotANumeral(f"not a numeral: {v!r}")


def prelude_source() -> str:
    return resources.files(__package__).joinpath("prelude.lc").read_text()


@lru_cache(maxsize=1)
def prelude_program() -> SourceProgram:
    return parse_program(prelude_source())


@lru_cache(maxsize=1)
def prelude_defs() -> tuple[tuple[str, Term], ...]:
    """Definition-expanded prelude bindings, in source order."""
    return tuple(expand_defs(prelude_program()))


@lru_cache(maxsize=1)
def library() -> tuple[NamedTerm, ...]:
    """All prelude definitions, expanded and typechecked."""
    env = TypingEnv()
    return tuple(NamedTerm(name, term, infer(env, term))
                 for name, term in prelude_defs())
