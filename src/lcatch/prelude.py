"""The bundled term library: the named prelude programs, and numerals read back.

Naturals are unit lists: zero is nil, successor is `cons ()`, and
`syntax.numeral` builds them.  The prelude ships as an `.lc` source file
parsed at import of `library()`; its definitions (nrec, pred, plus,
times, prodz) are expanded by substitution and type checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .surface import SourceProgram, expand_defs, parse_program
from .syntax import Nil, Term, Type, UnitVal, is_cons_cell
from .typecheck import TypingEnv, infer


class NotANumeral(Exception):
    """Raised when decoding a term that is not suc^n zero."""


@dataclass(frozen=True)
class NamedTerm:
    """A closed, typechecked prelude definition."""

    name: str
    term: Term
    declared_type: Type


def decode_nat(v: Term) -> int:
    """Inverse of `syntax.numeral`; raises NotANumeral for any other term."""
    n = 0
    while is_cons_cell(v) and type(v.fun.arg) is UnitVal:
        n += 1
        v = v.arg
    if type(v) is not Nil:
        raise NotANumeral(f"not a numeral: {v!r}")
    return n


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
