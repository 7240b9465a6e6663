"""lcatch: a simply typed CBV lambda calculus with catch/throw and lists.

The package provides the term and type syntax, a parser and printer, a
unification-based type checker, the small-step reduction relation with a
deterministic CBV evaluator, parallel reduction and complete developments
for confluence checking, a typed prelude of arithmetic programs, and a
property-based test bench for the calculus' metatheory.
"""

from .syntax import (
    App, ArrowType, Catch, ConsC, Lam, ListType, LrecC, MetaVar, Nil, Term,
    Throw, Type, UnitType, UnitVal, Var, alpha_eq, free_vars, numeral, size, subst,
)
from .surface import ParseError, SourceProgram, parse_program, parse_term, print_term, print_type
from .typecheck import (
    ErrorKind, TypingEnv, TypingError, check, derivable, infer, is_arrow_free,
)
from .reduction import (
    Outcome, OutcomeKind, ReductionEvent, Rule, contract, enumerate_redexes,
    evaluate, step_cbv,
)
from .confluence import complete_development, parallel_reducts
from .prelude import NamedTerm, NotANumeral, decode_nat, library
from .metatheory import GenConfig, PropertyReport, gen_term, minimize, run_property

__version__ = "0.1.0"
