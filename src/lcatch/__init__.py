"""lcatch: a simply typed CBV lambda calculus with catch/throw and lists.

The package provides the term and type syntax, a parser and printer, a
unification-based type checker, the small-step reduction relation with a
deterministic CBV evaluator, parallel reduction and complete developments
for confluence checking, a typed prelude of arithmetic programs, and a
property-based test bench for the calculus' metatheory.  `_EXPORTS`
maps each layer to its public names; a layer is imported on first use.
"""

_EXPORTS = {
    "syntax": "App ArrowType Catch ConsC Lam ListType LrecC MetaVar Nil Term Throw Type "
              "UnitType UnitVal Var alpha_eq free_vars numeral size subst",
    "surface": "ParseError SourceProgram parse_program parse_term print_term print_type",
    "typecheck": "ErrorKind TypingEnv TypingError check derivable infer is_arrow_free",
    "reduction": "Outcome OutcomeKind ReductionEvent Rule contract enumerate_redexes evaluate step_cbv",
    "confluence": "complete_development parallel_reducts",
    "prelude": "NotANumeral decode_nat library",
    "metatheory": "GenConfig PropertyReport gen_term minimize run_property",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    layer = _HOME.get(name, name)
    if layer not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `-X importtime`
    module = __import__(f"{__name__}.{layer}", fromlist=[name])
    return module if layer == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
