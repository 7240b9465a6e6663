"""Command-line interface.

Subcommands: check (type check an .lc file), eval (evaluate an
expression), redexes (list one-step reducts), develop (apply the
complete development), meta (run the metatheory property suites).

Exit codes: 0 success; 1 parse error, unreadable file or out-of-range
flag; 2 type error; 3 uncaught throw; 4 out of fuel; 5 metatheory
property failure; 6 resource exhaustion (a term nested too deeply for the
interpreter's recursion limit).  `eval` types the term in the empty
environment first, so a throw to a free continuation exits 2 and a
closed well-typed term never gets stuck (progress): exit 3 and the
stuck-term exit 4 are guards that no input reaches.  Every error is one
line on stderr.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import prelude
from .reduction import DEFAULT_FUEL, Outcome, OutcomeKind, enumerate_redexes, evaluate
from .surface import ParseError, expand_defs, expand_term, parse_program, parse_term, print_term, print_type
from .syntax import Term
from .typecheck import TypingEnv, TypingError, infer

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TYPE = 2
EXIT_UNCAUGHT = 3
EXIT_FUEL = 4
EXIT_META = 5
EXIT_RESOURCE = 6


def _load_scope(prelude_path: Optional[str], use_prelude: bool) -> list[tuple[str, Term]]:
    if not use_prelude:
        return []
    if prelude_path is None:
        # the type-checked library, so inference reuses each definition's type
        return [(entry.name, entry.term) for entry in prelude.library()]
    with open(prelude_path, encoding="utf-8-sig") as handle:
        return expand_defs(parse_program(handle.read()))


def _parse_expression(expr: str, scope: list[tuple[str, Term]]) -> Term:
    return expand_term(parse_term(expr), scope)


def render_trace(outcome: Outcome, sugar: bool = False) -> list[str]:
    """One line per event: `step <k>: [<rule>] <term>`."""
    if outcome.trace is None:
        return []
    lines = [
        f"step {k}: [{event.rule.value}] {print_term(event.result, sugar=sugar)}"
        for k, event in enumerate(outcome.trace, start=1)
    ]
    if outcome.trace_truncated:
        lines.append(f"... trace truncated after {len(outcome.trace)} events ...")
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8-sig") as handle:
        prog = parse_program(handle.read())
    env = TypingEnv()
    expanded_defs = expand_defs(prog)
    for name, term in expanded_defs:
        print(f"{name} : {print_type(infer(env, term))}")
    if prog.main is not None:
        expanded = expand_term(prog.main, expanded_defs)
        print(f"main : {print_type(infer(env, expanded))}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if args.max_steps < 0:
        print("error: --max-steps must be at least 0", file=sys.stderr)
        return EXIT_PARSE
    term = _parse_expression(args.expr, _load_scope(args.prelude, args.use_prelude))
    infer(TypingEnv(), term)
    outcome = evaluate(term, fuel=args.max_steps, keep_trace=args.trace)
    for line in render_trace(outcome, sugar=args.sugar):
        print(line)
    print(print_term(outcome.term, sugar=args.sugar))
    if args.count:
        print(f"steps: {outcome.steps}")
    if outcome.kind is OutcomeKind.VALUE:
        return EXIT_OK
    if outcome.kind is OutcomeKind.UNCAUGHT_THROW:
        print(f"uncaught throw to {outcome.cont}", file=sys.stderr)
        return EXIT_UNCAUGHT
    if outcome.kind is OutcomeKind.OUT_OF_FUEL:
        print(f"out of fuel after {outcome.steps} steps", file=sys.stderr)
        return EXIT_FUEL
    print("stuck term (ill-formed input?)", file=sys.stderr)
    return EXIT_FUEL


def cmd_redexes(args: argparse.Namespace) -> int:
    term = _parse_expression(args.expr, _load_scope(args.prelude, args.use_prelude))
    for event in enumerate_redexes(term):
        path = "/" + "/".join(map(str, event.path))
        print(f"[{event.rule.value}] @ {path} -> {print_term(event.result, sugar=args.sugar)}")
    return EXIT_OK


def cmd_develop(args: argparse.Namespace) -> int:
    from .confluence import complete_development
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    term = _parse_expression(args.expr, _load_scope(args.prelude, args.use_prelude))
    for _ in range(args.rounds):
        term = complete_development(term)
    print(print_term(term, sugar=args.sugar))
    return EXIT_OK


def cmd_meta(args: argparse.Namespace) -> int:
    from . import metatheory  # here, like confluence in cmd_develop, so eval compiles neither
    if args.size < 1:
        print("error: --size must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    if args.cases < 0:
        print("error: --cases must be at least 0", file=sys.stderr)
        return EXIT_PARSE
    short_names = {row.short: row.name for row in metatheory.PROPERTY_TABLE}
    keys = (metatheory.PROPERTIES if args.props == "all"
            else [raw.strip() for raw in args.props.split(",")])
    props = [short_names.get(key.lower(), key) for key in keys]
    for key, name in zip(keys, props):
        if name not in metatheory.PROPERTIES:
            print(f"error: unknown property {key!r} "
                  f"(known: {', '.join(sorted(short_names))})", file=sys.stderr)
            return EXIT_PARSE
    cfg = metatheory.GenConfig(seed=args.seed, max_size=args.size)
    failed = False
    for name in props:
        report = metatheory.run_property(name, args.cases, cfg)
        print(report.render())
        failed = failed or not report.passed
    return EXIT_META if failed else EXIT_OK


def _add_expr_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-e", "--expr", required=True,
                        help="expression to process")
    parser.add_argument("--prelude", metavar="PATH", default=None,
                        help="use PATH instead of the bundled prelude")
    parser.add_argument("--no-prelude", dest="use_prelude",
                        action="store_false", default=True,
                        help="do not bring prelude definitions into scope")
    parser.add_argument("--sugar", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="print unit lists as numerals (default on)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="lcatch",
        description="Interpreter and metatheory bench for a CBV lambda "
                    "calculus with catch/throw, lists, and primitive recursion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type check an .lc file")
    p_check.add_argument("file", help="source file")
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="type check and evaluate an expression")
    _add_expr_flags(p_eval)
    p_eval.add_argument("--trace", action="store_true",
                        help="print one line per reduction step")
    p_eval.add_argument("--max-steps", type=int, default=DEFAULT_FUEL,
                        metavar="N", help="fuel bound (default %(default)s)")
    p_eval.add_argument("--count", action="store_true",
                        help="print the exact step count")
    p_eval.set_defaults(func=cmd_eval)

    p_red = sub.add_parser("redexes", help="list all one-step reducts")
    _add_expr_flags(p_red)
    p_red.set_defaults(func=cmd_redexes)

    p_dev = sub.add_parser("develop", help="apply the complete development")
    _add_expr_flags(p_dev)
    p_dev.add_argument("-n", "--rounds", type=int, default=1,
                       help="number of development rounds (default 1)")
    p_dev.set_defaults(func=cmd_develop)

    p_meta = sub.add_parser("meta", help="run metatheory property suites")
    p_meta.add_argument("--props", default="all",
                        help="comma-separated properties or their short names (default all)")
    p_meta.add_argument("--cases", type=int, default=1000,
                        help="generated terms per property (default 1000)")
    p_meta.add_argument("--seed", type=int, default=0,
                        help="base random seed (default 0)")
    p_meta.add_argument("--size", type=int, default=12,
                        help="generator node budget (default 12)")
    p_meta.set_defaults(func=cmd_meta)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except TypingError as err:
        print(f"type error: {err.render()}", file=sys.stderr)
        return EXIT_TYPE
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("resource error: term nested too deeply (recursion limit exceeded)",
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
