import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import lcatch
from lcatch import reduction, surface
from lcatch.cli import build_parser, main
from lcatch.prelude import prelude_defs
from lcatch.surface import expand_term, parse_term
from lcatch.syntax import UNIT, UNIT_TYPE, ListType, Nil, cons
from lcatch.typecheck import TypingEnv, TypingError, infer


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------- eval -------------


def test_eval_product_example():
    code, out, _ = run_cli("eval", "-e", "prodz [#4, #0, #9]", "--count")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "#0"
    assert lines[1].startswith("steps: ")


def test_eval_pred():
    code, out, _ = run_cli("eval", "-e", "pred #5")
    assert code == 0
    assert out.splitlines() == ["#4"]


def test_eval_trace():
    code, out, _ = run_cli("eval", "-e", "(\\x:1. x) ()", "--trace")
    assert code == 0
    assert out.splitlines() == ["step 1: [beta_v] ()", "()"]


def test_eval_trace_reports_its_truncation(monkeypatch):
    argv = ("eval", "--trace", "--count", "-e", "times #2 #2")
    _, full, _ = run_cli(*argv)
    monkeypatch.setattr(reduction, "TRACE_CAP", 5)
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out.splitlines() == [*full.splitlines()[:5],
                                "... trace truncated after 5 events ...", "#4", "steps: 39"]



def test_eval_throw_is_not_captured_by_a_renamed_catch():
    # substituting the outer handler freshens the middle `catch a` to a1;
    # its throw must not then be captured by the inner `catch a1`
    expr = ("catch a. (\\x: 1 -> [1]. catch a. cons () (catch a1. cons () "
            "(x (throw a #7)))) (\\w: 1. throw a #5)")
    renamed = expr.replace("catch a. cons", "catch b. cons").replace("throw a #7", "throw b #7")
    for text in (expr, renamed):
        code, out, _ = run_cli("eval", "--count", "-e", text)
        assert code == 0
        assert out.splitlines() == ["#7", "steps: 8"]
    # step 1 holds both freshenings: the middle catch, then the inner one
    assert run_cli("eval", "--trace", "-e", expr) == (0, (
        "step 1: [beta_v] catch a. catch a1. cons () (catch a2. cons () "
        "((\\w: 1. throw a #5) (throw a1 #7)))\n"
        "step 2: [throw] catch a. catch a1. cons () (catch a2. cons () (throw a1 #7))\n"
        "step 3: [throw] catch a. catch a1. cons () (catch a2. throw a1 #7)\n"
        "step 4: [catch_2] catch a. catch a1. cons () (throw a1 #7)\n"
        "step 5: [throw] catch a. catch a1. throw a1 #7\n"
        "step 6: [catch_1] catch a. catch a1. #7\n"
        "step 7: [catch_3] catch a. #7\n"
        "step 8: [catch_3] #7\n"
        "#7\n"), "")


def test_eval_type_error_exit_code():
    code, out, err = run_cli("eval", "-e", "catch a. \\x:1. x")
    assert code == 2
    assert "NonArrowFreeCatch" in err


def test_eval_throw_to_an_unbound_continuation_is_a_type_error():
    # eval types the term closed first, so exit 3 (uncaught throw) cannot
    # come from the CLI: the free continuation variable is the type error
    assert run_cli("eval", "-e", "throw a ()") == (
        2, "", "type error: UnboundContVar at /: unbound continuation variable 'a'\n")


def test_eval_parse_error_exit_code():
    code, _, err = run_cli("eval", "-e", "(\\x. x")
    assert code == 1
    assert "parse error" in err


def test_eval_out_of_fuel_exit_code():
    code, out, err = run_cli("eval", "-e", "(\\x:1. x) ()", "--max-steps", "0")
    assert code == 4


def test_eval_no_sugar():
    code, out, _ = run_cli("eval", "-e", "pred #3", "--no-sugar")
    assert code == 0
    assert out.splitlines() == ["[(), ()]"]


def test_eval_no_prelude_makes_names_unbound():
    code, _, err = run_cli("eval", "-e", "pred #3", "--no-prelude")
    assert code == 2
    assert "UnboundVar" in err


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()
    first = run_cli("eval", "-e", "plus #2 #3", "--count", "--no-sugar")
    assert run_cli("eval", "-e", "plus #2 #3", "--count", "--no-sugar") == first
    # options of one call do not leak into the next
    assert run_cli("eval", "-e", "plus #2 #3") == (0, "#5\n", "")


def test_eval_deterministic_output():
    first = run_cli("eval", "-e", "times #3 #4", "--count", "--trace")
    second = run_cli("eval", "-e", "times #3 #4", "--count", "--trace")
    assert first == second


def test_eval_traces_are_pinned():
    # the machine's traced output, event paths and binder names included,
    # for the benchmark's eval ladder's median op among others
    exprs = ("times #3 #3", "pred #7", "plus #4 #3", "prodz [#2, #0, #3]",
             "prodz [#2, #1, #3]", "prodz [#1, #4, #2, #5, #0, #6, #3]")
    outs = [run_cli("eval", "--trace", "--count", "-e", expr) for expr in exprs]
    assert all(code == 0 and not err for code, _, err in outs)
    text = "".join(out for _, out, _ in outs)
    assert text.count("\n") == 396
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "76709a094902c858f1036ded0a41f2c957e6371a8e97db1d37648518404aa353")


@pytest.mark.parametrize("expr, steps", [
    ("times #20 #20", 1785),       # 4nm + 9n + 5
    ("plus #100 #5", 405),         # 4n + 5
    ("pred #357", 9),
    ("prodz [#2, #3, #4]", 319),
])
def test_eval_ladder_step_counts(expr, steps):
    # the paper's observable at the benchmark ladder's sizes
    code, out, _ = run_cli("eval", "--count", "-e", expr)
    assert code == 0
    assert out.splitlines()[-1] == f"steps: {steps}"


# ------------- check -------------


def test_check_prelude_file(tmp_path):
    from lcatch.prelude import prelude_source
    target = tmp_path / "prelude.lc"
    target.write_text(prelude_source())
    code, out, _ = run_cli("check", str(target))
    assert code == 0
    assert "pred : [1] -> [1]" in out.splitlines()


def test_check_reports_non_arrow_free_catch(tmp_path):
    target = tmp_path / "bad.lc"
    target.write_text("def bad = catch a. \\x:1. x;\n")
    code, _, err = run_cli("check", str(target))
    assert code == 2
    assert "NonArrowFreeCatch" in err


def test_check_parse_error(tmp_path):
    target = tmp_path / "broken.lc"
    target.write_text("def broken = ;\n")
    code, _, err = run_cli("check", str(target))
    assert code == 1


def test_check_empty_file(tmp_path):
    target = tmp_path / "empty.lc"
    target.write_text("")
    code, out, _ = run_cli("check", str(target))
    assert code == 0
    assert out == ""


def test_check_missing_file():
    code, _, err = run_cli("check", "/nonexistent/nowhere.lc")
    assert code == 1


def test_check_main_expression(tmp_path):
    target = tmp_path / "prog.lc"
    target.write_text("def id = \\x:1. x;\nmain = id ();\n")
    code, out, _ = run_cli("check", str(target))
    assert code == 0
    assert out.splitlines() == ["id : 1 -> 1", "main : 1"]


def test_check_reads_a_byte_order_mark_like_its_absence(tmp_path):
    source = "def id = \\x:1. x;\nmain = id ();\n"
    plain, marked = tmp_path / "plain.lc", tmp_path / "marked.lc"
    plain.write_text(source, encoding="utf-8")
    marked.write_text("\ufeff" + source, encoding="utf-8")
    assert run_cli("check", str(marked)) == run_cli("check", str(plain)) == \
        (0, "id : 1 -> 1\nmain : 1\n", "")
    assert run_cli("eval", "--prelude", str(marked), "-e", "id ()") == \
        run_cli("eval", "--prelude", str(plain), "-e", "id ()") == (0, "()\n", "")


def test_byte_order_mark_inside_a_file_is_a_parse_error(tmp_path):
    target = tmp_path / "inner.lc"
    target.write_text("def id = \\x:1. x;\n\ufeffmain = id ();\n", encoding="utf-8")
    assert run_cli("check", str(target)) == \
        (1, "", "parse error: 2:1: unexpected character '\\ufeff'\n")
    assert run_cli("eval", "--prelude", str(target), "-e", "id ()") == \
        (1, "", "parse error: 2:1: unexpected character '\\ufeff'\n")


# ------------- resource exhaustion -------------


def test_eval_too_deep_exits_with_resource_code():
    # binders still nest one host frame a level; list length does not count
    code, _, err = run_cli("eval", "-e", "catch k. " * 2000 + "()")
    assert code == 6
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_check_too_deep_exits_with_resource_code(tmp_path):
    target = tmp_path / "deep.lc"
    target.write_text("def deep = " + "\\v: 1. " * 2000 + "();\n")
    code, _, err = run_cli("check", str(target))
    assert code == 6
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("binder, type_text", [
    ("\\v: 1. ", " -> ".join(["1"] * 901)), ("catch a. ", "1")], ids=["lambda", "catch"])
def test_check_accepts_a_900_deep_nest_used_by_main(tmp_path, binder, type_text):
    # in a fresh interpreter, whose stack is not already deep in pytest's;
    # main reuses the definition's inferred type instead of walking it again
    target = tmp_path / "deep.lc"
    target.write_text(f"def deep = {binder * 900}();\nmain = (\\d. d) deep;\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lcatch.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "lcatch.cli", "check", str(target)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"deep : {type_text}\nmain : {type_text}\n"


def test_eval_reaches_the_depth_the_prelude_benchmark_uses():
    # in a fresh interpreter: eval-prelude's deep slice runs pred on 700 to
    # 750 and plus on #0 and 1500 to 1550, so a walker that took a frame
    # per cell would end these in exit 6 and move the benchmark's
    # known-defect share
    env = {**os.environ, "PYTHONPATH": str(Path(lcatch.__file__).parents[1])}
    for expr, out in [("pred #950", "#949\nsteps: 9\n"), ("plus #0 #1550", "#1550\nsteps: 5\n"),
                      ("pred #20000", "#19999\nsteps: 9\n")]:
        done = subprocess.run([sys.executable, "-m", "lcatch.cli", "eval", "-e", expr, "--count"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == out


def test_eval_prints_a_deep_out_of_fuel_term():
    # in a fresh interpreter: the term left when the fuel runs out nests
    # about 20,000 continuations `(\y. cons () y) (...)` in argument
    # position, which the printer walks in a loop.  The digest is of the
    # output a recursive printer gave under a raised recursion limit.
    env = {**os.environ, "PYTHONPATH": str(Path(lcatch.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "lcatch.cli", "eval", "-e", "times #2 #20000"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (4, "out of fuel after 100000 steps\n")
    assert done.stdout.startswith("(\\y. cons () y) ((\\y. cons () y) (")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "a155612f3abc61fb1036ea0bedf6a3b74c8aaa01a430f1d13a056b446fd7330f")


def test_eval_returns_a_chain_of_400_closures():
    # each recursive call returns `\x. r x` with `r` bound to the one before,
    # and the machine reads the chain back without a host frame per link
    n = 400
    expr = f"lrec (\\x: [1]. x) (\\h: 1. \\t: [1]. \\r: [1] -> [1]. \\x: [1]. r x) #{n}"
    value = "\\x: [1]. " + "(\\x: [1]. " * n + "x" + ") x" * n
    assert run_cli("eval", "--count", "-e", expr) == (0, f"{value}\nsteps: {4 * n + 1}\n", "")


# In-process, under the default recursion limit: parse, expand, type,
# run and print take no host frame per list cell.


def test_check_a_definition_holding_a_long_list(tmp_path):
    target = tmp_path / "long.lc"
    target.write_text("def units = [" + ", ".join(["()"] * 5000) + "];\n")
    assert run_cli("check", str(target)) == (0, "units : [1]\n", "")


def test_eval_substitutes_into_every_cell_of_a_long_list():
    expr = "(\\x. [" + ", ".join(["x"] * 3000) + "]) ()"
    assert run_cli("eval", "--count", "-e", expr) == (0, "#3000\nsteps: 1\n", "")


def test_eval_expands_a_definition_into_every_cell_of_a_long_list():
    expr = "[" + ", ".join(["pred #1"] * 2000) + "]"
    out = "[" + ", ".join(["#0"] * 2000) + "]\nsteps: 18000\n"
    assert run_cli("eval", "--count", "-e", expr) == (0, out, "")


def test_redexes_on_a_deep_catch_nest():
    # the lister plugs each contractum into its frames without recursing,
    # so it reaches about as deep as `eval`
    depth = 900
    code, out, err = run_cli("redexes", "--no-prelude", "-e", "catch a. " * depth + "()")
    assert (code, err) == (0, "")
    assert out == f"[catch_3] @ {'/0' * (depth - 1)} -> {'catch a. ' * (depth - 1)}()\n"


def test_redexes_and_develop_on_a_long_list():
    # the lister and the development loop down an argument spine, so list
    # length costs them no host frame
    assert run_cli("redexes", "--no-prelude", "-e", "#3000") == (0, "", "")
    assert run_cli("develop", "--no-prelude", "-e", "#3000") == (0, "#3000\n", "")
    code, out, err = run_cli("redexes", "-e", "pred #3000")
    assert (code, err) == (0, "")
    assert [line.split(" -> ")[0] for line in out.splitlines()] == [
        "[beta_v] @ /0/0/0/0/0", "[beta_v] @ /"]
    code, out, err = run_cli("develop", "-e", "pred #3000")
    assert (code, err) == (0, "")
    assert out.endswith(" #3000\n")


def _cons_built(n):
    """The numeral for `n` built with `cons`, so that no two cells share a node."""
    out = Nil()
    for _ in range(n):
        out = cons(UNIT, out)
    return out


_NUMERAL_PROGRAMS = (
    "#{n}", "plus #{n} #2", "plus #2 #{n}", "times #2 #{n}", "pred #{n}",
    "prodz [#2, #{n}, #0]", "prodz [#{n}, #3]", "lrec #{n} (\\h. \\t. plus h) [#1, #{n}]",
    "plus #{n} (\\x. x)", "catch a. plus #{n} (throw a #{n})", "cons () #{n}",
)


@pytest.mark.parametrize("n", [0, 1, 4, 12])
def test_shared_and_cons_built_numerals_agree(monkeypatch, n):
    # the cells of a parsed numeral share one `cons ()` node; a numeral
    # built cell by cell types, runs, lists its redexes and develops alike
    defs = list(prelude_defs())

    def outputs():
        seen = []
        for src in _NUMERAL_PROGRAMS:
            expr = src.format(n=n)
            t = expand_term(parse_term(expr), defs)
            try:
                seen.append((infer(TypingEnv(), t), t._type[1]))
            except TypingError as error:
                seen.append(error.render())
            for argv in (("eval", "--trace"), ("eval", "--count"), ("redexes",), ("develop",)):
                seen.append(run_cli(*argv, "-e", expr))
        return seen

    shared = outputs()
    if n:
        assert shared[0] == (ListType(UNIT_TYPE), 3 * n + 1)
    monkeypatch.setattr(surface, "numeral", _cons_built)
    cells = parse_term("#3")
    assert cells.fun is not cells.arg.fun
    assert outputs() == shared


# ------------- unreadable input and out-of-range flags -------------


@pytest.mark.parametrize("expr", ["#\u00b2", "#\u0663"], ids=["superscript-two", "arabic-three"])
def test_numerals_take_ascii_digits_only(expr):
    # str.isdigit accepts these; the lexer does not
    assert run_cli("eval", "-e", expr) == (1, "", "parse error: 1:1: expected digits after '#'\n")


@pytest.mark.parametrize("digits", [19, 4301])
def test_numerals_too_large_to_build_are_parse_errors(digits):
    # refused before `int` sees them: 4301 digits is past CPython's limit
    # for converting a string, and 19 already needs 10**18 cons cells
    expr = "pred\n  #" + "1" * digits
    assert run_cli("eval", "-e", expr) == (1, "", "parse error: 2:3: numeral too large\n")


def test_numerals_are_capped_by_value():
    # refused before a single cons cell is built; the cap itself is a
    # million cells, which `plus #0 #1000000` parses, types and runs
    assert run_cli("eval", "-e", "pred #1000001") == (1, "", "parse error: 1:6: numeral too large\n")


def test_leading_zeros_do_not_count_toward_the_numeral_limit():
    assert run_cli("eval", "-e", "pred #" + "0" * 4301 + "3") == (0, "#2\n", "")


@pytest.mark.parametrize("argv, message", [
    (["eval", "--prelude", "/nonexistent/prelude.lc", "-e", "()"],
     "[Errno 2] No such file or directory: '/nonexistent/prelude.lc'"),
    (["redexes", "--prelude", "{tmp}", "-e", "()"], "[Errno 21] Is a directory: '{tmp}'"),
    (["check", "{tmp}/latin1.lc"],
     "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    (["eval", "-e", "()", "--max-steps", "-1"], "--max-steps must be at least 0"),
    (["meta", "--size", "0"], "--size must be at least 1"),
    (["meta", "--cases", "-3"], "--cases must be at least 0"),
], ids=["missing-prelude", "prelude-is-a-directory", "non-utf8-file", "negative-max-steps",
        "zero-size", "negative-cases"])
def test_bad_input_is_one_error_line(tmp_path, argv, message):
    (tmp_path / "latin1.lc").write_bytes(b"def x = \xff;\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(*argv) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")


# ------------- redexes -------------


def test_redexes_lines():
    code, out, _ = run_cli("redexes", "-e", "catch a. throw a ((\\x:1. x) ())")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[beta_v] @ /0/0 -> ")
    assert lines[1].startswith("[catch_1] @ / -> ")


@pytest.mark.parametrize("expr, line", [
    ("\\y. (\\x. \\y. x) y", "[beta_v] @ /0 -> \\y. \\y1. y"),
    ("(\\x. \\y. x) y", "[beta_v] @ / -> \\y1. y"),
    ("catch b. (\\x. catch b. x) (\\u. throw b u)",
     "[beta_v] @ /0 -> catch b. catch b1. \\u. throw b u"),
], ids=["bound-y", "free-y", "catch"])
def test_redexes_freshen_a_binder_only_where_it_would_capture(expr, line):
    # the argument's y (or b) lands under a binder named y (or b)
    code, out, _ = run_cli("redexes", "--no-prelude", "-e", expr)
    assert code == 0 and line in out.splitlines()


def test_redexes_none_for_normal_form():
    code, out, _ = run_cli("redexes", "-e", "()")
    assert code == 0 and out == ""


def test_redexes_cons_throw():
    code, out, _ = run_cli("redexes", "-e", "cons (throw a ()) []")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("[throw] @ /0 -> ")


# ------------- develop -------------


def test_develop_single_round():
    code, out, _ = run_cli("develop", "-e", "(\\x:1. x) ()")
    assert code == 0 and out.strip() == "()"


def test_develop_catch_throw():
    code, out, _ = run_cli("develop", "-e", "catch a. throw a ()")
    assert code == 0 and out.strip() == "catch a. ()"


def test_develop_two_rounds():
    code, out, _ = run_cli("develop", "-e", "catch a. throw a ()", "-n", "2")
    assert code == 0 and out.strip() == "()"


def test_develop_rejects_zero_rounds():
    code, _, err = run_cli("develop", "-e", "()", "-n", "0")
    assert code == 1


# ------------- meta -------------


def test_meta_selected_props():
    code, out, _ = run_cli("meta", "--props", "sr,progress",
                           "--cases", "60", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PROP SubjectReduction CASES 60 FAILURES 0"
    assert lines[1] == "PROP Progress CASES 60 FAILURES 0"


def test_meta_zero_cases():
    code, out, _ = run_cli("meta", "--props", "sr", "--cases", "0")
    assert code == 0
    assert out.strip() == "PROP SubjectReduction CASES 0 FAILURES 0"


def test_meta_diamond():
    code, out, _ = run_cli("meta", "--props", "diamond",
                           "--cases", "40", "--size", "12")
    assert code == 0
    assert out.startswith("PROP Diamond CASES 40 FAILURES 0")


def test_meta_unknown_property():
    code, _, err = run_cli("meta", "--props", "nonsense")
    assert code == 1
    assert "unknown property" in err


def test_meta_deterministic_output():
    args = ("meta", "--props", "takahashi", "--cases", "30", "--seed", "3")
    assert run_cli(*args) == run_cli(*args)
