"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import EvalCase, check_eval  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        report = done.stdout
        for name in ("op_ms_p99", "steps_per_s", "fail_ratio"):
            assert f"  {name} " in report


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_oracle_flags_wrong_value_and_wrong_steps():
    case = EvalCase("times", (3, 4))
    assert case.value == 12 and case.steps == 4 * 3 * 4 + 9 * 3 + 5
    assert check_eval(case, 0, f"#12\nsteps: {case.steps}\n") is None
    assert check_eval(case, 0, f"#13\nsteps: {case.steps}\n") == oracle.WRONG_VALUE
    assert check_eval(case, 0, f"#12\nsteps: {case.steps + 1}\n") == oracle.WRONG_STEPS
    assert check_eval(case, 1, "") == oracle.WRONG_EXIT
    assert check_eval(case, 0, "#12\n") == oracle.WRONG_OUTPUT


def test_closed_forms():
    assert [oracle.times_steps(n, n) for n in (5, 10, 20, 25, 30)] == \
        [150, 495, 1785, 2730, 3875]
    assert {oracle.pred_steps(n) for n in range(1, 1000)} == {9}
    # the short-circuit: nothing after the first zero counts
    assert oracle.prodz_steps((4, 0)) == oracle.prodz_steps((4, 0, 9, 9, 9)) == 35
    assert EvalCase("prodz", ((2, 3, 4),)).value == 24


def test_closed_forms_match_lcatch_on_small_inputs():
    from lcatch.prelude import prelude_defs
    from lcatch.reduction import evaluate
    from lcatch.surface import expand_term, parse_term
    defs = list(prelude_defs())
    cases = [EvalCase("plus", (n, m)) for n in range(4) for m in range(3)]
    cases += [EvalCase("times", (n, m)) for n in range(4) for m in range(4)]
    cases += [EvalCase("pred", (n,)) for n in range(5)]
    cases += [EvalCase("prodz", (xs,)) for xs in
              [(), (0,), (3,), (2, 3), (1, 2, 0, 5), (2, 1, 3), (0, 4, 4)]]
    for case in cases:
        outcome = evaluate(expand_term(parse_term(case.source), defs))
        assert outcome.steps == case.steps, case.source


def test_type_text_matches_lcatch_printer():
    from lcatch.surface import parse_term, print_type
    from lcatch.typecheck import TypingEnv, infer
    n, nn = oracle.NAT, oracle.arrow(oracle.NAT, oracle.NAT)
    for ty, src in [
        (oracle.UNIT, "()"),
        (nn, r"\x: [1]. x"),
        (oracle.arrow(nn, n, n), r"\f: [1] -> [1]. \x: [1]. f x"),
        (oracle.arrow(("list", n), oracle.UNIT, n), r"\l: [[1]]. \u: 1. #2"),
    ]:
        assert oracle.type_text(ty) == print_type(infer(TypingEnv(), parse_term(src)))


def test_tracer_restores_every_binding():
    import lcatch.metatheory as metatheory
    import lcatch.reduction as reduction
    before = (reduction.subst, metatheory.run_property, metatheory.infer)
    tracer = tracing.Tracer(max_spans=10_000)
    tracer.install()
    try:
        assert reduction.subst is not before[0]
        tracer.begin_op(0)
        metatheory.run_property("Progress", 1, metatheory.GenConfig(seed=1))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (reduction.subst, metatheory.run_property, metatheory.infer) == before
    stats = tracer.summary()
    assert stats["metatheory.run_property"]["calls"] == 1
    assert stats["bench.op"]["self_s"] >= 0


def test_host_scaling_follows_the_nearest_walks():
    nominal = hostspeed.NOMINAL_S
    phase = run.Phase()
    phase.latency = [0.010] * 12
    # the host halves its speed after the sixth op
    phase.refs = [(k, nominal if k <= 6 else 2 * nominal) for k in range(1, 13)]
    scaled = run.host_scaled(phase)
    assert scaled[0] == pytest.approx(0.010)
    assert scaled[11] == pytest.approx(0.005)
    assert hostspeed.reference_walk() > 0


def test_frontend_shapes_do_not_depend_on_the_seed(tmp_path):
    def shapes(seed):
        programs = workloads.frontend_cycle(seed, tmp_path / str(seed))
        return sorted(re.sub(r"\b[a-z]{3}(\d+)\b", r"d\1", p.source)
                      for p in programs if not p.deep)

    assert shapes(1) == shapes(2)
