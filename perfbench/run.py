#!/usr/bin/env python3
"""The lcatch benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload eval-prelude --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; lcatch is imported from `src/` there and
nowhere else.  With `--trace 0` the run reports the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it runs the same op sequence
once untraced (for the tracing overhead) and once with spans at every
layer boundary, and reports the per-layer metrics.  Either way it checks
every op against the reference answers in `oracle.py`, prints a
human-readable report, and prints one JSON result as its last line.
`--workload all` runs each workload in its own fresh process and prints
their reports in turn.

The end-to-end times are host-scaled: each is a wall time rescaled by a
reference walk timed next to it, so that a shared host's drifting speed
does not read as a change of lcatch (see `hostspeed.py`).  The report and
the run record give the plain wall-time figures beside them.

Outputs (the run record and, when tracing, the span table) go to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = ("eval-prelude", "meta-typed", "meta-confluence", "frontend")

SETUP_RUNS = 15
# The end-to-end times are host-scaled (see hostspeed.py): the closed loop
# times the reference walk whenever REF_EVERY seconds of ops have passed,
# and each op's wall time is scaled by the median of the REF_NEAR walks
# before it and the REF_NEAR after it.  The report and the run record
# also give every figure in plain wall time.
REF_EVERY = 0.02
REF_NEAR = 3
# Set-up samples are taken between blocks: one input cycle, or this many
# meta ops.
META_BLOCK = 1000
# Spans kept in memory before a traced phase stops early (~45 bytes each).
MAX_SPANS = 1_500_000
P99_MIN_OPS = 1000
# Interpreter-start work every lcatch invocation pays before its first op.
# The child also times REF_NEAR reference walks before and after it.
SETUP_SNIPPET = (
    "import time, sys\n"
    "sys.path.append(sys.argv[2])\n"
    "from hostspeed import reference_walk\n"
    f"walks = [reference_walk() for _ in range({REF_NEAR})]\n"
    "t0 = time.perf_counter()\n"
    "import lcatch\n"
    "from lcatch import prelude\n"
    "prelude.library()\n"
    "t1 = time.perf_counter()\n"
    f"walks += [reference_walk() for _ in range({REF_NEAR})]\n"
    "assert lcatch.__file__.startswith(sys.argv[1]), lcatch.__file__\n"
    "print(t1 - t0, *walks)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup_probe() -> tuple[float, float]:
    """Seconds for `import lcatch` plus `prelude.library()` in a fresh
    interpreter: wall time, and host-scaled by the reference walks that
    interpreter timed just before and after it."""
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    wall, *walks = map(float, done.stdout.split())
    return wall, wall * hostspeed.NOMINAL_S / statistics.median(walks)


class Phase:
    """The outcome of one closed-loop pass over a workload's op sequence."""

    def __init__(self):
        self.latency: list[float] = []
        self.refs: list[tuple[int, float]] = []   # (ops done before it, seconds)
        self.op_steps: list[int] = []     # exact steps of each correct eval op
        self.kinds: Counter = Counter()   # failure kind -> ops
        self.known: Counter = Counter()   # kind -> ops, explained by a known defect
        self.tracebacks: dict[str, str] = {}
        self.correct_ops = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())


def closed_loop(wl, seconds: float, tracer=None, max_ops=None, on_block=None) -> Phase:
    """Issue ops k = 0, 1, ... one at a time for `seconds` (or `max_ops` ops).

    A workload with a fixed cycle stops only at a cycle boundary, so every
    run measures the same mix of inputs.  Whenever REF_EVERY seconds have
    passed since the last reference walk, the next one is timed after the
    op, outside the measured time.  `on_block(progress)` runs after
    each block, outside the measured time.
    """
    phase = Phase()
    cycle = len(wl.cycle) if wl.cycle else None
    block = cycle or META_BLOCK
    perf = time.perf_counter
    t_start = t_ref = perf()
    paused = 0.0
    deadline = t_start + seconds
    k = 0
    while True:
        item = wl.item(k)
        if tracer is not None:
            tracer.begin_op(k)
        t0 = perf()
        try:
            kind = wl.run(item)
        except Exception as err:  # the op failed; record it and go on
            kind = type(err).__name__
            phase.tracebacks.setdefault(kind, traceback.format_exc(limit=-8))
        t1 = perf()
        if tracer is not None:
            tracer.end_op()
        phase.latency.append(t1 - t0)
        if t1 - t_ref >= REF_EVERY:
            r0 = perf()
            phase.refs.append((k + 1, hostspeed.reference_walk()))
            t_ref = perf()
            paused += t_ref - r0
            deadline += t_ref - r0
        phase.op_steps.append(getattr(item, "steps", 0) if kind is None else 0)
        if kind is None:
            phase.correct_ops += 1
        elif kind in item.known:
            phase.known[kind] += 1
        else:
            phase.kinds[kind] += 1
        k += 1
        if k % block == 0 and on_block is not None:
            t2 = perf()
            on_block((t2 - t_start - paused) / seconds)
            pause = perf() - t2
            paused += pause
            deadline += pause
        if k == max_ops or (tracer is not None and tracer.full):
            break
        if t1 >= deadline and (cycle is None or k % cycle == 0):
            break
    phase.wall = perf() - t_start - paused
    return phase


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def host_scaled(phase: Phase) -> list[float]:
    """Each op's wall time times NOMINAL_S over the median of the
    reference walks nearest it (REF_NEAR before it, REF_NEAR after)."""
    keys = [k for k, _ in phase.refs]
    walks = [t for _, t in phase.refs]
    scaled = []
    for i, wall in enumerate(phase.latency):
        j = bisect.bisect_right(keys, i)
        near = walks[max(0, j - REF_NEAR):j + REF_NEAR]
        scaled.append(wall * hostspeed.NOMINAL_S / statistics.median(near) if near else wall)
    return scaled


def end_to_end(workload: str, phase: Phase, latency: list[float],
               setup: list[float]) -> dict:
    """All eight end-to-end figures from the given op and set-up times;
    None where a figure does not apply."""
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": phase.correct_ops / sum(latency),
        "op_ms_p50": 1000 * quantile(latency, 0.5),
        "op_ms_p90": 1000 * quantile(latency, 0.9),
        "op_ms_p99": 1000 * quantile(latency, 0.99) if len(latency) >= P99_MIN_OPS else None,
        "steps_per_s": sum(phase.op_steps) / sum(latency) if workload == "eval-prelude" else None,
        "fail_ratio": (phase.failed + sum(phase.known.values())) / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def times_exponent(tracer, wl) -> float:
    """Slope of log(us/step) against log(steps) over the `times` rungs."""
    per_rung: dict[int, list[float]] = {}
    for op, dur, steps, _ in tracer.spans_named("reduction.evaluate"):
        case = wl.item(op)
        if case.program == "times" and steps:
            per_rung.setdefault(int(steps), []).append(1e6 * dur / steps)
    if len(per_rung) < 2:
        return 0.0
    xs = [math.log(s) for s in per_rung]
    ys = [math.log(statistics.median(v)) for v in per_rung.values()]
    return statistics.linear_regression(xs, ys).slope


def per_layer(workload: str, wl, tracer, stats: dict, traced: Phase,
              untraced: Phase, window: int) -> dict:
    def get(name, field):
        return stats[name][field] if name in stats else 0

    def layer_self(layer):
        return sum(s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))

    parse_s = get("surface.parse_term", "work_s") + get("surface.parse_program", "work_s")
    parse_nodes = get("surface.parse_term", "work") + get("surface.parse_program", "work")
    typing_calls = get("typecheck.infer", "calls") + get("typecheck.derivable", "calls")
    typing_rejects = get("typecheck.infer", "rejected") + get("typecheck.derivable", "rejected")
    gen_names = ("metatheory._gen_with_rng", "metatheory._gen_untyped")
    cases = get("metatheory.run_property", "calls")
    gen_infer = sum(1 for _, _, _, parent in tracer.spans_named("typecheck.infer")
                    if parent in gen_names)
    steps = sum(w for op, _, w, _ in tracer.spans_named("reduction.evaluate") if op < window)
    untraced_rate = untraced.attempted / untraced.wall
    traced_rate = traced.attempted / traced.wall
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "surface.parse_us_per_node": 1e6 * ratio(parse_s, parse_nodes),
        "surface.print_us_per_node": 1e6 * ratio(get("surface.print_term", "work_s"),
                                                 get("surface.print_term", "work")),
        "surface.expand_s": get("surface.expand_defs", "incl_s") + get("surface.expand_term", "incl_s"),
        "surface.self_s": layer_self("surface"),
        "syntax.subst_calls": get("syntax.subst", "calls"),
        "syntax.subst_s": get("syntax.subst", "incl_s"),
        "syntax.replace_at_s": get("syntax.replace_at", "incl_s"),
        "syntax.canonical_calls": get("syntax.canonical", "calls"),
        "syntax.canonical_s": get("syntax.canonical", "incl_s"),
        "syntax.alpha_eq_s": get("syntax.alpha_eq", "incl_s"),
        "syntax.self_s": layer_self("syntax"),
        "typecheck.infer_calls": get("typecheck.infer", "calls"),
        "typecheck.infer_us_per_node": 1e6 * ratio(get("typecheck.infer", "work_s"),
                                                   get("typecheck.infer", "work")),
        "typecheck.derivable_calls": get("typecheck.derivable", "calls"),
        "typecheck.derivable_us_per_node": 1e6 * ratio(get("typecheck.derivable", "work_s"),
                                                       get("typecheck.derivable", "work")),
        "typecheck.reject_ratio": ratio(typing_rejects, typing_calls),
        "typecheck.self_s": layer_self("typecheck"),
        "reduction.steps": steps,
        "reduction.evaluate_s": get("reduction.evaluate", "incl_s"),
        "reduction.us_per_step": 1e6 * ratio(get("reduction.evaluate", "work_s"),
                                             get("reduction.evaluate", "work")),
        "reduction.us_per_step_exponent":
            times_exponent(tracer, wl) if workload == "eval-prelude" else 0.0,
        "reduction.enumerate_calls": get("reduction.enumerate_redexes", "calls"),
        "reduction.redexes_enumerated": get("reduction.enumerate_redexes", "work"),
        "reduction.enumerate_us_per_redex": 1e6 * ratio(get("reduction.enumerate_redexes", "work_s"),
                                                        get("reduction.enumerate_redexes", "work")),
        "reduction.self_s": layer_self("reduction"),
        "confluence.parallel_reducts_calls": get("confluence.parallel_reducts", "calls"),
        "confluence.reducts_per_call": ratio(get("confluence.parallel_reducts", "work"),
                                             get("confluence.parallel_reducts", "calls")),
        "confluence.parallel_reducts_s": get("confluence.parallel_reducts", "incl_s"),
        "confluence.develop_calls": get("confluence.complete_development", "calls"),
        "confluence.develop_s": get("confluence.complete_development", "incl_s"),
        "confluence.reachable_calls": get("confluence.reachable_by_reduction", "calls"),
        "confluence.reachable_s": get("confluence.reachable_by_reduction", "incl_s"),
        "confluence.reachable_hit_ratio": ratio(get("confluence.reachable_by_reduction", "work"),
                                                get("confluence.reachable_by_reduction", "calls")),
        "confluence.self_s": layer_self("confluence"),
        "prelude.library_s": sum(dur for _, dur, _, _ in tracer.spans_named("prelude.library")),
        "metatheory.gen_s": sum(get(name, "incl_s") for name in gen_names),
        "metatheory.gen_nodes_per_case": ratio(sum(get(name, "work") for name in gen_names), cases),
        "metatheory.gen_infer_calls_per_case": ratio(gen_infer, cases),
        "metatheory.graph_status_calls": get("metatheory.reduction_graph_status", "calls"),
        "metatheory.graph_status_s": get("metatheory.reduction_graph_status", "incl_s"),
        "metatheory.inconclusive": getattr(wl, "inconclusive", 0),
        "metatheory.minimize_calls": get("metatheory.minimize", "calls"),
        "metatheory.self_s": layer_self("metatheory"),
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate),
        "trace.spans": len(tracer.start),
    }


def bypass_violations(workload: str, stats: dict) -> list[str]:
    """Calls a workload must not make, per the benchmark's predictions:
    confluence only in meta-confluence; no typing and no CBV machine there."""
    forbidden = (("typecheck.", "reduction.evaluate", "reduction.step_cbv")
                 if workload == "meta-confluence" else ("confluence.",))
    return [f"{name} called {s['calls']} times" for name, s in sorted(stats.items())
            if name.startswith(forbidden) and s["calls"]]


def describe(phase: Phase) -> str:
    parts = [f"{kind} x{n}" for kind, n in sorted(phase.kinds.items())]
    parts += [f"{kind} x{n} (known defect)" for kind, n in sorted(phase.known.items())]
    return ", ".join(parts) or "none"


def unit_of(name: str) -> str:
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    return {"op_ms_p99": "ms", "steps_per_s": "1/s", "fail_ratio": "ratio"}[name]


def run_one(args) -> int:
    if not (SRC / "lcatch" / "__init__.py").is_file():
        print(f"error: no lcatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcatch
    if not Path(lcatch.__file__).resolve().is_relative_to(SRC):
        print(f"error: lcatch imported from {lcatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT / f"inputs-{args.workload}")
    warm = closed_loop(wl, 0.0, max_ops=wl.warmup)
    # reduction.steps counts this first stretch of the op sequence, which
    # every run with the seed issues, traced or not
    window = len(wl.cycle) if wl.cycle else META_BLOCK

    setup: list[tuple[float, float]] = []   # (wall, host-scaled) seconds
    wall_figures: dict = {}
    if not args.trace:
        setup_probe()   # untimed: compiles the bytecode once

        def sample_setup(progress: float) -> None:
            # spread the set-up samples evenly over the run, so one slow
            # stretch of a shared host does not decide their median
            while len(setup) < SETUP_RUNS * min(progress, 1.0):
                setup.append(setup_probe())

        phase = closed_loop(wl, args.seconds, on_block=sample_setup)
        sample_setup(1.0)
        figures = end_to_end(args.workload, phase, host_scaled(phase),
                             [scaled for _, scaled in setup])
        wall_figures = end_to_end(args.workload, phase, phase.latency,
                                  [wall for wall, _ in setup])
        reported = {m["name"]: figures[m["name"]] for m in SPEC["end_to_end"]}
        problems = []
    else:
        half = args.seconds / 2
        untraced = closed_loop(wl, half)
        from lcatch import prelude
        for cached in (prelude.library, prelude.prelude_defs, prelude.prelude_program):
            cached.cache_clear()   # so the traced library() call does all its work
        tracer = tracing.Tracer(MAX_SPANS)
        tracer.install()
        try:
            prelude.library()
            if hasattr(wl, "inconclusive"):
                wl.inconclusive = 0
            phase = closed_loop(wl, half, tracer)
        finally:
            tracer.uninstall()
        stats = tracer.summary()
        figures = per_layer(args.workload, wl, tracer, stats, phase, untraced, window)
        reported = {m["name"]: figures[m["name"]] for m in SPEC["per_layer"]}
        problems = bypass_violations(args.workload, stats)
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")

    correct = phase.failed == 0 and warm.failed == 0 and not problems
    lines = report_lines(args, wl, phase, figures, wall_figures, problems, setup)
    print("\n".join(lines))
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": phase.attempted,
        "failures": dict(phase.kinds),
        "known_defects": dict(phase.known),
        "tracebacks": phase.tracebacks,
        "bypass_violations": problems,
        "metrics": {name: {"value": v, "unit": unit_of(name)}
                    for name, v in figures.items() if v is not None},
        "wall_metrics": {name: {"value": v, "unit": unit_of(name)}
                         for name, v in wall_figures.items() if v is not None},
        "reference_walks": len(phase.refs),
        "reference_walk_ms_median":
            1000 * statistics.median(t for _, t in phase.refs) if phase.refs else None,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


def report_lines(args, wl, phase: Phase, figures: dict, wall_figures: dict,
                 problems: list[str], setup: list) -> list[str]:
    mode = "traced" if args.trace else "untraced"
    cycle = f"cycle of {len(wl.cycle)} inputs" if wl.cycle else "fresh case per op"
    lines = [
        f"lcatch benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, {mode}",
        f"  closed loop, 1 client, 1 thread; {wl.warmup} warm-up ops; {cycle}; "
        f"{phase.attempted} ops in {phase.wall:.2f} s",
        f"  failures: {describe(phase)}",
    ]
    if setup:
        lines.append(f"  setup: median of {len(setup)} fresh interpreters, "
                     "sampled across the run")
    if phase.refs:
        walk_ms = 1000 * statistics.median(t for _, t in phase.refs)
        lines.append(f"  reference walk: {len(phase.refs)} timed, median {walk_ms:.4g} ms, "
                     f"nominal {1000 * hostspeed.NOMINAL_S:g} ms")
    if args.workload == "eval-prelude":
        first_cycle = sum(phase.op_steps[:len(wl.cycle)])
        lines.append(f"  exact steps in the first cycle: {first_cycle}")
    if wall_figures:
        lines.append(f"  {'':36s} {'host-scaled':>22s} {'wall':>12s}")
    for name, value in figures.items():
        if value is None:
            why = (f"needs {P99_MIN_OPS} ops" if name == "op_ms_p99"
                   else "eval-prelude only")
            lines.append(f"  {name:36s} n/a ({why})")
        else:
            wall = wall_figures.get(name)
            shown = f"{value:.6g} {unit_of(name)}"
            note = f" {wall:12.6g}" if wall is not None else ""
            if name.startswith("op_ms_"):
                note += f"  (n={phase.attempted})"
            lines.append(f"  {name:36s} {shown:>22s}{note}")
    lines += [f"  BYPASS PREDICTION VIOLATED: {p}" for p in problems]
    for kind, text in phase.tracebacks.items():
        if kind in phase.kinds:
            lines.append(f"  first {kind}:\n" + text)
    return lines


def run_all(args) -> int:
    """Each workload in its own fresh process, reports printed in turn."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        out = done.stdout.splitlines()
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
