"""Spans around the calls into each lcatch layer, installed from outside.

`Tracer.install` rebinds, in every lcatch module, the names under which
a layer's public functions are reached (`from .syntax import subst` in
`reduction`, `metatheory.run_property` looked up by `cli`, ...) to a
wrapper that records one span per call: name, start, end, parent span
and op id, kept in flat arrays and written out at the end.  Nothing under
`src/lcatch` changes; `uninstall` restores every binding.

A function that calls itself through its module global keeps its home
binding, so only calls that cross a layer boundary are spanned and the
recursion depth of the traced program is unchanged.  Helpers that are
not listed (`is_value`, `free_vars`, `size`, ...) count as self time of
their caller.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "surface", "syntax", "typecheck", "reduction", "confluence",
          "prelude", "metatheory")


def _nodes(term) -> int:
    """Node count of a term, iteratively, so deep terms cannot overflow."""
    from lcatch.syntax import children
    count, stack = 0, [term]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    return count


def _program_nodes(prog) -> int:
    terms = [t for _, t in prog.defs] + ([prog.main] if prog.main is not None else [])
    return sum(_nodes(t) for t in terms)


def _term_arg(index: int) -> Callable:
    return lambda args, result: _nodes(args[index])


def _returned_nodes(args, result) -> int:
    return _nodes(result)


def _returned_len(args, result) -> int:
    return len(result)


# Traced functions per layer, each with the work one call does (nodes,
# steps, redexes, ...), measured after the span closes.  `_gen_untyped`
# recurses through its global and is still wrapped at home, because
# run_property reaches it only there; its depth is bounded by the budget.
TRACED: dict[str, dict[str, Optional[Callable]]] = {
    "cli": {"main": None},
    "surface": {
        "parse_term": _returned_nodes,
        "parse_program": lambda args, result: _program_nodes(result),
        "print_term": _term_arg(0),
        "expand_defs": None,
        "expand_term": None,
    },
    "syntax": {"subst": None, "replace_at": None, "canonical": None, "alpha_eq": None},
    "typecheck": {"infer": _term_arg(1), "derivable": _term_arg(1)},
    "reduction": {
        "evaluate": lambda args, result: result.steps,
        "step_cbv": None,
        "enumerate_redexes": _returned_len,
    },
    "confluence": {
        "parallel_reducts": _returned_len,
        "complete_development": None,
        "reachable_by_reduction": lambda args, result: int(result),
    },
    "prelude": {"library": None, "prelude_defs": None},
    "metatheory": {
        "run_property": None,
        "_gen_with_rng": _returned_nodes,
        "_gen_untyped": _returned_nodes,
        "reduction_graph_status": None,
        "minimize": None,
    },
}
HOME_RECURSION_OK = {"metatheory._gen_untyped"}
# Calls that answer "no": a TypingError out of infer, False out of derivable.
REJECTED = {"typecheck.derivable": False}

OP_SPAN = "bench.op"
OK, RAISED, REJECTED_STATUS = 0, 1, 2


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = [OP_SPAN]
        self.name_ids = {OP_SPAN: 0}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.status = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.adj = array("d")     # bookkeeping of child wrappers, not self time
        self.stack = [-1]
        self.current_op = -1
        self._op_base = 1
        self._patched: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.status.append(OK)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.work.append(0.0)
        self.adj.append(0.0)
        self.stack.append(i)
        return i

    def _wrap(self, fn, qualname: str, work: Optional[Callable]):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        reject_value = REJECTED.get(qualname, object())
        names, stack, end, status, works, adj = (
            self.name, self.stack, self.end, self.status, self.work, self.adj)
        perf = time.perf_counter
        open_span = self._open

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == name_id:
                return fn(*args, **kwargs)
            i = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf()
                status[i] = RAISED
                stack.pop()
                raise
            t1 = perf()
            end[i] = t1
            stack.pop()
            if result is reject_value:
                status[i] = REJECTED_STATUS
            if work is not None:
                works[i] = work(args, result)
                if top >= 0:
                    adj[top] += perf() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"lcatch.{layer}") for layer in LAYERS]
        for home, layer in zip(modules, LAYERS):
            for fname, work in TRACED[layer].items():
                fn = getattr(home, fname)
                qualname = f"{layer}.{fname}"
                code = getattr(fn, "__wrapped__", fn).__code__
                keep_home = fname in code.co_names and qualname not in HOME_RECURSION_OK
                wrapper = self._wrap(fn, qualname, work)
                for mod in modules:
                    if mod.__dict__.get(fname) is fn and not (mod is home and keep_home):
                        self._patched.append((mod, fname, fn))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._patched):
            setattr(mod, fname, fn)
        self._patched.clear()

    def begin_op(self, k: int) -> None:
        self.current_op = k
        self._op_base = len(self.stack)
        self._open(0)

    def end_op(self) -> None:
        """Close the op span and any span an exception left open in it."""
        t = time.perf_counter()
        for i in self.stack[self._op_base:]:
            self.end[i] = t
        del self.stack[self._op_base:]
        self.current_op = -1

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name, over spans inside ops: calls, inclusive s, self s,
        work, s of the calls that returned (so have a work figure), and
        calls that raised or answered no.

        Self time is a span's duration minus the time its child spans
        cover (children of one span never overlap in this single-threaded
        loop) minus the children's bookkeeping.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {
            "calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0, "work_s": 0.0,
            "rejected": 0})
        for i in range(n):
            if self.op[i] < 0:
                continue
            s = stats[self.names[self.name[i]]]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["incl_s"] += dur
            s["self_s"] += dur - child[i] - self.adj[i]
            s["work"] += self.work[i]
            if self.status[i] != RAISED:
                s["work_s"] += dur
            if self.status[i] != OK:
                s["rejected"] += 1
        return stats

    def spans_named(self, qualname: str):
        """(op id, duration, work, parent name) of every span named `qualname`."""
        name_id = self.name_ids.get(qualname)
        for i in range(len(self.start)):
            if self.name[i] == name_id:
                p = self.parent[i]
                yield (self.op[i], self.end[i] - self.start[i], self.work[i],
                       self.names[self.name[p]] if p >= 0 else None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\twork\tstatus\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                          f"{self.work[i]:g}\t{self.status[i]}\n")
