"""Reference answers for the benchmark, computed with host arithmetic.

Nothing here imports lcatch: values and exact step counts come from
closed forms over Python integers, and types from the generator's own
bookkeeping, so a wrong build cannot vouch for itself.

Closed forms for the bundled prelude under the CBV machine (one count per
applied rule):

    plus  #n #m                 4n + 5
    times #n #m                 4nm + 9n + 5
    pred  #n                    9 for n >= 1, 5 for n = 0
    prodz xs, first 0 at z      11 + sum(4x + 8 for x in xs[:z])
    prodz xs, no 0              3 + sum(13x + 13 + 4x * prod(xs[i+1:]))

The prodz forms make the paper's short-circuit claim checkable: nothing
after the first 0 enters the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

# Failure kinds, as recorded per op.
WRONG_EXIT = "wrong-exit-code"
WRONG_VALUE = "wrong-value"
WRONG_STEPS = "wrong-steps"
WRONG_OUTPUT = "wrong-output"
PROPERTY_FAILURE = "property-failure"

# Failure kinds that a defect of lcatch, known when the benchmark was
# written, explains for some inputs.  An input lists the kinds it may end
# in; such an op counts in fail_ratio and in the report, by kind, but not
# as `failed`, and a fix turns it into a checked success.
#
# Deep inputs overflow the host stack (RecursionError); a fix may instead
# refuse them with an exit code beyond the documented 0-5.
RESOURCE_EXIT = "resource-exit"
DEEP_INPUT = ("RecursionError", RESOURCE_EXIT)
# The typed generator's fallback term can have an ambiguous type (`[]` at
# a list type), which SubjectReduction and ValueShapes then fail to infer.
AMBIGUOUS_CASE = "ambiguous-generated-term"


def plus_steps(n: int, m: int) -> int:
    return 4 * n + 5


def times_steps(n: int, m: int) -> int:
    return 4 * n * m + 9 * n + 5


def pred_steps(n: int) -> int:
    return 9 if n >= 1 else 5


def prodz_steps(xs: tuple[int, ...]) -> int:
    if 0 in xs:
        return 11 + sum(4 * x + 8 for x in xs[:xs.index(0)])
    total, tail_product = 3, 1
    for x in reversed(xs):
        total += 13 * x + 13 + 4 * x * tail_product
        tail_product *= x
    return total


@dataclass(frozen=True)
class EvalCase:
    """One `lcatch eval` input with its reference value and step count."""

    program: str          # plus | times | pred | prodz
    args: tuple           # ints, or one tuple of ints for prodz
    deep: bool = False    # part of the known-crash slice

    @property
    def known(self) -> tuple[str, ...]:
        return DEEP_INPUT if self.deep else ()

    @property
    def source(self) -> str:
        if self.program == "prodz":
            return "prodz [" + ", ".join(f"#{x}" for x in self.args[0]) + "]"
        return " ".join([self.program] + [f"#{a}" for a in self.args])

    @property
    def value(self) -> int:
        if self.program == "plus":
            return self.args[0] + self.args[1]
        if self.program == "times":
            return self.args[0] * self.args[1]
        if self.program == "pred":
            return max(self.args[0] - 1, 0)
        return math.prod(self.args[0])

    @property
    def steps(self) -> int:
        if self.program == "plus":
            return plus_steps(*self.args)
        if self.program == "times":
            return times_steps(*self.args)
        if self.program == "pred":
            return pred_steps(*self.args)
        return prodz_steps(self.args[0])


def check_eval(case: EvalCase, code: int, stdout: str) -> Optional[str]:
    """Failure kind of one `eval -e <src> --count` run, or None if correct."""
    if code != 0:
        return WRONG_EXIT
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("#") \
            or not lines[1].startswith("steps: "):
        return WRONG_OUTPUT
    try:
        value, steps = int(lines[0][1:]), int(lines[1][len("steps: "):])
    except ValueError:
        return WRONG_OUTPUT
    if value != case.value:
        return WRONG_VALUE
    if steps != case.steps:
        return WRONG_STEPS
    return None


# Types of generated programs: "1", ("list", T) or ("arrow", A, B).
Ty = Union[str, tuple]
UNIT = "1"
NAT = ("list", UNIT)


def arrow(*tys: Ty) -> Ty:
    """Right-nested arrow type: arrow(a, b, c) is a -> (b -> c)."""
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = ("arrow", ty, out)
    return out


def _is_arrow(ty: Ty) -> bool:
    return isinstance(ty, tuple) and ty[0] == "arrow"


def type_text(ty: Ty) -> str:
    """The `lcatch check` rendering of a type, arrows right-associative.

    Walks the codomain spine in a loop, so a type with thousands of
    arrows prints without deep recursion.
    """
    parts = []
    while _is_arrow(ty):
        dom = type_text(ty[1])
        parts.append(f"({dom})" if _is_arrow(ty[1]) else dom)
        ty = ty[2]
    parts.append(f"[{type_text(ty[1])}]" if isinstance(ty, tuple) else "1")
    return " -> ".join(parts)


def check_lines(code: int, stdout: str, expected: tuple[str, ...]) -> Optional[str]:
    """Failure kind of one `check FILE` run, compared line by line."""
    if code != 0:
        return WRONG_EXIT
    return None if tuple(stdout.splitlines()) == expected else WRONG_OUTPUT
