"""How the benchmark judges one operation.

An operation ends in one of three states:

- ok: the result agrees with its reference within the stated tolerance;
- failed: the program signalled that it has no valid answer: a nonzero
  exit code, a raised exception, or a NaN or inf where a number is due;
- wrong: the program returned a finite answer, or a well-formed exit, that
  disagrees with its reference.

Both failed and wrong count against `failed`; only wrong clears `correct`.
A comparison never passes on NaN: non-finite values are tested first.
"""

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"
_RANK = {OK: 0, FAILED: 1, WRONG: 2}


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""


@dataclass(frozen=True)
class Op:
    """One call into the program and the check of its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def worst(outcomes):
    """The most severe outcome, with the details of the first three problems."""
    bad = [o for o in outcomes if o.status != OK]
    if not bad:
        return Outcome(OK)
    status = max((o.status for o in bad), key=_RANK.__getitem__)
    return Outcome(status, "; ".join(o.detail for o in bad[:3])[:300])


def is_finite(x):
    return cmath.isfinite(x)


def judge(what, value, ref, rtol, atol):
    """Compare a number with its reference; ref None means NaN is due."""
    if ref is None:
        if isinstance(value, float) and math.isnan(value):
            return Outcome(OK)
        return Outcome(WRONG, f"{what}: {value!r} where nan is due")
    if not is_finite(value):
        return Outcome(FAILED, f"{what}: {value!r}, expected {float(ref):.6g}")
    ref = complex(ref) if isinstance(value, complex) else float(ref)
    if abs(value - ref) <= atol + rtol * abs(ref):
        return Outcome(OK)
    return Outcome(WRONG, f"{what}: {value!r}, expected {ref!r}")


def run_op(op):
    """(seconds, raw result or None, exception or None) of one timed call."""
    t0 = time.perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # a raised exception is a failed operation
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, raw, None


def outcome_of(op, raw, exc):
    if exc is not None:
        return Outcome(FAILED, f"{op.name}: raised {type(exc).__name__}: {exc}")
    try:
        out = op.check(raw)
    except (ValueError, IndexError) as exc:  # output that does not parse
        out = Outcome(WRONG, f"unreadable output: {exc}")
    if out.status != OK:
        return Outcome(out.status, f"{op.name}: {out.detail}")
    return out


class Tally:
    """Attempted, failed and wrong operations of a run, with the first details."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.details = []

    def add(self, out):
        self.attempted += 1
        if out.status == OK:
            return
        self.failed += 1
        self.wrong += out.status == WRONG
        if out.detail not in self.details and len(self.details) < 20:
            self.details.append(out.detail)
