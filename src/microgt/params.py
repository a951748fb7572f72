"""Declared scenario parameters, the one bracketed scalar root finder and
the one solver failure.

A dataclass field made with param() carries its config key, its default and
its allowed values.  A dataclass that derives from Record checks each such
field against its bound when it is built, and the config module derives its
schema and default text from the same declarations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields


# bracketed_root stops when the bracket is narrower than ROOT_RTOL times the
# root: above the rounding noise of an enthalpy residual, far below the nine
# significant digits the CSV outputs carry.
ROOT_RTOL = 1e-13
ROOT_MAX_STEPS = 100


class SolverError(RuntimeError):
    """An iterative solve failed; carries its residual history, if any."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = residual_history


def _endpoint(text: str) -> float:
    num, _, den = text.strip().partition("/")
    return float(num) / float(den) if den else float(num)


@dataclass(frozen=True)
class Param:
    """One scenario input.

    bound is an interval such as "(0, 1]" or "[2, inf)", a choice list such
    as "polynomial | constant_cp", or "" for any finite number.  auto, when
    set, is the meaning of the extra value 'auto'.  key is None for a checked
    dataclass field that no config key sets.
    """

    key: str | None
    default: object
    bound: str = ""
    auto: str = ""

    @functools.cached_property
    def choices(self) -> tuple:
        return tuple(c.strip() for c in self.bound.split("|")) if "|" in self.bound else ()

    @functools.cached_property
    def interval(self):
        if not self.bound:
            return -math.inf, math.inf, False, False
        lo, hi = self.bound[1:-1].split(",")
        return _endpoint(lo), _endpoint(hi), self.bound[0] == "[", self.bound[-1] == "]"

    @property
    def kind(self) -> str:
        if self.choices:
            return "choice"
        return "int" if isinstance(self.default, int) else "float"

    @property
    def comment(self) -> str:
        if self.choices:
            return self.bound
        return f"auto = {self.auto}" if self.auto else ""

    def problem(self, value):
        """Why value is not allowed, or None."""
        if self.choices:
            return None if value in self.choices else f"must be one of {self.bound}"
        if self.auto and value == "auto":
            return None
        if not math.isfinite(value):
            return "must be finite"
        lo, hi, lo_closed, hi_closed = self.interval
        if ((value >= lo if lo_closed else value > lo)
                and (value <= hi if hi_closed else value < hi)):
            return None
        return f"must lie in {self.bound}"

    def parse(self, text: str):
        """The allowed value that text spells; ValueError says why not."""
        if self.choices or (self.auto and text == "auto"):
            value = text
        else:
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"not a valid {self.kind}") from None
            if self.kind == "int" and math.isfinite(value):
                if value != int(value):
                    raise ValueError("must be an integer")
                value = int(value)
        problem = self.problem(value)
        if problem:
            raise ValueError(problem)
        return value


def param(key, default=MISSING, bound=""):
    """A dataclass field declared as the scenario input `key`."""
    return field(default=default, metadata={"param": Param(key, default, bound)})


@functools.cache
def declared(cls):
    """(field name, Param) for each param() field of a dataclass, in order."""
    return tuple((f.name, f.metadata["param"]) for f in fields(cls)
                 if "param" in f.metadata)


class Record:
    """Base of the dataclasses with param() fields: building one raises
    ValueError if any such field is outside its bound.  A record with a rule
    of its own extends __post_init__ and calls this one first."""

    def __post_init__(self):
        for name, p in declared(type(self)):
            value = getattr(self, name)
            problem = p.problem(value)
            if problem:
                raise ValueError(f"{type(self).__name__}.{name} = {value!r}: {problem}")


def bracketed_root(f, lo, hi, what):
    """Root of f on [lo, hi] by the Illinois modified regula falsi.

    f(lo) and f(hi) must be finite and of opposite sign (or zero), else
    SolverError names `what`.  Superlinear like Brent's method
    (Dowell & Jarratt, BIT 11, 1971).
    """
    f_lo, f_hi = f(lo), f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise SolverError(
            f"{what}: residual not finite at the bracket [{lo:g}, {hi:g}] "
            f"({f_lo:.3e}, {f_hi:.3e})")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise SolverError(
            f"{what}: no root in [{lo:g}, {hi:g}] (residuals {f_lo:.3e}, {f_hi:.3e})")
    side = 0
    for _ in range(ROOT_MAX_STEPS):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_hi > 0.0):
            hi, f_hi = x, f_x
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
        if hi - lo <= ROOT_RTOL * abs(x):
            return x
    raise SolverError(f"{what}: no convergence in {ROOT_MAX_STEPS} steps "
                      f"(bracket [{lo!r}, {hi!r}])")
