"""The number rule of the config types, Scenario and the loader, in the
standard library alone. A bool is neither a real nor an integer, and a
refusal is a ValueError that names the field and the value."""

import math
import numbers
import sys


def real(v, name: str, low: float = -math.inf, high: float = math.inf, closed: bool = False) -> float:
    """v as a float: a real in (low, high), or [low, high) when closed, within
    the float range compared exactly, so an int too large for a float fails."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite real number, got {v!r}")
    if not (low <= v if closed else low < v) or not v < high:
        raise ValueError(f"{name} must lie in {'[' if closed else '('}{low}, {high}), got {v!r}")
    return float(v)


def integer(v, name: str, least: int) -> int:
    """v as an int: an integer of at least least."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {v!r}")
    return int(v)


def reals(values, name: str):
    """values, nested lists or tuples or an array of reals, as the same
    nesting of lists of floats; each entry is read by real at name[i]."""
    values = values.tolist() if hasattr(values, "tolist") else values
    if not isinstance(values, (list, tuple)):
        return real(values, name)
    return [reals(v, f"{name}[{i}]") for i, v in enumerate(values)]
