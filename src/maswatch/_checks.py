"""The number and shape rule of the config types and Scenario, in the standard
library alone. A bool is neither a real nor an integer; a refusal is a ValueError
naming the field and the value, which the loader reports at the field's object."""

import math
import numbers
import sys


def _shown(v) -> str:
    """repr(v), but an integer beyond the float range, also inside a list
    or tuple, by its digit count: Python refuses to print one of more than
    4300 digits."""
    if isinstance(v, (list, tuple)):
        inner = ", ".join(map(_shown, v))
        return f"[{inner}]" if isinstance(v, list) else f"({inner}{',' * (len(v) == 1)})"
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and not abs(v) <= sys.float_info.max:
        n = abs(int(v))
        d = int(math.log10(n)) + 1  # the digit count, or one off it
        return f"an integer of {d - (10 ** (d - 1) > n) + (10**d <= n)} digits"
    return repr(v)


def real(v, name: str, low: float = -math.inf, high: float = math.inf, closed: bool = False) -> float:
    """v as a float: a real in (low, high), or [low, high) when closed, within
    the float range compared exactly, so an int too large for a float fails."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite real number, got {_shown(v)}")
    if not (low <= v if closed else low < v) or not v < high:
        raise ValueError(f"{name} must lie in {'[' if closed else '('}{low}, {high}), got {_shown(v)}")
    return float(v)


def integer(v, name: str, least: int) -> int:
    """v as an int: an integer of at least least."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {_shown(v)}")
    return int(v)


def sequence(v, name: str, sizes=None) -> tuple:
    """v as a tuple: a list or tuple of one of sizes entries, or of any
    number when sizes is None."""
    if not isinstance(v, (list, tuple)) or not (sizes is None or len(v) in sizes):
        what = "" if sizes is None else f" of {' or '.join(map(str, sizes))} entries"
        raise ValueError(f"{name} must be a list or tuple{what}, got {_shown(v)}")
    return tuple(v)


def vector(values, name: str, *bounds) -> list:
    """values, a list, tuple or 1-D array, as a list of floats; each entry
    is read by real at name[i] within bounds, so a scalar is refused."""
    values = values.tolist() if hasattr(values, "tolist") else values
    return [real(v, f"{name}[{i}]", *bounds) for i, v in enumerate(sequence(values, name))]


def reals(values, name: str):
    """values, nested lists or tuples or an array of reals, as the same
    nesting of lists of floats; each entry is read by real at name[i]."""
    values = values.tolist() if hasattr(values, "tolist") else values
    if not isinstance(values, (list, tuple)):
        return real(values, name)
    return [reals(v, f"{name}[{i}]") for i, v in enumerate(values)]
