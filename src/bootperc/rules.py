"""The input rules that every module calls, and the error they raise.

``check_number`` is the rule for numbers (a bool, NaN or string is
refused), the only cast of an integer input (a float is refused too) and
the range rule (a closed [lo, hi], each bound optional);
``check_probability`` is the rule for a probability (a number in [0, 1]),
``check_flag`` for a flag and ``check_object`` for a JSON object, its
required fields and the keys it may hold (the only reader of them: a
structure, an event, a sweep config and its grid entries, and a grid
file); ``shown`` quotes a refused number in a message.  The rules of the
lattice (grid shapes, coordinates, cell lists, rectangles) are in
``structures``.

This module imports no numpy, so that ``import bootperc`` and the scalar
commands load none.  A numpy scalar is still read as numpy reads it: an
integer as an int, a float as a float, a bool as a flag.  Its types are
looked up in ``sys.modules`` by ``_numpy_scalar``, since no value can be a
numpy scalar before numpy is loaded.
"""

from __future__ import annotations

import numbers
import operator
import sys


class DomainError(ValueError):
    """Invalid argument: out-of-bounds coordinate, bad parameter, etc."""


def _numpy_scalar(value, kind: str) -> bool:
    """Whether ``value`` is an instance of numpy's abstract scalar type
    ``kind`` ("integer", "floating" or "bool_"); False while numpy is not
    loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, getattr(np, kind))


def check_number(value, name: str, kind=numbers.Real, lo=None, hi=None):
    """The number rule: a ``kind`` that is not a bool or NaN, so JSON's true,
    "1" and a NaN are refused, in the closed range [lo, hi], each bound
    checked only when given.  Returns the value, an integer as a Python int
    and a numpy float as a Python float.  A strict bound (alpha in (0, 1),
    z > 0) is no closed range, and ``check_coord`` and ``check_sides`` refuse
    a coordinate or shape whole, so those stay with their callers.  The
    bounds default to None, not infinities, since an int compares with a
    float several times slower.  An int, and a float where any number is
    read, skip the abstract type tests, which cost several times the rest."""
    if type(value) is not int:
        fast = type(value) is float and kind is numbers.Real
        if not fast and (isinstance(value, bool) or not isinstance(value, kind)) or value != value:
            noun = "an integer" if kind is numbers.Integral else "a number"
            raise DomainError(f"{name} must be {noun}, not {value!r}")
        if not fast:
            if kind is numbers.Integral or _numpy_scalar(value, "integer"):
                value = operator.index(value)
            elif _numpy_scalar(value, "floating"):
                value = float(value)  # a float32 would cast a float64 bound and overflow
    if lo is not None and value < lo or hi is not None and value > hi:
        low = "(-inf" if lo is None else f"[{shown(lo)}"
        high = "inf)" if hi is None else f"{shown(hi)}]"
        raise DomainError(f"{name} = {shown(value)} outside {low}, {high}")
    return value


def check_probability(value, name: str) -> float:
    """The probability rule: a number (``check_number``) in [0, 1].  Returns it as a float."""
    return float(check_number(value, name, lo=0, hi=1))


def check_flag(value, name: str) -> bool:
    """The flag rule: a bool, so 0, None and "no" are refused.  Returns it as a bool."""
    if not (isinstance(value, bool) or _numpy_scalar(value, "bool_")):
        raise DomainError(f"{name} must be true or false, not {value!r}")
    return bool(value)


def shown(value) -> str:
    """``value`` as an error message quotes it.  An integer past Python's
    limit on ``str(int)`` (4300 digits), alone or in a tuple or list, is
    quoted by its bit length instead.  Call it only on the error path."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, (tuple, list)):
            inner = ", ".join(map(shown, value))
            return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
        return f"{'-' if value < 0 else ''}<integer of {abs(value).bit_length()} bits>"


def check_object(obj, what: str, *names: str, optional: tuple[str, ...] = ()) -> list:
    """The JSON-object rule: ``obj`` is a dict that holds each of ``names``
    and no key but those and ``optional``.  ``what`` names the reader in
    the message.  Returns the values of ``names`` in order."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in obj:
        if key not in names and key not in optional:
            raise DomainError(f"{what} has an unknown key {key!r}")
    for name in names:
        if name not in obj:
            raise DomainError(f"{what} has no {name!r}")
    return [obj[name] for name in names]
