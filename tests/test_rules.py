"""The input rules of ``bootperc.rules`` read a Python float on a fast path
and any other number by its abstract type; both give one answer."""

import math
import numbers

import numpy as np
import pytest

from bootperc.rules import DomainError, check_flag, check_number, check_probability


class _Float(float):
    """A float that is not exactly a ``float``, so the rules read it by its
    abstract type, not on the fast path."""


def outcome(rule, value, **bounds):
    """What ``rule`` makes of ``value``: the number it returns, with its
    type, or the message it refuses it with."""
    try:
        out = rule(value, "x", **bounds)
    except DomainError as exc:
        return "refused", str(exc)
    return type(out), out


@pytest.mark.parametrize("value,bounds", [
    (0.5, {}),
    (0.5, {"lo": 0, "hi": 1}),
    (-0.5, {"lo": 0}),
    (math.nan, {}),
    (math.inf, {}),
    (math.inf, {"hi": 1}),
    (-math.inf, {"lo": 0}),
], ids=["half", "half-in-range", "below-lo", "nan", "inf", "inf-over-hi", "minus-inf-under-lo"])
def test_float_fast_path_agrees_with_the_abstract_path(value, bounds):
    fast = outcome(check_number, value, **bounds)
    slow = outcome(check_number, _Float(value), **bounds)
    # A float subclass is returned as given, so compare its value as a float.
    assert fast == (slow if slow[0] == "refused" else (float, float(slow[1])))


@pytest.mark.parametrize("value", [
    np.float64(0.5), np.float32(0.5), np.float64(math.nan), np.float32(math.nan),
    np.float64(math.inf), np.float32(math.inf),
], ids=["float64", "float32", "float64-nan", "float32-nan", "float64-inf", "float32-inf"])
def test_numpy_floats_read_as_python_floats(value):
    as_float = float(value)
    for rule, bounds in ((check_number, {}), (check_number, {"hi": 1}), (check_probability, {})):
        got, want = outcome(rule, value, **bounds), outcome(rule, as_float, **bounds)
        if math.isnan(as_float):
            # The message quotes the value as given: nan or np.float64(nan).
            assert got[0] == want[0] == "refused" and "must be a number" in got[1]
        else:
            assert got == want


def test_integers_and_flags_keep_their_numpy_reading():
    for value in (3, np.int64(3), np.uint8(3)):
        assert outcome(check_number, value, kind=numbers.Integral) == (int, 3)
    for value in (3.0, np.float64(3.0), True, np.bool_(True), "3"):
        assert outcome(check_number, value, kind=numbers.Integral)[0] == "refused"
    assert outcome(check_number, True)[0] == "refused"
    for value in (True, np.bool_(False)):
        assert type(check_flag(value, "x")) is bool
    for value in (1, 0.0, None, "yes"):
        assert outcome(check_flag, value)[0] == "refused"
