"""Exact rational string forms and canonical JSON bytes for reports."""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction; a float is refused instead of expanded.

    Every module converts caller-supplied rationals through this, so a float
    never turns silently into a 2**-k-denominator rational.  Ints, strings
    and Fractions are accepted.
    """
    if isinstance(value, float):
        raise TypeError(f"{what} must be an exact rational, not the float {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _positive(value, what: str) -> Fraction:
    """``value`` as a positive Fraction: the one place a scale's sign is checked."""
    value = _exact(value, what)
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


def parse_frac(text: str) -> Fraction:
    """A bare ``"p/q"`` or ``"p"`` string as a Fraction; the whole string must match, so ``"1/2\n"`` is refused."""
    match = _FRACTION_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"malformed rational {text!r}, expected 'p/q' or 'p'")
    num, den = (int(group) for group in match.groups("1"))
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(num, den)


def canonical_json_bytes(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("utf-8")


def digest(obj: object) -> str:
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()
