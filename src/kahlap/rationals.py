"""Exact rational coefficient type.

All series coefficients in this package are arbitrary-precision rationals.
A :class:`kahlap.jets.Jet` keeps them as int numerators over one common
denominator and builds rationals only at its boundary; those rationals,
and the origin values built from them, are gmpy2's mpq when available and
the stdlib Fraction otherwise.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _mpq

    def rat(p, q=1):
        """Exact rational p/q."""
        return _mpq(p, q)

    RatType = type(_mpq(0))
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Fraction

    def rat(p, q=1):
        """Exact rational p/q."""
        return _Fraction(p, q)

    RatType = _Fraction

ZERO = rat(0)
ONE = rat(1)


def rat_from_str(text: str):
    """Parse "p/q" or "p" into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ZeroDivisionError("zero denominator")
        return rat(int(num), int(den))
    return rat(int(text))


def rat_str(x) -> str:
    """Canonical lossless "p/q" form (always includes the denominator)."""
    x = rat(x)
    return f"{x.numerator}/{x.denominator}"


def rat_pretty(x) -> str:
    """Human form of a rational or of its "p/q" text: integers without
    denominator, otherwise "p/q"."""
    x = rat_from_str(x) if isinstance(x, str) else rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
