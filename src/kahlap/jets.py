"""Exact truncated power-series (jet) arithmetic over the rationals.

A :class:`Jet` is a power series in n holomorphic variables z_1..z_n and
their conjugates zb_1..zb_n, truncated at a fixed total degree (``order``),
with exact rational coefficients.  Besides the order, every jet carries a
validity degree ``valid``: coefficients of total degree <= valid agree with
those of the represented function; higher stored coefficients are artifacts
of truncated arithmetic and must not be trusted.  Exact polynomials are
flagged ``exact``: arithmetic that truncates no term keeps them exact.

Monomials are keyed by packed exponent vectors (5 bits per slot), so a
monomial product is a single integer addition; coefficients are grouped by
total degree, which lets every product skip pairs beyond the truncation
order without per-pair degree checks.

A jet stores its coefficients as Python-int numerators over one positive
integer ``den`` shared by all of them, so every ring and calculus kernel
runs on ints and normalises once, at its end, instead of once per
coefficient.  The stored form is canonical: no zero numerator, no empty
degree, ``gcd(den, every numerator) == 1`` and ``den == 1`` for the zero
jet.  Two jets with the same coefficients therefore store the same
numerators and ``den``, and ``==`` compares them structurally.  Rationals
appear only at the boundary (:meth:`Jet.coefficient`, :meth:`Jet.terms`
and the methods built on them).

Every product and scaled sum of packed-key int dicts, here and in the
catalog and geometry modules, goes through one kernel, :func:`_mac`, which
adds ``w * a * b`` into an accumulator.  Two exceptions: the N0 step of the
series inverse multiplies by int constants and stays a plain loop (held as
constant polynomials for the kernel, they ran slower), and
:meth:`Jet._reduced` still takes canonical dicts, the kernel's callers
dropping the zeros it leaves, so that ``_reduced`` need not scan every
numerator of every result for them.

A univariate series f(t) = f_0 + f_1 t + ... is a plain list
``[f_0, f_1, ...]`` of rationals: the radial profiles f with potential
f(|z|^2) and the series of :meth:`Jet.log1`, each composed with a jet by
:func:`substitute`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .rationals import ZERO, rat, rat_str

_SHIFT = 5
_MASK = (1 << _SHIFT) - 1
MAX_ORDER = _MASK  # single packed digit must hold any exponent

# effective validity of an exact polynomial
_INF = 10**9


class KahlapError(Exception):
    """Base class for all errors raised by this package."""


def record(cls=None, *, uncompared=()):
    """Make ``cls`` a frozen value class over its own annotated fields, in
    order; a field's default is its class attribute.  Like
    ``dataclass(frozen=True)``, but the methods are shared closures, so no
    code is generated at import: positional or keyword ``__init__``,
    ``==`` and ``hash`` over the fields not named in ``uncompared`` (same
    class only), a ``Name(field=value, ...)`` repr, and no assignment or
    deletion.  Instances keep a ``__dict__`` (``cached_property`` works)."""
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    fields = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    required = fields - defaults.keys()
    compared = tuple(n for n in names if n not in uncompared)

    def __init__(self, *args, **kwargs):
        count = len(args) + len(kwargs)
        if args:  # a surplus or repeated argument leaves fewer keys
            kwargs = dict(zip(names, args), **kwargs)
        if len(kwargs) != count or not required <= kwargs.keys() <= fields:
            raise TypeError(
                f"{cls.__name__}() takes the fields {', '.join(names)}, each at "
                f"most once; those without a default are required"
            )
        attrs = vars(self)
        attrs.update(defaults)
        attrs.update(kwargs)

    def key(self):
        return tuple([getattr(self, n) for n in compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__match_args__ = names
    return cls


class DegreeOverflowError(KahlapError):
    """A requested term exceeds the jet's truncation order."""


class DimensionMismatchError(KahlapError):
    """Operands live in different variable counts or truncation orders."""


class ConstantTermError(KahlapError):
    """An operation's precondition on the constant coefficient fails."""


class IndexRangeError(KahlapError):
    """Variable index outside 1..dim."""


class InsufficientOrderError(KahlapError):
    """Validity is exhausted; the computation needs a higher order.

    ``required_order``, when known, is the minimal truncation order that
    would make the computation exact.
    """

    def __init__(self, message: str, required_order: int | None = None):
        super().__init__(message)
        self.required_order = required_order


class BiIndex(NamedTuple):
    """Exponent pair (alpha, beta) of a monomial z^alpha * zb^beta."""

    hol: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.hol) + sum(self.anti)

    @property
    def bidegree(self) -> tuple[int, int]:
        return (sum(self.hol), sum(self.anti))

    def text(self) -> str:
        parts = []
        for i, e in enumerate(self.hol):
            if e == 1:
                parts.append(f"z{i + 1}")
            elif e > 1:
                parts.append(f"z{i + 1}^{e}")
        for i, e in enumerate(self.anti):
            if e == 1:
                parts.append(f"zb{i + 1}")
            elif e > 1:
                parts.append(f"zb{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def _check_shape(dim: int, order: int) -> None:
    if dim < 1:
        raise DimensionMismatchError("dim must be >= 1")
    if not 0 <= order <= MAX_ORDER:
        raise DegreeOverflowError(f"order must be in 0..{MAX_ORDER}, got {order}")


def _pack(exponents: Sequence[int]) -> int:
    key = 0
    for pos, e in enumerate(exponents):
        key |= e << (_SHIFT * pos)
    return key


def _unpack(key: int, nslots: int) -> tuple[int, ...]:
    return tuple((key >> (_SHIFT * pos)) & _MASK for pos in range(nslots))


def _digit_sum(key: int) -> int:
    """The sum of the digits of a packed exponent vector: the degree of the
    monomial a key, or one half of it, packs.  32 = 1 (mod 31), so a nonzero
    key is congruent to its digit sum mod 31, and every degree lies in
    1..``MAX_ORDER`` = 31; a plain ``key % 31`` would read degree 31 as 0."""
    return (key - 1) % _MASK + 1 if key else 0


def _digits(half: int) -> list:
    """(slot, exponent) for each nonzero digit of a packed exponent vector,
    found from its lowest set bit, without visiting the zero digits."""
    out = []
    while half:
        pos = ((half & -half).bit_length() - 1) // _SHIFT * _SHIFT
        e = half >> pos & _MASK
        out.append((pos // _SHIFT, e))
        half -= e << pos
    return out


def _pack_bi(bi: BiIndex) -> int:
    return _pack(tuple(bi.hol) + tuple(bi.anti))


def _sort_key(bi: BiIndex):
    # graded order, z1-major: |z1|^4 sorts before |z1 z2|^2
    return (
        bi.degree,
        tuple(-e for e in bi.hol),
        tuple(-e for e in bi.anti),
    )


class Jet:
    """Truncated multivariate power series with exact rational coefficients.

    Instances are immutable; all operations return new jets.  Arithmetic
    requires matching ``dim`` and ``order`` (use :meth:`truncated` to move a
    jet to a lower order first).

    The coefficient of the monomial packed as ``key`` in total degree ``d``
    is ``_grades[d][key] / den``, an int over the jet's common denominator,
    kept in the canonical form of the module docstring.
    """

    __slots__ = ("dim", "order", "valid", "exact", "_grades", "den")

    def __init__(self, dim, order, terms: Iterable[tuple[BiIndex, object]] = ()):
        """Exact polynomial jet from (BiIndex, coefficient) terms.

        Raises DegreeOverflowError if any term degree exceeds ``order``.
        """
        _check_shape(dim, order)
        grades: dict[int, dict[int, object]] = {}
        for bi, c in terms:
            bi = BiIndex(tuple(bi[0]), tuple(bi[1]))
            if len(bi.hol) != dim or len(bi.anti) != dim:
                raise DimensionMismatchError(
                    f"exponent vectors must have length {dim}: {bi}"
                )
            if any(e < 0 for e in bi.hol + bi.anti):
                raise DegreeOverflowError(f"negative exponent in {bi}")
            d = bi.degree
            if d > order:
                raise DegreeOverflowError(
                    f"term {bi.text()} has degree {d} > order {order}"
                )
            c = rat(c)
            if c == 0:
                continue
            bucket = grades.setdefault(d, {})
            key = _pack_bi(bi)
            prev = bucket.get(key)
            val = c if prev is None else prev + c
            if val == 0:
                del bucket[key]
            else:
                bucket[key] = val
        # the lcm of reduced denominators leaves no common factor: canonical
        den = math.lcm(*{c.denominator for b in grades.values() for c in b.values()})
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "valid", order)
        object.__setattr__(self, "exact", True)
        object.__setattr__(
            self,
            "_grades",
            {
                d: {k: int(c.numerator * (den // c.denominator)) for k, c in b.items()}
                for d, b in grades.items()
                if b
            },
        )
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Jet instances are immutable")

    # ------------------------------------------------------------------
    # construction helpers

    @staticmethod
    def _raw(dim, order, valid, exact, grades, den=1) -> "Jet":
        """Jet over numerators already in canonical form with ``den``."""
        jet = Jet.__new__(Jet)
        object.__setattr__(jet, "dim", dim)
        object.__setattr__(jet, "order", order)
        object.__setattr__(jet, "valid", min(valid, order) if not exact else order)
        object.__setattr__(jet, "exact", exact)
        object.__setattr__(jet, "_grades", grades)
        object.__setattr__(jet, "den", den)
        return jet

    @staticmethod
    def _reduced(dim, order, valid, exact, grades, den) -> "Jet":
        """Jet over nonzero numerators in nonempty degrees, divided first by
        their common factor with ``den``."""
        if den != 1:
            g = den
            for bucket in grades.values():
                g = math.gcd(g, *bucket.values())
                if g == 1:
                    break
            if g != 1:
                den //= g
                grades = {
                    d: {k: c // g for k, c in b.items()} for d, b in grades.items()
                }
        return Jet._raw(dim, order, valid, exact, grades, den)

    def _flagged(self, valid, exact) -> "Jet":
        """The same coefficients under new validity flags."""
        return Jet._raw(self.dim, self.order, valid, exact, self._grades, self.den)

    @classmethod
    def zero(cls, dim, order) -> "Jet":
        _check_shape(dim, order)
        return Jet._raw(dim, order, order, True, {})

    @classmethod
    def constant(cls, dim, order, c) -> "Jet":
        _check_shape(dim, order)
        c = rat(c)
        grades = {0: {0: c.numerator}} if c else {}
        return Jet._raw(dim, order, order, True, grades, c.denominator)

    @classmethod
    def one(cls, dim, order) -> "Jet":
        return cls.constant(dim, order, 1)

    @classmethod
    def variable(cls, dim, order, i) -> "Jet":
        """The coordinate jet z_i, 1-based index."""
        if not 1 <= i <= dim:
            raise IndexRangeError(f"variable index {i} outside 1..{dim}")
        hol = tuple(1 if k == i - 1 else 0 for k in range(dim))
        return cls(dim, order, [(BiIndex(hol, (0,) * dim), 1)])

    @classmethod
    def abs_square_sum(cls, dim, order) -> "Jet":
        """Sum of |z_i|^2 over all variables."""
        terms = []
        for i in range(dim):
            hol = tuple(1 if k == i else 0 for k in range(dim))
            terms.append((BiIndex(hol, hol), 1))
        return cls(dim, order, terms)

    # ------------------------------------------------------------------
    # inspection

    @property
    def _veff(self) -> int:
        return _INF if self.exact else self.valid

    @property
    def is_zero(self) -> bool:
        return not self._grades

    def max_degree(self) -> int:
        """Largest total degree with a stored nonzero coefficient (-1 if zero)."""
        return max(self._grades) if self._grades else -1

    def min_degree(self) -> int:
        """Smallest total degree with a stored nonzero coefficient (order+1 if zero)."""
        return min(self._grades) if self._grades else self.order + 1

    def coefficient(self, bi: BiIndex):
        bi = BiIndex(tuple(bi[0]), tuple(bi[1]))
        c = self._grades.get(bi.degree, {}).get(_pack_bi(bi))
        return ZERO if c is None else rat(c, self.den)

    def constant_term(self):
        bucket = self._grades.get(0)
        if not bucket:
            return ZERO
        return rat(next(iter(bucket.values())), self.den)

    def terms(self) -> Iterator[tuple[BiIndex, object]]:
        """Deterministic (BiIndex, coefficient) iteration, graded z1-major."""
        out = []
        for d in sorted(self._grades):
            for key, c in self._grades[d].items():
                exps = _unpack(key, 2 * self.dim)
                bi = BiIndex(exps[: self.dim], exps[self.dim :])
                out.append((bi, rat(c, self.den)))
        out.sort(key=lambda item: _sort_key(item[0]))
        return iter(out)

    # ------------------------------------------------------------------
    # ring operations

    def _check_compat(self, other: "Jet"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        if self.order != other.order:
            raise DimensionMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compat(other)
        den = math.lcm(self.den, other.den)
        grades = {}
        for jet in (self, other):
            for d, b in jet._grades.items():
                _mac(grades.setdefault(d, {}), {0: den // jet.den}, b)
        grades = {d: nz for d, b in grades.items() if (nz := {k: c for k, c in b.items() if c})}
        exact = self.exact and other.exact
        valid = min(self._veff, other._veff)
        return Jet._reduced(self.dim, self.order, valid, exact, grades, den)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        grades = {d: {k: -c for k, c in b.items()} for d, b in self._grades.items()}
        return Jet._raw(self.dim, self.order, self.valid, self.exact, grades, self.den)

    def scale(self, c) -> "Jet":
        c = rat(c)
        if c == 0:
            return Jet._raw(self.dim, self.order, self.valid, self.exact, {})
        p = int(c.numerator)
        grades = {d: {k: p * v for k, v in b.items()} for d, b in self._grades.items()}
        den = self.den * int(c.denominator)
        return Jet._reduced(self.dim, self.order, self.valid, self.exact, grades, den)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compat(other)
            return _mul_capped(self, other, self.order)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # ------------------------------------------------------------------
    # series functions

    def log1(self) -> "Jet":
        """log of a unit-constant jet: log(1+u) = sum (-1)^(m+1) u^m / m."""
        if self.constant_term() != 1:
            raise ConstantTermError("log1 requires constant term exactly 1")
        u = self - Jet.one(self.dim, self.order)
        coeffs = [0] + [rat((-1) ** (m + 1), m) for m in range(1, self.order + 1)]
        return substitute(coeffs, u, exact=False)

    # ------------------------------------------------------------------
    # structural transforms

    def flip_anti_sign(self) -> "Jet":
        """Substitute zb -> -zb: each coefficient times (-1)^(anti degree)."""
        shift = _SHIFT * self.dim
        grades = {
            d: {k: -c if _digit_sum(k >> shift) % 2 else c for k, c in b.items()}
            for d, b in self._grades.items()
        }
        return Jet._raw(self.dim, self.order, self.valid, self.exact, grades, self.den)

    def conj(self) -> "Jet":
        """Swap holomorphic and antiholomorphic exponents (coefficients are
        rational, hence fixed by conjugation)."""
        n = self.dim
        grades: dict[int, dict[int, int]] = {}
        for d, bucket in self._grades.items():
            tgt = grades.setdefault(d, {})
            for key, c in bucket.items():
                lo = key & ((1 << (_SHIFT * n)) - 1)
                hi = key >> (_SHIFT * n)
                tgt[hi | (lo << (_SHIFT * n))] = c
        return Jet._raw(self.dim, self.order, self.valid, self.exact, grades, self.den)

    def drop_constant(self) -> "Jet":
        """Remove the constant coefficient (potentials are defined mod constants)."""
        grades = {d: b for d, b in self._grades.items() if d != 0}
        return Jet._reduced(
            self.dim, self.order, self.valid, self.exact, grades, self.den
        )

    def truncated(self, new_order: int) -> "Jet":
        """Copy truncated to a lower order."""
        if new_order >= self.order:
            return self
        dropped = any(d > new_order for d in self._grades)
        grades = {d: dict(b) for d, b in self._grades.items() if d <= new_order}
        exact = self.exact and not dropped
        valid = min(self._veff, new_order) if not exact else new_order
        return Jet._reduced(self.dim, new_order, valid, exact, grades, self.den)

    def lifted(self, new_order: int) -> "Jet":
        """Copy at a higher nominal order; validity is unchanged, so the new
        degrees are simply not vouched for (unless the jet is exact)."""
        if new_order <= self.order:
            return self.truncated(new_order)
        if new_order > MAX_ORDER:
            raise DegreeOverflowError(f"order must be <= {MAX_ORDER}")
        grades = {d: dict(b) for d, b in self._grades.items()}
        return Jet._raw(self.dim, new_order, self.valid, self.exact, grades, self.den)

    # ------------------------------------------------------------------
    # comparison

    def agrees(self, other: "Jet", through: int | None = None) -> bool:
        """Coefficient-wise equality up to min of the validity degrees."""
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        limit = min(self._veff, other._veff, self.order, other.order)
        if through is not None:
            limit = min(limit, through)
        da, db = self.den, other.den
        for d in range(0, limit + 1):
            ga, gb = self._grades.get(d, {}), other._grades.get(d, {})
            if da == db:
                if ga != gb:
                    return False
            elif ga.keys() != gb.keys() or any(
                c * db != gb[k] * da for k, c in ga.items()
            ):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.den == other.den
            and self._grades == other._grades
        )

    __hash__ = None

    def __repr__(self):
        head = ", ".join(
            f"{rat_str(c)}*{bi.text()}" for bi, c in list(self.terms())[:6]
        )
        more = "" if len(self._grades) <= 6 else ", ..."
        flag = "exact" if self.exact else f"valid={self.valid}"
        return f"Jet(dim={self.dim}, order={self.order}, {flag}: {head}{more})"


def _mac(tgt: dict, a: dict, b: dict, w: int = 1) -> None:
    """Add ``w * a * b`` into ``tgt``, all packed-key int polynomials: a
    monomial product is a key addition.  Keys that cancel stay, as zeros."""
    get = tgt.get
    for ka, ca in a.items():
        ca *= w
        for kb, cb in b.items():
            k = ka + kb
            tgt[k] = get(k, 0) + ca * cb


def _mul_capped(a: Jet, b: Jet, out_order: int) -> Jet:
    """Product truncated at out_order.  Internal: orders may differ.

    The result lives at ``out_order``; validity is min of the operands'
    effective validities, capped at the output order.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out_order = min(out_order, MAX_ORDER)
    grades: dict[int, dict[int, int]] = {}
    for da, bucket_a in a._grades.items():
        if da > out_order:
            continue
        dmax = out_order - da
        for db, bucket_b in b._grades.items():
            if db > dmax:
                continue
            _mac(grades.setdefault(da + db, {}), bucket_a, bucket_b)
    grades = {d: nz for d, b in grades.items() if (nz := {k: c for k, c in b.items() if c})}
    # a product with a zero factor is exactly zero: it drops no degree
    dropped = (
        not (a.is_zero or b.is_zero)
        and a.max_degree() + b.max_degree() > out_order
    )
    exact = a.exact and b.exact and not dropped
    valid = min(a._veff, b._veff, out_order)
    return Jet._reduced(a.dim, out_order, valid, exact, grades, a.den * b.den)


def substitute(f: list, arg: Jet, exact: bool) -> Jet:
    """Compose a univariate series with a zero-constant jet: f(arg).

    ``f`` is the list ``[f_0, f_1, ...]`` of the series' coefficients: an
    exact polynomial when ``exact``, otherwise a series known through
    degree ``len(f) - 1``.  A zero argument yields the constant f(0), known
    as far as the argument is: with the argument's validity and exactness.
    Otherwise the unknown coefficients of an inexact f additionally cap the
    result's validity at len(f)*mindeg(arg) - 1.
    """
    if arg.constant_term() != 0:
        raise ConstantTermError("substitute requires a zero-constant argument")
    order = arg.order
    out = Jet.constant(arg.dim, order, f[0])
    if arg.is_zero:
        return out._flagged(arg.valid, arg.exact)
    mindeg = arg.min_degree()
    top = min(len(f) - 1, order // mindeg)
    power = arg
    for m in range(1, top + 1):
        if m > 1:
            power = _mul_capped(power, arg, order)
        if f[m]:
            out = out + power.scale(f[m])
    valid = min(arg._veff, order)
    if exact:
        # a nonzero term past the loop's last power is truncated away
        exact = out.exact and not any(f[top + 1 :])
    else:
        valid = min(valid, len(f) * mindeg - 1)
    return out._flagged(valid, exact)
