"""Catalog of Kahler potentials: space forms, polydiscs, matrix domains,
their compact duals, radial metrics, and products.

Every constructor returns a potential jet with zero constant term whose
metric satisfies g(0) = I with vanishing first derivatives (the package's
normal-coordinate normalization; Einstein constants are reported under it).
Constructors are gated: an entry whose output fails the normal-coordinate
check is rejected, and the optional matrix-domain entries must additionally
pass an Einstein self-check before they may be used at all.

Six entries are log-det potentials -+log det(I -+ ZZ*) = sum_m (+-1)^(m+1)
tr((ZZ*)^m)/m: ``hyp`` and ``fs`` (Z a 1 x n row), ``polydisc`` (Z
diagonal), ``type1``, ``type1dual`` and ``type3``.  Every tr((ZZ*)^m) has
int coefficients, so :func:`_log_det_potential` forms the powers of ZZ* as
packed-key int dicts and builds the jet once, over lcm(1..order // 2).

Matrix-domain coordinates are ordered diagonal-first: variables 1..r are
the diagonal entries (1,1)..(r,r) -- the directions spanned by the diagonal
embedding of the r-fold polydisc -- followed by the remaining entries in
row-major order.
"""

from __future__ import annotations

import math
import re

from .geometry import metric_from_potential, normality_report, einstein_data, pullback
from .jets import Jet, KahlapError, record, substitute, _SHIFT, _check_shape, _mac
from .rationals import rat, rat_from_str, rat_pretty


class CatalogGateError(KahlapError):
    """Catalog entry rejected by its construction self-check."""


class SpecParseError(KahlapError):
    """Unparseable catalog spec string."""


# ----------------------------------------------------------------------
# spec variants


class PotentialSpec:
    """Base class; concrete variants below."""

    optional = False

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.label()


class _Atom(PotentialSpec):
    """A grammar atom ``head:f1,f2,...`` over positive int fields; its
    dimension is the product of its fields."""

    head = ""

    def _fields(self):
        return [getattr(self, name) for name in self.__match_args__]

    @property
    def dim(self):
        return math.prod(self._fields())

    def label(self):
        return f"{self.head}:{','.join(map(str, self._fields()))}"


@record
class Flat(_Atom):
    n: int
    head = "flat"


@record
class FubiniStudy(_Atom):
    n: int
    head = "fs"


@record
class Hyperbolic(_Atom):
    n: int
    head = "hyp"


@record
class Polydisc(_Atom):
    r: int
    head = "polydisc"


@record
class TypeI(_Atom):
    p: int
    q: int
    head = "type1"


@record
class TypeIDual(_Atom):
    p: int
    q: int
    head = "type1dual"


@record
class TypeIII(_Atom):
    m: int
    head = "type3"
    optional = True

    @property
    def dim(self):
        return self.m * (self.m + 1) // 2


@record
class TypeIV(_Atom):
    n: int
    head = "type4"
    optional = True


@record
class Radial(PotentialSpec):
    """Potential f(|z|^2) for a polynomial profile f (degree-1 coefficient
    must be 1 so that g(0) = I)."""

    coeffs: tuple  # f = sum coeffs[i] * t^(i+1)
    n: int

    @property
    def dim(self):
        return self.n

    def label(self):
        body = ",".join(rat_pretty(c) for c in self.coeffs)
        return f"radial:{body}:{self.n}"


@record
class Product(PotentialSpec):
    left: PotentialSpec
    right: PotentialSpec

    @property
    def dim(self):
        return self.left.dim + self.right.dim

    def label(self):
        return f"product({self.left.label()},{self.right.label()})"


@record
class DualOf(PotentialSpec):
    inner: PotentialSpec

    @property
    def dim(self):
        return self.inner.dim

    def label(self):
        return f"dual({self.inner.label()})"


@record(uncompared=("jet",))
class Custom(PotentialSpec):
    """Pass-through for a user potential jet; validated like any entry."""

    jet: Jet
    name: str = "custom"

    @property
    def dim(self):
        return self.jet.dim

    def label(self):
        return self.name


# ----------------------------------------------------------------------
# matrix coordinates


def matrix_slots(p: int, q: int) -> list[tuple[int, int]]:
    """Diagonal entries first, then the rest row-major (0-based pairs)."""
    r = min(p, q)
    slots = [(i, i) for i in range(r)]
    slots += [(i, j) for i in range(p) for j in range(q) if i != j]
    return slots


def _matrix_keys(p: int, q: int) -> list[list[int]]:
    """p x q matrix of the packed keys of its coordinates, diagonal-first."""
    index = {slot: k for k, slot in enumerate(matrix_slots(p, q))}
    return [[1 << _SHIFT * index[(i, j)] for j in range(q)] for i in range(p)]


def _symmetric_matrix_keys(m: int) -> list[list[int]]:
    """Symmetric m x m matrix of the packed keys of its coordinates,
    diagonal-first."""
    slots = [(i, i) for i in range(m)]
    slots += [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {slot: k for k, slot in enumerate(slots)}
    return [[1 << _SHIFT * index[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]


def _log_det_potential(n: int, z, order: int, signs: bool = False) -> Jet:
    """sum_m tr((Z Z*)^m)/m over m <= order // 2, alternating when ``signs``:
    -log det(I - ZZ*), or log det(I + ZZ*) when ``signs``.

    Z holds the packed holomorphic key of one coordinate per entry (0 for
    a zero entry; no coordinate twice in a row) and Z* is its conjugate
    transpose, so the entries of ZZ* and of its powers are int polynomials,
    homogeneous of degree 2m in (ZZ*)^m, kept as packed-key int dicts.
    Each trace is summed over the lcm of 1..order // 2, and one reduction
    makes the jet canonical: a truncated log series, valid through
    ``order``, not exact."""
    _check_shape(n, order)
    shift = _SHIFT * n
    zz = [[{a + (b << shift): 1 for a, b in zip(zi, zj) if a and b} for zj in z] for zi in z]
    cols = list(zip(*zz))
    mmax = order // 2
    den = math.lcm(*range(1, mmax + 1))
    grades = {}
    power = zz
    for m in range(1, mmax + 1):
        if m > 1:
            # the last power is read only on its diagonal
            power = [
                [_dot(row, col) if m < mmax or i == j else {} for j, col in enumerate(cols)]
                for i, row in enumerate(power)
            ]
        f = -(den // m) if signs and m % 2 == 0 else den // m
        bucket = grades[2 * m] = {}
        for i, row in enumerate(power):
            _mac(bucket, {0: f}, row[i])
    return Jet._reduced(n, order, order, False, grades, den)


def _dot(row, col) -> dict:
    """sum_c row[c] * col[c] over int-dict polynomials."""
    out = {}
    for x, y in zip(row, col):
        if x and y:
            _mac(out, x, y)
    return out


# ----------------------------------------------------------------------
# potential construction


def _raw_potential(spec: PotentialSpec, order: int) -> Jet:
    match spec:
        case Flat(n=n):
            return Jet.abs_square_sum(n, order)
        case FubiniStudy(n=n):
            return _log_det_potential(n, [[1 << _SHIFT * i for i in range(n)]], order, True)
        case Hyperbolic(n=n):
            return _log_det_potential(n, [[1 << _SHIFT * i for i in range(n)]], order)
        case Polydisc(r=r):
            diagonal = [[1 << _SHIFT * i if i == j else 0 for j in range(r)] for i in range(r)]
            return _log_det_potential(r, diagonal, order)
        case TypeI(p=p, q=q):
            return _log_det_potential(spec.dim, _matrix_keys(p, q), order)
        case TypeIDual(p=p, q=q):
            return _log_det_potential(spec.dim, _matrix_keys(p, q), order, True)
        case TypeIII(m=m):
            return _log_det_potential(spec.dim, _symmetric_matrix_keys(m), order)
        case TypeIV(n=n):
            one = Jet.one(n, order)
            s = Jet.abs_square_sum(n, order)
            quad = Jet.zero(n, order)
            for i in range(1, n + 1):
                zi = Jet.variable(n, order, i)
                quad = quad + zi * zi
            inner = one - s.scale(2) + quad * quad.conj()
            return inner.log1().scale(rat(-1, 2))
        case Radial(n=n):
            f = [0, *spec.coeffs][: order + 1]
            return substitute(f, Jet.abs_square_sum(n, order), exact=True)
        case Product(left=left, right=right):
            lphi = potential(left, order)
            rphi = potential(right, order)
            nl, nr = left.dim, right.dim
            n = nl + nr
            lterms = [
                ((bi.hol + (0,) * nr, bi.anti + (0,) * nr), c)
                for bi, c in lphi.terms()
            ]
            rterms = [
                (((0,) * nl + bi.hol, (0,) * nl + bi.anti), c)
                for bi, c in rphi.terms()
            ]
            out = Jet(n, order, lterms) + Jet(n, order, rterms)
            exact = lphi.exact and rphi.exact
            valid = min(
                lphi.valid if not lphi.exact else order,
                rphi.valid if not rphi.exact else order,
            )
            return out._flagged(valid, exact)
        case DualOf(inner=inner):
            return dual_potential(potential(inner, order))
        case Custom(jet=jet):
            if jet.order != order:
                jet = jet.truncated(order) if jet.order > order else jet.lifted(order)
            return jet.drop_constant()
    raise SpecParseError(f"unknown catalog spec {spec!r}")


def dual_potential(phi: Jet) -> Jet:
    """Compact/noncompact duality on potentials: phi -> -phi(z, -zb)."""
    return -(phi.flip_anti_sign())


def potential(spec: PotentialSpec, order: int) -> Jet:
    """Build a catalog potential at the given truncation order, gated.

    Gate: g(0) = I and vanishing first metric derivatives, read off the
    potential's terms by :func:`_reads_normal`; only a potential that read
    rejects has the metric of its degree-4 truncation built, whose checks
    name the offence.  Optional entries must additionally be Einstein at
    the self-check order.  Their normal gate reads a build through degree
    4, the truncation of the full build, so an entry it rejects is never
    built further; the potential is then built once, through degree 8 at
    least, and truncated for the Einstein gate and the result.
    """
    if order < 2:
        raise CatalogGateError("potential order must be >= 2")
    # checked before an optional entry's degree-4 build, which cannot see it
    _check_shape(spec.dim, order)
    phi = _raw_potential(spec, min(order, 4) if spec.optional else order)
    if not _reads_normal(phi):
        report = normality_report(metric_from_potential(phi.truncated(min(order, 4))))
        if not report.ok:
            raise CatalogGateError(
                f"catalog entry rejected by self-check: {spec.label()} is not "
                f"normalized at the origin ({'; '.join(report.offenders)})"
            )
    if spec.optional:
        full = _raw_potential(spec, max(order, 8))
        phi = full.truncated(order)
        # Einstein self-check at a fixed depth (Ricci valid through degree 4)
        e = einstein_data(metric_from_potential(full.truncated(8)))
        if not e.is_einstein:
            raise CatalogGateError(
                f"catalog entry rejected by self-check: {spec.label()} failed "
                f"the Einstein gate through degree {e.checked_degree}"
            )
    return phi


def _reads_normal(phi: Jet) -> bool:
    """Whether the metric of ``phi`` is Hermitian through degree 2 with
    g(0) = I and no degree-1 terms, read off the numerators of ``phi``: each
    z_i zb_i holds ``den`` and no other mixed term has degree 2, no mixed
    term has degree 3, and every mixed term of degree <= 4 has its
    conjugate at the same numerator.  A potential valid below degree 2
    reads False."""
    n = phi.dim
    shift = _SHIFT * n
    low = (1 << shift) - 1
    diagonal = {b | b << shift for b in (1 << _SHIFT * i for i in range(n))}
    quad = phi._grades.get(2, {})
    if phi._veff < 2 or any(quad.get(key) != phi.den for key in diagonal):
        return False
    for d in (2, 3, 4):
        bucket = phi._grades.get(d, {})
        for key, c in bucket.items():
            hol, anti = key & low, key >> shift
            if hol and anti and (
                d == 3
                or (d == 2 and key not in diagonal)
                or bucket.get(anti | hol << shift) != c
            ):
                return False
    return True


# ----------------------------------------------------------------------
# the diagonal restriction check


@record
class RestrictionCheck:
    potential_matches: bool
    metric_matches: bool

    @property
    def passed(self):
        return self.potential_matches and self.metric_matches


def diagonal_restriction_check(p: int, q: int, order: int) -> RestrictionCheck:
    """Pull the matrix-domain potential back along the diagonal embedding
    (z_1..z_r) -> diag(z_1..z_r), r = min(p, q), and compare with the
    polydisc potential (and likewise the metrics).  With diagonal-first
    coordinates the embedding sends variable k to z_k for k <= r and to 0
    off the diagonal."""
    if order < 4:
        raise CatalogGateError("restriction check needs order >= 4")
    r = min(p, q)
    phi_big = potential(TypeI(p, q), order)
    diagonal = [
        Jet.variable(r, order, k + 1) if k < r else Jet.zero(r, order) for k in range(p * q)
    ]
    pulled = pullback(phi_big, diagonal)
    phi_disc = potential(Polydisc(r), order)
    pot_ok = pulled.agrees(phi_disc, order)
    m_pulled = metric_from_potential(pulled)
    m_disc = metric_from_potential(phi_disc)
    met_ok = all(
        m_pulled.g[i][j].agrees(m_disc.g[i][j])
        for i in range(r)
        for j in range(r)
    )
    return RestrictionCheck(potential_matches=pot_ok, metric_matches=met_ok)


# ----------------------------------------------------------------------
# spec-string grammar


_HEAD = re.compile(r"^([a-z0-9]+):(.*)$")
_INT = re.compile(r"-?[0-9]+")
_RATIO = re.compile(r"-?[0-9]+(/[0-9]+)?")
_COEFF_START = re.compile(r"\s*[-0-9]")
# the int-field atoms by the head that names them in the grammar
_ATOMS = {
    atom.head: atom
    for atom in (Flat, FubiniStudy, Hyperbolic, Polydisc, TypeI, TypeIDual, TypeIII, TypeIV)
}
# the deepest product(/dual( nesting parse_spec reads; each level is one
# recursion of the parser and of the potential build
_MAX_NESTING = 64


def parse_spec(text: str) -> PotentialSpec:
    """Parse the CLI catalog grammar.

    flat:n | fs:n | hyp:n | polydisc:r | type1:p,q | type1dual:p,q |
    type3:m | type4:n | radial:<c1,c2,...>:n | product(<spec>,<spec>) |
    dual(<spec>), nested at most ``_MAX_NESTING`` deep.  The int-field
    atoms are read through ``_ATOMS``, one entry per :class:`_Atom`.
    """
    text = text.strip()
    depth = 0
    for c in text:
        depth += (c == "(") - (c == ")")
        if depth > _MAX_NESTING:
            raise SpecParseError(f"spec nested deeper than {_MAX_NESTING}")
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        left, right = _split_top_level(inner)
        return Product(parse_spec(left), parse_spec(right))
    if text.startswith("dual(") and text.endswith(")"):
        return DualOf(parse_spec(text[len("dual(") : -1]))
    m = _HEAD.match(text)
    if not m:
        raise SpecParseError(f"unknown spec {text!r}")
    head, rest = m.group(1), m.group(2)
    try:
        if atom := _ATOMS.get(head):
            if len(atom.__match_args__) == 1:
                return atom(_positive_int(rest))
            p, q = (_positive_int(x) for x in rest.split(","))
            return atom(p, q)
        if head == "radial":
            coeff_part, _, n_part = rest.rpartition(":")
            if not coeff_part:
                raise SpecParseError(f"radial spec needs coefficients: {text!r}")
            coeffs = tuple(rat_from_str(_ascii_digits(_RATIO, c)) for c in coeff_part.split(","))
            return Radial(coeffs, _positive_int(n_part))
    except SpecParseError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unknown spec {text!r}")


def _ascii_digits(pattern: re.Pattern, text: str) -> str:
    # ASCII digits only, as the grammar writes them: int() alone would also
    # read spaces, "+", "_" and non-ASCII digits; the message is int()'s
    if not pattern.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return text


def _positive_int(text: str) -> int:
    n = int(_ascii_digits(_INT, text))
    if n < 1:
        raise SpecParseError(f"dimension must be positive, got {n}")
    return n


def _split_top_level(text: str) -> tuple[str, str]:
    """Split at the first comma outside parentheses that does not lead a
    radial coefficient: every spec head starts with a letter, and every
    coefficient with a digit or "-"."""
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0 and not _COEFF_START.match(text, pos + 1):
            return text[:pos], text[pos + 1 :]
    raise SpecParseError(f"product needs two comma-separated specs: {text!r}")


def standard_entries() -> list[PotentialSpec]:
    """The entries listed by the CLI catalog command."""
    return [
        Flat(1),
        Flat(2),
        FubiniStudy(1),
        FubiniStudy(2),
        FubiniStudy(3),
        Hyperbolic(1),
        Hyperbolic(2),
        Hyperbolic(3),
        Polydisc(2),
        Polydisc(3),
        TypeI(2, 2),
        TypeI(2, 3),
        TypeIDual(2, 2),
        TypeIII(2),
        TypeIV(2),
    ]


def einstein_catalog_entries() -> list[PotentialSpec]:
    """The Einstein entries used by the identity suites."""
    return [
        FubiniStudy(1),
        FubiniStudy(2),
        FubiniStudy(3),
        Hyperbolic(1),
        Hyperbolic(2),
        Hyperbolic(3),
        Polydisc(2),
        TypeI(2, 2),
    ]
