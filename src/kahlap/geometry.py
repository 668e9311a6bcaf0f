"""Kahler metric jets: the metric of a potential, its inverse, log
determinant and Einstein data, the normal-coordinate test and the trace
identity.  Nothing here composes a jet with a map: the one restriction a
command runs, the diagonal lemma, is read off packed keys by the catalog,
and the general composition ``pullback`` is a test reference
(``tests/oracles.py``).

The metric of a potential jet F is its mixed Hessian g[i][j] = d^2 F /
dz_i dzb_j (both indices 0-based here, rows holomorphic).  The Laplacian
contraction used throughout the package is

    (Lap f) = sum_{a,b} ginv[a][b] * d^2 f / dz_b dzb_a,

i.e. the trace of (matrix inverse of g) times the mixed Hessian of f.  The
transposition convention is pinned by a test: a potential |F(z)|^2 pulled
back from flat space through a holomorphic map F must make Lap(|F_k|^2)
constant.  Under this convention the Einstein constants of the standard
catalog come out as lambda(hyperbolic n) = -(n+1), lambda(Fubini-Study n)
= n+1 with g(0) = I.

Both metric tests read packed keys, by one identity: the coefficient of
z^a zb^b in d_i dbar_j F is (a_i+1)(b_j+1) F_{a+e_i, b+e_j}.  So the
metric is one pass over the mixed terms of F (those with a holomorphic
and an antiholomorphic part), and

- g is Hermitian exactly when every mixed term z^a zb^b of F has its
  mirror z^b zb^a at the same coefficient;
- Ric = -d dbar L, with L = log det(g) read off the series inverse by
  Jacobi's formula, equals lambda g through degree c exactly when L +
  lambda F has no mixed term of degree <= c + 2.

No Ricci or conjugate jet is built.  The tests check the metric and the
Einstein data against the whole-jet routes (``tests/oracles.py``), the
inverse against Newton iteration and log det(g) against a pivoted series
determinant.
"""

from __future__ import annotations

import math

from .jets import (
    _MASK,
    _SHIFT,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _digits,
    _mac,
    record,
)
from .rationals import rat

Matrix = tuple[tuple[Jet, ...], ...]


class DegenerateMetricError(KahlapError):
    """Metric constant term singular or not positive definite."""


# ----------------------------------------------------------------------
# the constant term g(0)


def _eliminate(rows):
    """Fraction-free Gauss-Jordan on an int matrix A: (q, N, pivots) with
    A^{-1} = N / q.

    Each step updates every other row r to (p * r - r[k] * pivot row) /
    p', p the pivot and p' the one before it; the division is exact, and
    the last pivot is det(A) up to the sign of the row swaps.
    ``pivots[k]`` is the diagonal entry met at step k, before any row swap;
    a singular matrix raises DegenerateMetricError.  Rows are swapped only
    past a zero pivot, so while every pivot is nonzero ``pivots[k]`` is the
    leading principal minor of size k+1, and all pivots are positive
    exactly when all leading principal minors are.
    """
    n = len(rows)
    aug = [list(row) + [int(k == i) for k in range(n)] for i, row in enumerate(rows)]
    pivots, prev = [], 1
    for col in range(n):
        pivots.append(aug[col][col])
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise DegenerateMetricError("degenerate metric at origin")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = p
    return prev, [row[n:] for row in aug], pivots


def _origin_inverse(g: Matrix):
    """(q, N0, pivots): g(0)^{-1} = N0 / q in lowest terms, q > 0, from
    :func:`_eliminate` on the int numerators of g(0) over the lcm of the
    entry denominators."""
    den = math.lcm(*(e.den for row in g for e in row))
    q, n0, pivots = _eliminate(
        [[e._grades.get(0, {0: 0})[0] * (den // e.den) for e in row] for row in g]
    )
    t = math.gcd(q, *(c * den for row in n0 for c in row)) * (1 if q > 0 else -1)
    return q // t, [[c * den // t for c in row] for row in n0], pivots


# ----------------------------------------------------------------------
# jet matrices


def series_matrix_inverse(g: Matrix, target_valid: int, graded=None) -> Matrix:
    """Inverse of a jet matrix with invertible constant term, through
    degree ``target_valid``.

    Graded recurrence: split g = sum_e G_e and the inverse X = sum_d X_d into
    homogeneous parts; then X_0 = g(0)^{-1} and
    X_d = -g(0)^{-1} sum_{e=1..d} G_e X_{d-e}, so each degree is computed
    once, from the lower ones.  It runs on ints: with q the lcm of the
    denominators of g(0)^{-1} and Gd that of the entry denominators of g,
    X_d is an int matrix N_d over q^{d+1} Gd^d, where N_0 = q g(0)^{-1} and
    N_d = -N_0 sum_e (q Gd)^{e-1} (Gd G_e) N_{d-e}.  Entries of g with no
    term of degree e take no part in that degree's products.

    ``graded`` is the :class:`_GradedInverse` of g to read and extend, kept
    by a :class:`MetricJet` between calls; without it g(0) is eliminated
    here and the recurrence starts afresh.  The entries hold the degrees
    0..``target_valid`` of the inverse (none above the order of g) and are
    flagged inexact, valid through ``target_valid`` or the validity of g,
    whichever is lower.
    """
    if graded is None:
        graded = _GradedInverse(g, *_origin_inverse(g)[:2])
    return graded.matrix(target_valid)


class _GradedInverse:
    """The state of the recurrence of :func:`series_matrix_inverse` for one
    matrix g: the numerators N_d computed so far, extended one degree at a
    time and only as far as a call asks."""

    __slots__ = ("g", "q", "gd", "n0", "parts", "xs")

    def __init__(self, g: Matrix, q: int, n0):
        self.g = g
        self.q = q
        self.gd = math.lcm(*(entry.den for row in g for entry in row))
        self.n0 = n0
        # parts[e]: (k, l, numerators of (q Gd)^(e-1) Gd G_e[k][l]) where nonzero
        self.parts = [[]]
        # xs[d][i][j]: the numerators of N_d[i][j] by packed key
        self.xs = [[[{0: c} if c else {} for c in row] for row in n0]]

    def _extend(self) -> None:
        """Append N_d for the next degree d."""
        g, n0, xs = self.g, self.n0, self.xs
        n, d = len(g), len(xs)
        sc = self.q ** (d - 1) * self.gd**d
        self.parts.append(
            [
                (k, l, _scaled(bucket, sc // entry.den))
                for k, row in enumerate(g)
                for l, entry in enumerate(row)
                if (bucket := entry._grades.get(d))
            ]
        )
        # acc = sum_e (scaled G_e) N_{d-e}
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for e in range(1, d + 1):
            lower = xs[d - e]
            for k, l, gpart in self.parts[e]:
                for j, xpart in enumerate(lower[l]):
                    if xpart:
                        _mac(acc[k][j], gpart, xpart)
        xd = []
        for i in range(n):
            row = []
            for j in range(n):
                tgt = {}
                for k in range(n):
                    a = n0[i][k]
                    if not a:
                        continue
                    get = tgt.get
                    for key, c in acc[k][j].items():
                        tgt[key] = get(key, 0) - a * c
                row.append({key: c for key, c in tgt.items() if c})
            xd.append(row)
        xs.append(xd)

    def matrix(self, target_valid: int) -> Matrix:
        """The inverse through degree ``target_valid``, as jets."""
        g = self.g
        dim, order = g[0][0].dim, g[0][0].order
        top = min(target_valid, order)
        while len(self.xs) <= top:
            self._extend()
        # every degree over the common denominator q^(top+1) Gd^top
        valid = min(target_valid, min(e._veff for row in g for e in row))
        s = self.q * self.gd
        den = self.q ** (top + 1) * self.gd**top
        lift = [s ** (top - d) for d in range(top + 1)]
        xs = self.xs[: top + 1]
        return tuple(
            tuple(
                Jet._reduced(
                    dim, order, valid, False,
                    {d: _scaled(x[i][j], lift[d]) for d, x in enumerate(xs) if x[i][j]},
                    den,
                )
                for j in range(len(g))
            )
            for i in range(len(g))
        )


def _scaled(bucket: dict, f: int) -> dict:
    """The numerators of ``bucket`` times f; the bucket itself when f is 1,
    as it is on every catalog metric (no bucket is changed once built)."""
    return bucket if f == 1 else {key: c * f for key, c in bucket.items()}


# ----------------------------------------------------------------------
# the metric object


@record
class EinsteinData:
    """Result of the proportionality test Ric = lambda * g.

    ``lam`` is Ric[0][0](0)/g[0][0](0) whether or not the metric is
    Einstein; it is the Einstein constant exactly when ``is_einstein``.
    ``checked_degree`` is the jet degree through which Ric - lam*g was
    verified to vanish.
    """

    is_einstein: bool
    lam: object
    checked_degree: int


@record
class NormalityReport:
    """Outcome of the normal-coordinate test at the origin."""

    ok: bool
    identity_at_origin: bool
    first_order_vanishes: bool
    offenders: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


class MetricJet:
    """Metric matrix of jets together with its series inverse.

    ``valid`` bounds the degree through which g * g_inv equals the
    identity.  ``phi`` is the potential, set by
    :func:`metric_from_potential`, the one constructor in the package: g
    is Hermitian because every mixed term of phi has its mirror at the
    same coefficient.  :func:`einstein_data` reads phi too: Ric = lam*g
    through degree ``valid - 2`` because L + lam*phi, L = log det(g), has
    no mixed term through degree ``valid``.
    ``g(0)^{-1}`` is computed once, by the positive-definiteness check at
    construction, and seeds the graded recurrence of
    :func:`series_matrix_inverse`, whose state is kept here and extended
    one degree at a time as readers ask: :meth:`inverse` is the inverse
    through the degrees a reader needs, ``inverse(valid)`` the whole of it.
    The Einstein data, the origin values of Laplacian powers of monomials
    (filled by ``monomial_powers_at_origin`` of :mod:`kahlap.laplacian`,
    which every ``*_at_origin`` function reads through) and the weights of
    the expanded third-power formula (filled by the first
    ``third_power_rhs`` or ``third_power_checks`` call) are cached the same
    way; each fill is deterministic.
    """

    __slots__ = (
        "dim", "order", "valid", "g", "phi",
        "_origin", "_graded", "_inverses", "_einstein", "_origin_values",
        "_third_power_weights",
    )

    def __init__(self, g: Matrix):
        self.dim = len(g)
        self.order = g[0][0].order
        self.valid = min(self.order, *(e._veff for row in g for e in row))
        self.g = g
        self.phi = None
        self._graded = None
        self._inverses = {}
        self._einstein = None
        self._origin_values = None
        self._third_power_weights = None
        q, n0, pivots = _origin_inverse(g)
        # Sylvester's criterion; g(0) is symmetric, as g is Hermitian
        if not all(p > 0 for p in pivots):
            raise DegenerateMetricError("metric not positive definite at origin")
        self._origin = q, n0

    def inverse(self, degree: int = 0) -> Matrix:
        """The series inverse through degree ``max(degree, valid - 1)``.

        Degree ``valid - 1`` is all that log det(g) reads (see
        :func:`_log_det`), and all that the Laplacian powers of a potential
        built for them read; a reader that needs more asks for it.  Each
        such matrix is built once, from the shared graded state.
        """
        top = max(degree, self.valid - 1, 0)
        x = self._inverses.get(top)
        if x is None:
            if self._graded is None:
                self._graded = _GradedInverse(self.g, *self._origin)
            x = self._inverses[top] = series_matrix_inverse(self.g, top, self._graded)
        return x

    @property
    def einstein(self) -> EinsteinData:
        if self._einstein is None:
            self._einstein = einstein_data(self)
        return self._einstein


def metric_from_potential(phi: Jet) -> MetricJet:
    """Mixed Hessian of a potential jet, as a MetricJet.

    One pass over the mixed terms c z^A zb^B of phi's numerators adds
    A_i B_j c at z^(A-e_i) zb^(B-e_j) to g[i][j], for every i with A_i > 0
    and j with B_j > 0, and checks that the mirror z^B zb^A holds c too:
    that is the whole Hermitian test (module docstring).  A failure names
    the first entry (i,j), i <= j, row-major, with g[i][j] != conj g[j][i].
    The entries keep phi's flags, less two degrees of validity.
    """
    if phi._veff < 2:
        raise InsufficientOrderError(
            "potential must be valid at least to degree 2", required_order=2
        )
    n = phi.dim
    shift = _SHIFT * n
    low = (1 << shift) - 1
    # grades[j][i]: the numerators of g[i][j] over phi.den, by degree
    grades = [[{} for _ in range(n)] for _ in range(n)]
    crooked = []
    for d, bucket in phi._grades.items():
        for key, c in bucket.items():
            hol, anti = key & low, key >> shift
            if not (hol and anti):
                continue
            if bucket.get(anti | hol << shift) != c:
                crooked.append(key)
            # the nonzero digits of each half, from their lowest set bits
            antis = []
            while anti:
                pos = ((anti & -anti).bit_length() - 1) // _SHIFT * _SHIFT
                b = anti >> pos & _MASK
                anti -= b << pos
                antis.append((grades[pos // _SHIFT], b * c, key - (1 << shift + pos)))
            while hol:
                pos = ((hol & -hol).bit_length() - 1) // _SHIFT * _SHIFT
                a = hol >> pos & _MASK
                hol -= a << pos
                i = pos // _SHIFT
                for col, bc, k in antis:
                    col[i].setdefault(d - 2, {})[k - (1 << pos)] = a * bc
    if crooked:
        i, j = min(
            (min(p, q), max(p, q))
            for key in crooked
            for p, _ in _digits(key & low)
            for q, _ in _digits(key >> shift)
        )
        raise DegenerateMetricError(f"metric not Hermitian: entry ({i + 1},{j + 1})")
    m = MetricJet(
        tuple(
            tuple(Jet._reduced(n, phi.order, phi.valid - 2, phi.exact, col[i], phi.den) for col in grades)
            for i in range(n)
        )
    )
    m.phi = phi
    return m


# ----------------------------------------------------------------------
# Einstein data


def _log_det(m: MetricJet) -> Jet:
    """L = log det(g) - log det(g(0)) through degree ``m.valid``, from g_inv.

    Jacobi's formula with the Euler (total-degree) operator E reads
    E log det(g) = tr(g_inv E g); on homogeneous parts, with X = g_inv,
    L_d = (1/d) sum_{e=1..d} e tr(X_{d-e} G_e), so it reads X only through
    degree ``m.valid - 1``: ``m.inverse()``.  It runs on ints, graded as in
    :func:`series_matrix_inverse`: with Dx and Gd the lcms of the entry
    denominators of X and g and M = lcm(1..m.valid), every L_d is an int
    numerator over M Dx Gd.  L lives at order ``m.valid`` and is valid
    there; it is flagged exact only when every entry of g is an exact
    constant, the one case where it is known to be exactly zero.
    """
    n, top = m.dim, m.valid
    x = m.inverse()
    dx = math.lcm(*(e.den for row in x for e in row))
    gd = math.lcm(*(e.den for row in m.g for e in row))
    big = math.lcm(*range(1, top + 1))
    # parts[e]: (X[i][k] numerators by degree, numerators of G_e[k][i], f),
    # f times their product being the numerator of X[i][k] G_e[k][i] over Dx Gd
    parts = [[] for _ in range(top + 1)]
    for i in range(n):
        for k in range(n):
            xe, ge = x[i][k], m.g[k][i]
            if xe.is_zero:
                continue
            f = (dx // xe.den) * (gd // ge.den)
            for e, bucket in ge._grades.items():
                if 1 <= e <= top:
                    parts[e].append((xe._grades, bucket, f))
    grades = {}
    for d in range(1, top + 1):
        tgt = {}
        for e in range(1, d + 1):
            for xgrades, gpart, f in parts[e]:
                if xpart := xgrades.get(d - e):
                    _mac(tgt, gpart, xpart, e * (big // d) * f)
        tgt = {key: c for key, c in tgt.items() if c}
        if tgt:
            grades[d] = tgt
    exact = all(e.exact and e.max_degree() <= 0 for row in m.g for e in row)
    return Jet._reduced(m.g[0][0].dim, top, top, exact, grades, big * dx * gd)


def einstein_data(m: MetricJet) -> EinsteinData:
    """Proportionality test Ric = lam*g through degree ``m.valid - 2``.

    Ric = -d dbar L with L = :func:`_log_det`, and g = d dbar phi, so Ric -
    lam*g = -d dbar (L + lam*phi): it vanishes through degree c exactly
    when L + lam*phi has no mixed term of degree <= c + 2 (module
    docstring).  So lam = -L_{z1 zb1} / g[0][0](0), and one pass over the
    mixed terms of L and phi through degree ``m.valid`` decides; L is
    needed only through ``m.valid``, and no Ricci jet is built.  Ricci is
    valid only through ``m.valid - 2``, so a metric valid below degree 2
    does not determine lam.  A metric built from g alone, with no phi,
    raises KahlapError.
    """
    if m.phi is None:
        raise KahlapError("Einstein data reads the potential: build the metric by metric_from_potential")
    if m.valid < 2:
        raise InsufficientOrderError(
            "validity exhausted: the jet no longer determines its value at 0"
        )
    big, phi = _log_det(m), m.phi
    shift = _SHIFT * m.dim
    low = (1 << shift) - 1
    g00 = m.g[0][0]
    lam = rat(-big._grades.get(2, {}).get(1 | 1 << shift, 0) * g00.den, big.den * g00._grades[0][0])
    # L + lam*phi as ints over big.den * lam.denominator * phi.den
    fl, fp = lam.denominator * phi.den, lam.numerator * big.den
    pairs = [(big._grades.get(d, {}), phi._grades.get(d, {})) for d in range(2, m.valid + 1)]
    is_e = not any(
        key & low and key >> shift and lb.get(key, 0) * fl + pb.get(key, 0) * fp
        for lb, pb in pairs
        for key in lb.keys() | pb.keys()
    )
    return EinsteinData(is_einstein=is_e, lam=lam, checked_degree=m.valid - 2)


# ----------------------------------------------------------------------
# normal coordinates


def normality_report(m: MetricJet) -> NormalityReport:
    """g(0) = I and all first-order metric coefficients vanish."""
    cells = [(i, j, e) for i, row in enumerate(m.g) for j, e in enumerate(row)]
    scaled = [
        f"g[{i + 1}][{j + 1}](0) != {int(i == j)}"
        for i, j, e in cells
        if e.constant_term() != int(i == j)
    ]
    tilted = [f"g[{i + 1}][{j + 1}] has degree-1 terms" for i, j, e in cells if e._grades.get(1)]
    return NormalityReport(
        ok=not (scaled or tilted),
        identity_at_origin=not scaled,
        first_order_vanishes=not tilted,
        offenders=tuple(scaled + tilted),
    )


# ----------------------------------------------------------------------
# the trace identity at the origin


@record
class TraceIdentity:
    """S[i][j] = sum_h d_h dbar_h g_inv[i][j] at 0, compared with lam*I."""

    matrix: tuple[tuple[object, ...], ...]
    lam: object
    is_einstein: bool
    passed: bool


def inverse_metric_second_trace(m: MetricJet) -> tuple[tuple[object, ...], ...]:
    """The matrix S[i][j] = sum_h d_h dbar_h g_inv[i][j] evaluated at 0,
    read off the terms of degree 2 of g_inv: d_h dbar_h X(0) is the
    numerator of z_h zb_h over ``X.den``.  An entry valid below degree 2
    does not determine them."""
    n = m.dim
    x = m.inverse(2)
    if any(e._veff < 2 for row in x for e in row):
        raise InsufficientOrderError(
            "validity exhausted: the jet no longer determines its value at 0"
        )
    keys = [1 << _SHIFT * h | 1 << _SHIFT * (n + h) for h in range(n)]
    return tuple(
        tuple(rat(sum(e._grades.get(2, {}).get(k, 0) for k in keys), e.den) for e in row)
        for row in x
    )


def trace_identity_check(m: MetricJet) -> TraceIdentity:
    """Passes iff the metric is Einstein and S equals lam * identity."""
    s = inverse_metric_second_trace(m)
    e = m.einstein
    ok = e.is_einstein and all(
        s[i][j] == (e.lam if i == j else 0)
        for i in range(m.dim)
        for j in range(m.dim)
    )
    return TraceIdentity(matrix=s, lam=e.lam, is_einstein=e.is_einstein, passed=ok)
