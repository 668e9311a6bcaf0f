"""Kahler metric jets: inverse, log determinant, Ricci and Einstein data.

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

Ricci is computed two ways: from -d dbar log det(g), with log det(g) read
off the series inverse by Jacobi's formula, and from the curvature-style
contraction of metric derivatives.  Tests check the inverse against Newton
iteration and log det(g) against a pivoted series determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .jets import (
    _INF,
    _MASK,
    _SHIFT,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _mul_capped,
    _unpack,
)
from .rationals import ZERO, rat

Matrix = tuple[tuple[Jet, ...], ...]


class DegenerateMetricError(KahlapError):
    """Metric constant term singular or not positive definite."""


class NormalizationError(KahlapError):
    """Normal-coordinate reduction needs a non-rational linear change."""


# ----------------------------------------------------------------------
# rational constant matrices


def _eliminate(rows):
    """Gauss-Jordan on a rational matrix: (inverse, pivots).

    ``pivots[k]`` is the diagonal entry met at step k, before any row swap;
    the inverse is None when the matrix is singular.  Rows are swapped only
    past a zero pivot, so while every pivot is nonzero ``pivots[k]`` is the
    ratio of the leading principal minors of sizes k+1 and k, and all
    pivots are positive exactly when all leading principal minors are.
    """
    n = len(rows)
    aug = [[rat(rows[i][j]) for j in range(n)] + [rat(1 if k == i else 0) for k in range(n)] for i in range(n)]
    pivots = []
    for col in range(n):
        pivots.append(aug[col][col])
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None, pivots
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = rat(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], pivots


# ----------------------------------------------------------------------
# jet matrices


def mat_mul(a: Sequence[Sequence[Jet]], b: Sequence[Sequence[Jet]], cap: int) -> Matrix:
    """Matrix product with every jet product capped at degree ``cap``.

    Entries come back at the ambient order of ``a``'s entries so they mix
    freely with uncapped jets; their validity is bounded by ``cap``.  A
    product with a zero factor has no terms and is skipped, but its
    validity and exactness still bound the entry's.
    """
    n = len(a)
    m = len(b[0])
    inner = len(b)
    dim = a[0][0].dim
    ambient = a[0][0].order
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            # flags of the skipped products, as _mul_capped would set them:
            # a zero product drops no degree, so it is exact when both are
            veff, exact = _INF, True
            for k in range(inner):
                x, y = a[i][k], b[k][j]
                if x.is_zero or y.is_zero:
                    if not (x.exact and y.exact):
                        veff, exact = min(veff, x._veff, y._veff, cap), False
                    continue
                p = _mul_capped(x, y, cap).lifted(ambient)
                acc = p if acc is None else acc + p
            if acc is None:
                acc = Jet._raw(dim, ambient, veff, exact, {})
            elif not exact:
                acc = acc._flagged(min(acc._veff, veff), False)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def series_matrix_inverse(g: Matrix, target_valid: int) -> Matrix:
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

    The entries hold the degrees 0..``target_valid`` of the inverse (none
    above the order of g) and are flagged inexact, valid through
    ``target_valid`` or the validity of g, whichever is lower.
    """
    n = len(g)
    dim = g[0][0].dim
    order = g[0][0].order
    g0inv, _ = _eliminate([[entry.constant_term() for entry in row] for row in g])
    if g0inv is None:
        raise DegenerateMetricError("degenerate metric at origin")
    top = min(target_valid, order)
    q = math.lcm(*(c.denominator for row in g0inv for c in row))
    gd = math.lcm(*(entry.den for row in g for entry in row))
    s = q * gd
    n0 = [[int(c.numerator) * (q // int(c.denominator)) for c in row] for row in g0inv]
    # parts[e]: (k, l, numerators of (q Gd)^(e-1) Gd G_e[k][l]) where nonzero
    parts = [[] for _ in range(top + 1)]
    for k in range(n):
        for l in range(n):
            entry = g[k][l]
            f = gd // entry.den
            for e, bucket in entry._grades.items():
                if 1 <= e <= top:
                    sc = f * s ** (e - 1)
                    parts[e].append((k, l, {key: c * sc for key, c in bucket.items()}))
    # xs[d][i][j]: the numerators of N_d[i][j] by packed key
    xs = [[[{0: c} if c else {} for c in row] for row in n0]]
    for d in range(1, top + 1):
        # acc = sum_e (scaled G_e) N_{d-e}
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for e in range(1, d + 1):
            lower = xs[d - e]
            for k, l, gpart in parts[e]:
                for j, xpart in enumerate(lower[l]):
                    if not xpart:
                        continue
                    tgt = acc[k][j]
                    get = tgt.get
                    for kg, cg in gpart.items():
                        for kx, cx in xpart.items():
                            key = kg + kx
                            tgt[key] = get(key, 0) + cg * cx
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
    # every degree over the common denominator q^(top+1) Gd^top
    valid = min(target_valid, min(e._veff for row in g for e in row))
    den = q ** (top + 1) * gd**top
    lift = [s ** (top - d) for d in range(top + 1)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            grades = {
                d: {key: c * lift[d] for key, c in xd[i][j].items()}
                for d, xd in enumerate(xs)
                if xd[i][j]
            }
            row.append(Jet._reduced(dim, order, valid, False, grades, den))
        out.append(tuple(row))
    return tuple(out)


# ----------------------------------------------------------------------
# the metric object


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    The inverse is computed lazily (graded recurrence) and cached;
    ``valid`` bounds the degree through which g * g_inv equals the
    identity.  The Einstein data,
    the origin values of Laplacian powers of monomials (filled by the
    ``*_at_origin`` functions of :mod:`kahlap.laplacian`) and the weights
    of the expanded third-power formula (filled by
    :func:`kahlap.laplacian.third_power_rhs`) are cached the same way; each
    fill is deterministic.
    """

    __slots__ = (
        "dim", "order", "valid", "g",
        "_g_inv", "_einstein", "_origin_values", "_third_power_weights",
    )

    def __init__(self, g: Matrix):
        n = len(g)
        entry = g[0][0]
        self.dim = n
        self.order = entry.order
        self.valid = min(e._veff for row in g for e in row)
        self.valid = min(self.valid, self.order)
        self.g = g
        self._g_inv = None
        self._einstein = None
        self._origin_values = None
        self._third_power_weights = None
        for i in range(n):
            for j in range(i, n):
                if g[i][j].conj() != g[j][i]:
                    raise DegenerateMetricError(
                        f"metric not Hermitian: entry ({i + 1},{j + 1})"
                    )
        g0inv, pivots = _eliminate([[e.constant_term() for e in row] for row in g])
        if g0inv is None:
            raise DegenerateMetricError("degenerate metric at origin")
        # Sylvester's criterion; g(0) is symmetric by the Hermitian check above
        if not all(p > 0 for p in pivots):
            raise DegenerateMetricError("metric not positive definite at origin")

    @property
    def g_inv(self) -> Matrix:
        if self._g_inv is None:
            self._g_inv = series_matrix_inverse(self.g, self.valid)
        return self._g_inv

    @property
    def einstein(self) -> EinsteinData:
        if self._einstein is None:
            self._einstein = einstein_data(self)
        return self._einstein


def metric_from_potential(phi: Jet) -> MetricJet:
    """Mixed Hessian of a potential jet, as a MetricJet."""
    if phi._veff < 2:
        raise InsufficientOrderError(
            "potential must be valid at least to degree 2", required_order=2
        )
    n = phi.dim
    rows = (phi.diff_hol(i + 1) for i in range(n))
    return MetricJet(tuple(tuple(d.diff_anti(j + 1) for j in range(n)) for d in rows))


# ----------------------------------------------------------------------
# Ricci, two routes


def _log_det(m: MetricJet) -> Jet:
    """L = log det(g) - log det(g(0)) through degree ``m.valid``, from g_inv.

    Jacobi's formula with the Euler (total-degree) operator E reads
    E log det(g) = tr(g_inv E g); on homogeneous parts, with X = g_inv,
    L_d = (1/d) sum_{e=1..d} e tr(X_{d-e} G_e).  It runs on ints, graded as
    in :func:`series_matrix_inverse`: with Dx and Gd the lcms of the entry
    denominators of X and g and M = lcm(1..m.valid), every L_d is an int
    numerator over M Dx Gd.  L lives at order ``m.valid``, valid there, and
    is flagged exact only when zero, as ``log1`` flags the log of a constant.
    """
    n, top = m.dim, m.valid
    x = m.g_inv
    dx = math.lcm(*(e.den for row in x for e in row))
    gd = math.lcm(*(e.den for row in m.g for e in row))
    big = math.lcm(*range(1, top + 1))
    # parts[e]: (X[i][k] numerators by degree, numerators of Dx Gd G_e[k][i])
    parts = [[] for _ in range(top + 1)]
    for i in range(n):
        for k in range(n):
            xe, ge = x[i][k], m.g[k][i]
            if xe.is_zero:
                continue
            f = (dx // xe.den) * (gd // ge.den)
            for e, bucket in ge._grades.items():
                if 1 <= e <= top:
                    parts[e].append((xe._grades, {key: c * f for key, c in bucket.items()}))
    grades = {}
    for d in range(1, top + 1):
        tgt = {}
        get = tgt.get
        for e in range(1, d + 1):
            w = e * (big // d)
            for xgrades, gpart in parts[e]:
                xpart = xgrades.get(d - e)
                if not xpart:
                    continue
                for kg, cg in gpart.items():
                    cg *= w
                    for kx, cx in xpart.items():
                        key = kg + kx
                        tgt[key] = get(key, 0) + cg * cx
        tgt = {key: c for key, c in tgt.items() if c}
        if tgt:
            grades[d] = tgt
    return Jet._reduced(m.g[0][0].dim, top, top, not grades, grades, big * dx * gd)


def ricci(m: MetricJet) -> Matrix:
    """Ric[i][j] = -d_i dbar_j log det(g), valid through ``m.valid - 2``.

    log det(g) comes from the cached inverse by Jacobi's formula
    (:func:`_log_det`), only through ``m.valid``, and the entries come back
    at order ``m.valid``.  Trade-off: this route and
    :func:`ricci_contracted` both read ``m.g_inv``, so inside the engine the
    Einstein data is no longer independent of the series inverse.  That
    independence lives in the test oracles instead: Newton iteration for
    ``g_inv`` and the pivoted series determinant for log det(g).
    """
    logdet = _log_det(m)
    n = m.dim
    rows = (logdet.diff_hol(i + 1) for i in range(n))
    return tuple(tuple(-(d.diff_anti(j + 1)) for j in range(n)) for d in rows)


def ricci_contracted(m: MetricJet, cap: int | None = None) -> Matrix:
    """Ricci from the curvature-style contraction of metric derivatives:

        Ric[i][j] = sum_{a,b} X[a][b] * ( -d_b dbar_a g[i][j]
                    + sum_{c,d} X[c][d] * d_b g[i][c] * dbar_a g[d][j] )

    with X = g_inv.  It takes no logarithm, so it cross-checks Jacobi's
    formula in :func:`ricci`; products are capped at ``cap`` when given
    (the comparison degree), which keeps the n^2 matrix products cheap.
    """
    n = m.dim
    cap = m.order if cap is None else cap
    x = m.g_inv
    da_g = [
        tuple(tuple(m.g[i][c].diff_hol(b + 1) for c in range(n)) for i in range(n))
        for b in range(n)
    ]
    db_g = [
        tuple(tuple(m.g[d][j].diff_anti(a + 1) for j in range(n)) for d in range(n))
        for a in range(n)
    ]
    #   P_b = (d_b g) X ;  Q_ab = P_b (dbar_a g)
    p = [mat_mul(da_g[b], x, cap) for b in range(n)]
    ambient = m.order
    acc = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            q = mat_mul(p[b], db_g[a], cap)
            hess = tuple(
                tuple(m.g[i][j].diff_hol(b + 1).diff_anti(a + 1) for j in range(n))
                for i in range(n)
            )
            for i in range(n):
                for j in range(n):
                    term = _mul_capped(x[a][b], q[i][j] - hess[i][j], cap)
                    term = term.lifted(ambient)
                    acc[i][j] = term if acc[i][j] is None else acc[i][j] + term
    return tuple(tuple(row) for row in acc)


def matrices_agree(a: Matrix, b: Matrix, through: int | None = None) -> bool:
    return all(
        ea.agrees(eb, through) for ra, rb in zip(a, b) for ea, eb in zip(ra, rb)
    )


def einstein_data(m: MetricJet) -> EinsteinData:
    """Proportionality test Ric = lam*g through the common valid degree.

    The checked degree ``m.valid - 2`` needs log det(g) only through
    ``m.valid``, where :func:`ricci` stops its series work.  Ricci
    entries live at order ``m.valid``, not ``m.order``, so they are compared
    with lam*g coefficient by coefficient instead of subtracted.
    """
    ric = ricci(m)
    lam = ric[0][0].eval0() / m.g[0][0].eval0()
    checked = min(m.valid - 2, m.order)
    is_e = all(
        ric[i][j].agrees(m.g[i][j].scale(lam), checked)
        for i in range(m.dim)
        for j in range(m.dim)
    )
    return EinsteinData(is_einstein=is_e, lam=lam, checked_degree=checked)


# ----------------------------------------------------------------------
# normal coordinates


def normality_report(m: MetricJet) -> NormalityReport:
    """g(0) = I and all first-order metric coefficients vanish."""
    n = m.dim
    offenders = []
    id_ok = True
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            if m.g[i][j].constant_term() != want:
                id_ok = False
                offenders.append(f"g[{i + 1}][{j + 1}](0) != {want}")
    first_ok = True
    for i in range(n):
        for j in range(n):
            if m.g[i][j]._grades.get(1):
                first_ok = False
                offenders.append(f"g[{i + 1}][{j + 1}] has degree-1 terms")
    return NormalityReport(
        ok=id_ok and first_ok,
        identity_at_origin=id_ok,
        first_order_vanishes=first_ok,
        offenders=tuple(offenders),
    )


def in_normal_coordinates(m: MetricJet) -> bool:
    return normality_report(m).ok


def pullback(phi: Jet, components: Sequence[Jet]) -> Jet:
    """Compose phi with a holomorphic polynomial map.

    ``components[i]`` is the jet (over the source variables) substituted for
    z_{i+1}; conjugate components are substituted for zb_{i+1}.  All
    components must have zero constant term so the composition is again a
    jet around the origin.  Each term of phi is the capped product of cached
    component powers, added as ints into one sum.  A term with a zero
    component adds nothing, so when every component is exact it is skipped
    once the sum is already inexact: its flags could change nothing then.
    """
    from .jets import ConstantTermError, DimensionMismatchError

    if len(components) != phi.dim:
        raise DimensionMismatchError(
            f"need {phi.dim} components, got {len(components)}"
        )
    order = components[0].order
    src_dim = components[0].dim
    for comp in components:
        if comp.dim != src_dim or comp.order != order:
            raise DimensionMismatchError("components must share dim and order")
        if comp.constant_term() != 0:
            raise ConstantTermError("embedding components must vanish at 0")
    bases = list(components) + [c.conj() for c in components]
    pow_cache: dict[tuple[int, int], Jet] = {}

    def power(slot: int, e: int) -> Jet:
        got = pow_cache.get((slot, e))
        if got is None:
            prev = Jet.one(src_dim, order) if e == 1 else power(slot, e - 1)
            got = _mul_capped(prev, bases[slot], order)
            pow_cache[(slot, e)] = got
        return got

    # the sum of the term products as numerators over den * phi.den; its flags
    acc: dict[int, dict[int, int]] = {}
    den, veff, exact = 1, _INF, phi.exact
    # packed-key mask of the slots of zero components, when all are exact
    zeros = 0
    if all(c.exact for c in components):
        zeros = sum(_MASK << (_SHIFT * s) for s, b in enumerate(bases) if b.is_zero)
    limit = min(phi._veff, phi.order)
    for d, bucket in phi._grades.items():
        if d > limit:
            continue
        for key, c in bucket.items():
            if key & zeros and not exact:
                continue
            factors = [power(slot, e) for slot, e in enumerate(_unpack(key, 2 * phi.dim)) if e]
            prod = factors[0] if factors else Jet.one(src_dim, order)
            for p in factors[1:]:
                prod = _mul_capped(prod, p, order)
            veff, exact = min(veff, prod._veff), exact and prod.exact
            new_den = math.lcm(den, prod.den)
            if new_den != den:
                lift = new_den // den
                acc = {g: {k: v * lift for k, v in b.items()} for g, b in acc.items()}
                den = new_den
            f = c * (den // prod.den)
            for g, b in prod._grades.items():
                tgt = acc.setdefault(g, {})
                get = tgt.get
                for k, v in b.items():
                    tgt[k] = get(k, 0) + f * v
    grades = {g: {k: v for k, v in b.items() if v} for g, b in acc.items()}
    grades = {g: b for g, b in grades.items() if b}
    valid = min(limit, veff, order)
    return Jet._reduced(src_dim, order, valid, exact, grades, den * phi.den)


def to_normal_coordinates(phi: Jet) -> Jet:
    """Quadratic coordinate correction that kills first metric derivatives.

    Requires g(0) = I exactly over the rationals: a linear normalization
    would in general need irrational scalings, which exact mode refuses.
    The substitution is w_j -> w_j + (1/2) A[j][k][l] w_k w_l with
    A[j][k][l] = -d g[l][j] / dz_k at 0.
    """
    m = metric_from_potential(phi)
    n = phi.dim
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            if m.g[i][j].constant_term() != want:
                raise NormalizationError(
                    "requires irrational linear normalization: g(0) != I"
                )
    order = phi.order
    components = []
    for j in range(n):
        comp = Jet.variable(n, order, j + 1)
        quad = Jet.zero(n, order)
        for k in range(n):
            for l in range(n):
                a_jkl = -(m.g[l][j].diff_hol(k + 1).eval0())
                if a_jkl != 0:
                    wk = Jet.variable(n, order, k + 1)
                    wl = Jet.variable(n, order, l + 1)
                    quad = quad + (wk * wl).scale(rat(1, 2) * a_jkl)
        components.append(comp + quad)
    corrected = pullback(phi, components)
    if corrected._veff >= 3:
        check = normality_report(metric_from_potential(corrected))
        if not check.ok:
            raise KahlapError(
                f"normal-coordinate correction failed: {check.offenders}"
            )
    return corrected


# ----------------------------------------------------------------------
# the trace identity at the origin


@dataclass(frozen=True)
class TraceIdentity:
    """S[i][j] = sum_h d_h dbar_h g_inv[i][j] at 0, compared with lam*I."""

    matrix: tuple[tuple[object, ...], ...]
    lam: object
    is_einstein: bool
    passed: bool


def inverse_metric_second_trace(m: MetricJet) -> tuple[tuple[object, ...], ...]:
    """The matrix S[i][j] = sum_h d_h dbar_h g_inv[i][j] evaluated at 0."""
    n = m.dim
    x = m.g_inv
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for h in range(n):
                acc += x[i][j].diff_hol(h + 1).diff_anti(h + 1).eval0()
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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
