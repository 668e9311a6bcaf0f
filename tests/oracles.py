"""Whole-jet oracles that the engine does not run: the tests check the
engine's origin values, its metric and its Einstein data against them.

- :func:`kahler_laplacian` and :func:`euclidean_laplacian` apply the
  operators to a whole jet; iterating them and reading each result at 0 is
  the reference for the memoised origin recursion of
  :mod:`kahlap.laplacian`, and ``kahler_laplacian`` pins the transposition
  convention of ``g_inv`` (README, "Conventions").
- :func:`metric_by_derivatives` builds the metric by n + n^2 whole-jet
  derivatives of the potential and tests it Hermitian entry by entry;
  :func:`ricci` is -d dbar log det(g) as a matrix of jets and
  :func:`einstein_by_ricci` compares it with lam*g entry by entry;
  :func:`rational_eliminate` is Gauss-Jordan on rationals.  They are the
  routes that :func:`kahlap.geometry.metric_from_potential`,
  :func:`kahlap.geometry.einstein_data` and the fraction-free
  ``geometry._eliminate`` replaced.
- :func:`ricci_contracted` computes Ricci from the curvature-style
  contraction of metric derivatives, with no logarithm, against
  :func:`ricci`.
- :func:`log_det_potential_by_jets` builds the log-det catalog potentials
  (``fs``, ``hyp``, ``polydisc``, ``type1``, ``type1dual``, ``type3``) by
  ``Jet`` arithmetic, ``log1`` on |z|^2 or the trace series of
  :func:`trace_log_potential`, against the int power sums of
  :func:`kahlap.catalog._log_det_potential`;
  :func:`product_potential_by_terms` builds a ``product`` potential from
  its factors' (BiIndex, coefficient) terms, the route that the packed-key
  remap of :func:`kahlap.catalog._raw_potential` replaced.

- :func:`diff_hol`, :func:`diff_anti`, :func:`eval0` and :func:`inv1` are
  the whole-jet derivatives, origin value and inverse series that the
  oracles here are written in; the engine reads origin values off packed
  keys instead.  :func:`third_power_check` applies the expanded third-power
  identity to any test jet, the reference for the keyed rows of
  :func:`kahlap.laplacian.third_power_checks`, and
  :func:`hyperbolic_profile`, :func:`fubini_study_profile` and
  :func:`flat_profile` are the named profiles F of :mod:`kahlap.radial`.

- :func:`newton_inverse` is the series inverse by Newton iteration,
  :func:`series_determinant` the pivoted determinant and
  :func:`dense_third_power_weights` the n^4 sum of origin derivatives
  (:func:`deriv_at0`): the routes that the graded inverse, Jacobi's formula
  for log det(g) and the per-term pass of
  ``laplacian._third_power_weights`` replaced.

The Laplacians and the contraction read the whole series inverse,
``m.inverse(m.valid)``.  :func:`claims_hold` is the validity-soundness
comparison: what a jet claims against the same quantity recomputed from
longer inputs.

The helpers at the end have only test callers, so they live here and not
in the package: :func:`pullback` (composition with a holomorphic
polynomial map: the reference for the slot restriction
``kahlap.catalog._diagonal_restriction``, and the coordinate change of the
metamorphic tests), :func:`to_normal_coordinates` (the quadratic change to
normal coordinates), :func:`restrict` (set variables to zero),
:func:`diagonal_components` (the diagonal embedding of a polydisc in a
matrix domain, as :func:`pullback` reads it), the fixture text form
:func:`to_text`/:func:`from_text`, and :func:`gate_status` (a catalog
entry's gate without raising).
"""

import itertools
import math
from typing import Sequence

from kahlap.catalog import (
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    TypeI,
    TypeIDual,
    TypeIII,
    matrix_slots,
    potential,
)
from kahlap.geometry import (
    DegenerateMetricError,
    EinsteinData,
    MetricJet,
    _log_det,
    metric_from_potential,
    normality_report,
)
from kahlap.jets import (
    _INF,
    _MASK,
    _SHIFT,
    BiIndex,
    ConstantTermError,
    DimensionMismatchError,
    IndexRangeError,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _mac,
    _mul_capped,
    _pack,
    _unpack,
    substitute,
)
from kahlap.laplacian import PowerIdentity, power_at_origin, third_power_rhs
from kahlap.rationals import ZERO, rat, rat_from_str, rat_str


# ----------------------------------------------------------------------
# whole-jet calculus


def _diff(jet: Jet, i: int, slot_offset: int) -> Jet:
    if not 1 <= i <= jet.dim:
        raise IndexRangeError(f"variable index {i} outside 1..{jet.dim}")
    pos = slot_offset + (i - 1)
    shift = _SHIFT * pos
    grades: dict[int, dict[int, int]] = {}
    for d, bucket in jet._grades.items():
        for key, c in bucket.items():
            e = (key >> shift) & _MASK
            if not e:
                continue
            grades.setdefault(d - 1, {})[key - (1 << shift)] = c * e
    valid = jet.valid if jet.exact else max(jet.valid - 1, -1)
    return Jet._reduced(jet.dim, jet.order, valid, jet.exact, grades, jet.den)


def diff_hol(jet: Jet, i: int) -> Jet:
    """Formal d/dz_i; validity drops by one unless the jet is exact."""
    return _diff(jet, i, 0)


def diff_anti(jet: Jet, i: int) -> Jet:
    """Formal d/dzb_i; validity drops by one unless the jet is exact."""
    return _diff(jet, i, jet.dim)


def eval0(jet: Jet):
    """Constant coefficient; errors when validity is exhausted."""
    if jet._veff < 0:
        raise InsufficientOrderError(
            "validity exhausted: the jet no longer determines its value at 0"
        )
    return jet.constant_term()


def inv1(jet: Jet) -> Jet:
    """Multiplicative inverse of a jet with nonzero constant term."""
    c0 = jet.constant_term()
    if c0 == 0:
        raise ConstantTermError("inv1 requires a nonzero constant term")
    u = jet.scale(rat(1) / c0) - Jet.one(jet.dim, jet.order)
    coeffs = [rat((-1) ** m) / c0 for m in range(jet.order + 1)]
    return substitute(coeffs, u, exact=False)


def third_power_check(m: MetricJet, phi: Jet) -> PowerIdentity:
    """Direct Lap^3 phi(0) against the expanded right-hand side, for any
    test function phi: the reference the keyed rows of
    :func:`kahlap.laplacian.third_power_checks` are tested against."""
    return PowerIdentity(
        lhs=power_at_origin(m, phi, 3), rhs=third_power_rhs(m, phi)
    )


def hyperbolic_profile(kmax: int) -> list:
    """f_m = 1/m: the truncation of -log(1 - t), hyp:n in every n."""
    return [ZERO] + [rat(1, m) for m in range(1, kmax + 1)]


def fubini_study_profile(kmax: int) -> list:
    """f_m = (-1)^(m+1)/m: the truncation of log(1 + t), fs:n in every n."""
    return [ZERO] + [rat((-1) ** (m + 1), m) for m in range(1, kmax + 1)]


def flat_profile() -> list:
    """F(t) = t."""
    return [ZERO, rat(1)]


# ----------------------------------------------------------------------
# the metric, Ricci and elimination routes the engine replaced


def rational_eliminate(rows):
    """Gauss-Jordan on a rational matrix: (inverse, pivots).

    ``pivots[k]`` is the diagonal entry met at step k, before any row swap;
    a singular matrix raises DegenerateMetricError.  Rows are swapped only
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
            raise DegenerateMetricError("degenerate metric at origin")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = rat(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], pivots


def metric_by_derivatives(phi: Jet) -> MetricJet:
    """Mixed Hessian of a potential jet, as a MetricJet: n + n^2 whole-jet
    derivatives, then the entrywise Hermitian test, row-major over i <= j."""
    if phi._veff < 2:
        raise InsufficientOrderError(
            "potential must be valid at least to degree 2", required_order=2
        )
    n = phi.dim
    rows = (diff_hol(phi, i + 1) for i in range(n))
    g = tuple(tuple(diff_anti(d, j + 1) for j in range(n)) for d in rows)
    for i in range(n):
        for j in range(i, n):
            if g[i][j].conj() != g[j][i]:
                raise DegenerateMetricError(
                    f"metric not Hermitian: entry ({i + 1},{j + 1})"
                )
    return MetricJet(g)


def ricci(m):
    """Ric[i][j] = -d_i dbar_j log det(g), valid through ``m.valid - 2``.

    log det(g) comes from the cached inverse by Jacobi's formula
    (:func:`kahlap.geometry._log_det`), only through ``m.valid``, and the
    entries come back at order ``m.valid``.
    """
    logdet = _log_det(m)
    n = m.dim
    rows = (diff_hol(logdet, i + 1) for i in range(n))
    return tuple(tuple(-(diff_anti(d, j + 1)) for j in range(n)) for d in rows)


def einstein_by_ricci(m) -> EinsteinData:
    """Proportionality test Ric = lam*g through the common valid degree,
    on the jets of :func:`ricci`.

    The checked degree ``m.valid - 2`` needs log det(g) only through
    ``m.valid``, where :func:`ricci` stops its series work.  Ricci
    entries live at order ``m.valid``, not ``m.order``, so they are compared
    with lam*g coefficient by coefficient instead of subtracted.
    """
    ric = ricci(m)
    lam = eval0(ric[0][0]) / eval0(m.g[0][0])
    checked = min(m.valid - 2, m.order)
    is_e = all(
        ric[i][j].agrees(m.g[i][j].scale(lam), checked)
        for i in range(m.dim)
        for j in range(m.dim)
    )
    return EinsteinData(is_einstein=is_e, lam=lam, checked_degree=checked)


# ----------------------------------------------------------------------
# whole-jet Laplacians and the contraction route of Ricci


def mat_mul(a, b, cap: int):
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


def ricci_contracted(m, cap: int | None = None):
    """Ricci from the curvature-style contraction of metric derivatives:

        Ric[i][j] = sum_{a,b} X[a][b] * ( -d_b dbar_a g[i][j]
                    + sum_{c,d} X[c][d] * d_b g[i][c] * dbar_a g[d][j] )

    with X = g_inv.  It takes no logarithm, so it cross-checks Jacobi's
    formula in :func:`ricci`; products are capped at
    ``cap`` when given (the comparison degree), which keeps the n^2 matrix
    products cheap.
    """
    n = m.dim
    cap = m.order if cap is None else cap
    x = m.inverse(m.valid)
    da_g = [
        tuple(tuple(diff_hol(m.g[i][c], b + 1) for c in range(n)) for i in range(n))
        for b in range(n)
    ]
    db_g = [
        tuple(tuple(diff_anti(m.g[d][j], a + 1) for j in range(n)) for d in range(n))
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
                tuple(diff_anti(diff_hol(m.g[i][j], b + 1), a + 1) for j in range(n))
                for i in range(n)
            )
            for i in range(n):
                for j in range(n):
                    term = _mul_capped(x[a][b], q[i][j] - hess[i][j], cap)
                    term = term.lifted(ambient)
                    acc[i][j] = term if acc[i][j] is None else acc[i][j] + term
    return tuple(tuple(row) for row in acc)


def matrices_agree(a, b, through: int | None = None) -> bool:
    return all(
        ea.agrees(eb, through) for ra, rb in zip(a, b) for ea, eb in zip(ra, rb)
    )


def euclidean_laplacian(phi: Jet) -> Jet:
    """sum_i d^2 phi / dz_i dzb_i."""
    acc = None
    for i in range(1, phi.dim + 1):
        term = diff_anti(diff_hol(phi, i), i)
        acc = term if acc is None else acc + term
    return acc


def kahler_laplacian(m, phi: Jet) -> Jet:
    """sum_{a,b} g_inv[a][b] * d^2 phi / dz_b dzb_a.

    Result validity is min(metric valid, phi valid - 2).
    """
    if phi.dim != m.dim:
        raise DimensionMismatchError(
            f"metric dimension {m.dim} vs jet dimension {phi.dim}"
        )
    x = m.inverse(m.valid)
    acc = None
    for a in range(m.dim):
        for b in range(m.dim):
            hess = diff_anti(diff_hol(phi, b + 1), a + 1)
            if hess.is_zero and acc is not None:
                continue
            term = _mul_capped(x[a][b], hess, phi.order)
            acc = term if acc is None else acc + term
    return acc


def claims_hold(jet, wider) -> bool:
    """Every coefficient that ``jet`` claims -- all of them when it is
    exact, else those through ``jet.valid`` -- equals the coefficient of
    ``wider``, the same quantity recomputed from longer inputs, at
    every degree ``wider`` itself claims."""
    limit = min(wider._veff, wider.order)
    if not jet.exact:
        limit = min(limit, jet.valid)
    for d in range(limit + 1):
        got = {k: rat(c, jet.den) for k, c in jet._grades.get(d, {}).items()}
        want = {k: rat(c, wider.den) for k, c in wider._grades.get(d, {}).items()}
        if got != want:
            return False
    return True


# ----------------------------------------------------------------------
# the inverse, determinant and third-power routes the engine replaced


def newton_inverse(g, target_valid):
    """The series inverse by Newton iteration X <- X(2I - GX), each step
    doubling the correct degree with all products capped at its target:
    the route the graded recurrence replaced, kept here as its oracle."""
    n, dim, order = len(g), g[0][0].dim, g[0][0].order
    g0 = [[e.constant_term() for e in row] for row in g]
    g0inv, _ = rational_eliminate(g0)
    x = tuple(tuple(Jet.constant(dim, order, c) for c in row) for row in g0inv)
    two_i = tuple(
        tuple(Jet.constant(dim, order, 2 if i == j else 0) for j in range(n))
        for i in range(n)
    )
    v = 0
    while v < target_valid:
        v = min(2 * v + 1, target_valid)
        gx = mat_mul(g, x, v)
        corr = tuple(tuple(two_i[i][j] - gx[i][j] for j in range(n)) for i in range(n))
        x = mat_mul(x, corr, v)
    valid = min(target_valid, min(e._veff for row in g for e in row))
    return tuple(tuple(e._flagged(valid, False) for e in row) for row in x)


def series_determinant(mat):
    """Determinant by pivoted elimination with exact series division: the
    route Jacobi's formula replaced in the engine, kept here as its oracle.

    Pivots need a nonzero constant coefficient; for metric matrices g(0) is
    invertible, so a suitable pivot always exists after row swaps.
    """
    n = len(mat)
    dim = mat[0][0].dim
    order = mat[0][0].order
    work = [list(row) for row in mat]
    sign = 1
    det = Jet.one(dim, order)
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k].constant_term() != 0), None)
        if piv is None:
            return Jet.zero(dim, order)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        pivot = work[k][k]
        det = _mul_capped(det, pivot, order)
        pinv = inv1(pivot)
        for i in range(k + 1, n):
            if work[i][k].is_zero:
                continue
            factor = _mul_capped(work[i][k], pinv, order)
            for j in range(k, n):
                work[i][j] = work[i][j] - _mul_capped(factor, work[k][j], order)
    return det if sign == 1 else -det


def deriv_at0(jet: Jet, alpha, beta):
    """d^alpha dbar^beta jet at 0 = coefficient times factorials."""
    c = jet.coefficient(BiIndex(tuple(alpha), tuple(beta)))
    return c * math.prod(map(math.factorial, (*alpha, *beta)))


def _units(n, *indices):
    """Exponent vector of length n counting how often each slot is listed."""
    return tuple(indices.count(k) for k in range(n))


def dense_third_power_weights(m):
    """The g_inv part of third_power_rhs by the n^4 sum over (i, j, l, h)
    of origin-derivative lookups, as written before the per-term pass."""
    n = m.dim
    x = m.inverse(m.valid)
    zero = (0,) * n
    weights = {}
    for i, j, l, h in itertools.product(range(n), repeat=4):
        xij = x[i][j]
        for mult, c, alpha, beta in (
            (2, deriv_at0(xij, _units(n, l), _units(n, h)),
             _units(n, j, h), _units(n, l, i)),
            (1, deriv_at0(xij, _units(n, l, h), zero),
             _units(n, j), _units(n, h, l, i)),
            (1, deriv_at0(xij, zero, _units(n, l, h)),
             _units(n, j, h, l), _units(n, i)),
            (1, deriv_at0(xij, _units(n, l, h), _units(n, l, h)),
             _units(n, j), _units(n, i)),
        ):
            if c != 0:
                exps = alpha + beta
                f = math.prod(map(math.factorial, exps))
                key = _pack(exps)
                weights[key] = weights.get(key, 0) + mult * c * f
    return {key: w for key, w in weights.items() if w != 0}


# ----------------------------------------------------------------------
# the log-det catalog potentials by Jet arithmetic


def matrix_of_variables(p, q, order):
    """p x q matrix of coordinate jets in dim p*q, diagonal-first ordering."""
    slots = matrix_slots(p, q)
    n = p * q
    index = {slot: k + 1 for k, slot in enumerate(slots)}
    z = [[Jet.variable(n, order, index[(i, j)]) for j in range(q)] for i in range(p)]
    return z, index


def symmetric_matrix_of_variables(m, order):
    """Symmetric m x m matrix of coordinate jets, diagonal-first ordering."""
    slots = [(i, i) for i in range(m)]
    slots += [(i, j) for i in range(m) for j in range(i + 1, m)]
    n = m * (m + 1) // 2
    index = {slot: k + 1 for k, slot in enumerate(slots)}
    z = [
        [
            Jet.variable(n, order, index[(min(i, j), max(i, j))])
            for j in range(m)
        ]
        for i in range(m)
    ]
    return z


def trace_log_potential(z_rows, order, signs=False) -> Jet:
    """sum_m tr((Z Z*)^m)/m, alternating when ``signs`` (log det(I +- ZZ*)).

    Z* is the conjugate transpose, entries being the conjugate jets.
    """
    p = len(z_rows)
    q = len(z_rows[0])
    n = z_rows[0][0].dim
    zstar = [[z_rows[i][j].conj() for i in range(p)] for j in range(q)]  # q x p
    zz = [
        [
            sum(
                (_mul_capped(z_rows[i][c], zstar[c][j], order) for c in range(q)),
                Jet.zero(n, order),
            )
            for j in range(p)
        ]
        for i in range(p)
    ]
    phi = Jet.zero(n, order)
    power = zz
    mmax = order // 2 if order >= 2 else 0
    for m in range(1, mmax + 1):
        if m > 1:
            power = [
                [
                    sum(
                        (_mul_capped(power[i][c], zz[c][j], order) for c in range(p)),
                        Jet.zero(n, order),
                    )
                    for j in range(p)
                ]
                for i in range(p)
            ]
        trace = sum((power[i][i] for i in range(p)), Jet.zero(n, order))
        c = rat((-1) ** (m + 1), m) if signs else rat(1, m)
        phi = phi + trace.scale(c)
    # truncation of a log series: valid to order, not exact
    return phi._flagged(order, False)


def log_det_potential_by_jets(spec, order: int) -> Jet:
    """The unreduced potential of a log-det catalog entry, as the catalog
    built it by Jet arithmetic: ``log1`` of 1 +- |z|^2 for ``fs``/``hyp``,
    one ``log1`` per disc for ``polydisc``, :func:`trace_log_potential` for
    the matrix domains."""
    match spec:
        case FubiniStudy(n=n):
            s = Jet.abs_square_sum(n, order)
            return (Jet.one(n, order) + s).log1()
        case Hyperbolic(n=n):
            s = Jet.abs_square_sum(n, order)
            return -((Jet.one(n, order) - s).log1())
        case Polydisc(r=r):
            phi = Jet.zero(r, order)
            one = Jet.one(r, order)
            for j in range(1, r + 1):
                zj = Jet.variable(r, order, j)
                tj = zj * zj.conj()
                phi = phi + (-((one - tj).log1()))
            return phi
        case TypeI(p=p, q=q):
            z, _ = matrix_of_variables(p, q, order)
            return trace_log_potential(z, order, signs=False)
        case TypeIDual(p=p, q=q):
            z, _ = matrix_of_variables(p, q, order)
            return trace_log_potential(z, order, signs=True)
        case TypeIII(m=m):
            z = symmetric_matrix_of_variables(m, order)
            return trace_log_potential(z, order, signs=False)
    raise ValueError(f"not a log-det catalog entry: {spec!r}")


# ----------------------------------------------------------------------
# helpers with only test callers


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
    pow_cache = {}

    def power(slot, e):
        got = pow_cache.get((slot, e))
        if got is None:
            prev = Jet.one(src_dim, order) if e == 1 else power(slot, e - 1)
            got = _mul_capped(prev, bases[slot], order)
            pow_cache[(slot, e)] = got
        return got

    # the sum of the term products as numerators over den * phi.den; its flags
    acc = {}
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
            for g, b in prod._grades.items():
                _mac(acc.setdefault(g, {}), {0: c * (den // prod.den)}, b)
    grades = {g: nz for g, b in acc.items() if (nz := {k: v for k, v in b.items() if v})}
    valid = min(limit, veff, order)
    return Jet._reduced(src_dim, order, valid, exact, grades, den * phi.den)


class NormalizationError(KahlapError):
    """Normal-coordinate reduction needs a non-rational linear change."""


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
                a_jkl = -eval0(diff_hol(m.g[l][j], k + 1))
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


def restrict(phi: Jet, keep) -> Jet:
    """Set all variables outside ``keep`` (1-based) to zero and reindex."""
    keep = sorted(set(keep))
    if any(not 1 <= i <= phi.dim for i in keep):
        raise IndexRangeError(f"keep set {keep} outside 1..{phi.dim}")
    if not keep:
        raise IndexRangeError("keep set must be nonempty")
    kept_slots = [i - 1 for i in keep] + [phi.dim + i - 1 for i in keep]
    dropped = sorted(set(range(2 * phi.dim)) - set(kept_slots))
    grades: dict[int, dict[int, int]] = {}
    for d, bucket in phi._grades.items():
        for key, c in bucket.items():
            if any((key >> (_SHIFT * pos)) & _MASK for pos in dropped):
                continue
            new_key = 0
            for new_pos, pos in enumerate(kept_slots):
                new_key |= ((key >> (_SHIFT * pos)) & _MASK) << (_SHIFT * new_pos)
            grades.setdefault(d, {})[new_key] = c
    return Jet._reduced(len(keep), phi.order, phi.valid, phi.exact, grades, phi.den)


def diagonal_components(p: int, q: int, order: int) -> list:
    """The diagonal embedding (z_1..z_r) -> diag(z_1..z_r), r = min(p, q),
    as one jet over r variables per coordinate of the p x q matrix domain:
    z_k for the diagonal coordinates k <= r, 0 for the rest."""
    r = min(p, q)
    return [Jet.variable(r, order, k + 1) if k < r else Jet.zero(r, order) for k in range(p * q)]


def to_text(phi: Jet) -> str:
    """Canonical fixture form: one "c  a1 .. an|b1 .. bn" line per term."""
    lines = []
    for bi, c in phi.terms():
        hol = " ".join(str(e) for e in bi.hol)
        anti = " ".join(str(e) for e in bi.anti)
        lines.append(f"{rat_str(c)}  {hol}|{anti}")
    return "\n".join(lines)


def from_text(dim, order, text: str) -> Jet:
    """The jet of :func:`to_text`'s form."""
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        coeff_part, exps = line.split(None, 1)
        hol_part, anti_part = exps.split("|")
        hol = tuple(int(t) for t in hol_part.split())
        anti = tuple(int(t) for t in anti_part.split())
        terms.append((BiIndex(hol, anti), rat_from_str(coeff_part)))
    return Jet(dim, order, terms)


def gate_status(spec, order: int = 6) -> tuple[bool, str]:
    """(accepted, message) of the catalog gate, without raising."""
    try:
        potential(spec, order)
        return True, "ok"
    except KahlapError as exc:
        return False, str(exc)


def product_potential_by_terms(spec, order: int) -> Jet:
    """The potential of a ``product`` spec as the catalog built it before
    it moved packed keys: each factor's (BiIndex, coefficient) terms padded
    with zero exponents to C^n, summed through ``Jet.__init__``, under the
    least validity of the two factors."""
    lphi, rphi = potential(spec.left, order), potential(spec.right, order)
    nl, nr = spec.left.dim, spec.right.dim
    lterms = [((bi.hol + (0,) * nr, bi.anti + (0,) * nr), c) for bi, c in lphi.terms()]
    rterms = [(((0,) * nl + bi.hol, (0,) * nl + bi.anti), c) for bi, c in rphi.terms()]
    out = Jet(nl + nr, order, lterms) + Jet(nl + nr, order, rterms)
    valid = min(phi.valid if not phi.exact else order for phi in (lphi, rphi))
    return out._flagged(valid, lphi.exact and rphi.exact)
