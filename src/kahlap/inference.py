"""Inference and refutation of the Laplacian power property.

At the chart center one asks whether Lap^k phi(0) = p_k(Lapc) phi(0) for a
monic degree-k polynomial p_k with zero constant term, for all smooth phi.
Over a finite family of monomial test functions each phi contributes one
exact linear equation in the unknown lower coefficients a_1..a_{k-1}:

    Lap^k phi(0) - Lapc^k phi(0) = sum_j a_j * Lapc^j phi(0).

A *Consistent* verdict therefore means "no refutation over the shipped
finite family" -- honest but not a proof.  Given the metric, the family is
built over the rows its torus can see (:func:`build_test_family`): every
other row reads 0 = 0, so dropping it changes no verdict, witness or p_k.
A *Refuted* verdict, by contrast, exhibits two test functions whose
equations admit no common solution, which is a proof that no polynomial
works.

A monomial's Euclidean moment vector has at most one nonzero entry
(Lapc^j (z^a zb^b)(0) = j! a! when a = b and |a| = j), so the family keeps
each row as its packed key and its moment class on ints: (j, j! a!) for a
balanced row, none for any other.  At order k a row with j < k fixes a_j
to Lap^k phi(0) / (j! a!); every other row is in the zero class, whose
right-hand side Lap^k phi(0) - Lapc^k phi(0) must vanish.  Two rows are
incompatible exactly when one is in the zero class with a nonzero
right-hand side, or both fix the same a_j to different values; one pass
over the int numerators of the value table finds the first such pair in
family order.  When there is none, each class fixes its coefficient and a
class without rows leaves it free; rows that read 0 = 0 fix nothing and
are skipped.  Rationals are built only for a witness pair, which is
re-validated independently (proportional moment vectors, read off the
rows' packed keys, and incompatible right-hand sides), and for the solved
p_k.  When every order is
consistent, each solved p_k is re-checked against every row of the value
table on ints, with the row's moment read off its packed key rather than
its class, so a fault in the scan, the solve or the moment classes cannot
stand as a consistent verdict.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

from . import catalog as cat
from . import radial
from .geometry import (
    MetricJet,
    normality_report,
    metric_from_potential,
    EinsteinData,
)
from .jets import (
    BiIndex,
    DimensionMismatchError,
    InsufficientOrderError,
    MAX_ORDER,
    Jet,
    KahlapError,
    _SHIFT,
    _unpack,
    record,
)
from .laplacian import (
    NotEinsteinError,
    inverse_metric_cross_hessian,
    monomial_powers_at_origin,
    _key_moment,
    torus_weights,
)
from .rationals import ZERO, rat, rat_pretty

CONSISTENT = "consistent"
REFUTED = "refuted"
UNDERDETERMINED = "underdetermined"


@record
class PowerPolynomial:
    """Monic polynomial of degree k with zero constant term.

    ``lower`` holds (a_1, ..., a_{k-1}); the X^k coefficient is 1 and the
    constant term 0 (the latter is forced by applying the defining identity
    to phi = 1).
    """

    degree: int
    lower: tuple

    def coefficient(self, j: int):
        if j == self.degree:
            return rat(1)
        if 1 <= j < self.degree:
            return self.lower[j - 1]
        return ZERO

    def text(self) -> str:
        parts = [f"X^{self.degree}" if self.degree > 1 else "X"]
        for j in range(self.degree - 1, 0, -1):
            a = self.coefficient(j)
            if a == 0:
                continue
            mono = "X" if j == 1 else f"X^{j}"
            sign = "-" if a < 0 else "+"
            mag = -a if a < 0 else a
            coeff = "" if mag == 1 else f"{rat_pretty(mag)}*"
            parts.append(f"{sign} {coeff}{mono}")
        return " ".join(parts)


class FamilyRow(NamedTuple):
    index: BiIndex
    moment_class: tuple | None  # (j, j! a!) for z^a zb^a, j = |a|


@record
class TestFamily:
    """Rows of the test family in family order: ``keys[i]`` packs the
    monomial z^alpha zb^beta as ``_pack(alpha) | _pack(beta) << _SHIFT *
    dim``, and ``classes[i]`` is its moment class, ``(j, j! a!)`` for a
    balanced row z^a zb^a with j = |a| (Lapc^j at its one nonzero slot),
    None for any other row."""

    dim: int
    keys: tuple
    classes: tuple

    def __len__(self):
        return len(self.keys)

    def index(self, pos: int) -> BiIndex:
        exps = _unpack(self.keys[pos], 2 * self.dim)
        return BiIndex(exps[: self.dim], exps[self.dim :])

    @cached_property
    def entries(self) -> tuple:
        """The rows as :class:`FamilyRow`, built on first read, for readers
        outside the engine; the engine reads ``keys`` and ``classes``."""
        return tuple(map(FamilyRow, map(self.index, range(len(self))), self.classes))


def build_test_family(n: int, k: int, m: MetricJet | None = None) -> TestFamily:
    """The monomials z^alpha zb^beta with |alpha|, |beta| <= k supported on
    at most min(n, 3) variables, in graded z1-major order: by total degree,
    then by alpha and by beta in descending lexicographic order.  Unbalanced
    monomials have Euclidean moments 0, so one whose Kahler power is nonzero
    refutes.

    Given the metric ``m``, only the rows its torus can see are built, in
    the same order: the balanced ones, and the unbalanced ones whose weight
    beta - alpha lies in the top reachable set of the memo at level k
    (:func:`laplacian.torus_weights`).  Every other row reads 0 at every
    level and has moment 0, so it reads 0 = 0: :func:`infer` skips it, it
    is in no witness and the re-check wants 0 of it.  Row 0, ``z1``, is
    kept, since a witness may pair it with a zero-class row.  The pairs are
    not visited: the antiholomorphic halves are grouped by degree and by
    their image under the kernel of the memo's steps, and a holomorphic half
    reads only the group of its own image."""
    if n < 1 or k < 1:
        raise KahlapError("family needs n >= 1 and k >= 1")
    reach, u = (None, [0] * n) if m is None else torus_weights(m, n, k)
    keys, classes = _monomials(n, k, u, reach, 3)
    if keys[:1] != [1]:
        keys.insert(0, 1)
        classes.insert(0, None)
    return TestFamily(dim=n, keys=tuple(keys), classes=tuple(classes))


def laplcube_rows(n: int) -> TestFamily:
    """The rows that ``reproduce laplcube`` checks: the rows of
    :func:`build_test_family` (n, 2) with |alpha| = |beta| supported on at
    most two variables (any two of the n, not just the first pair), in
    family order.  They are the rows the diagonal circle sees, the kernel
    (1, ..., 1), so no other row is visited."""
    keys, classes = _monomials(n, 2, [1] * n, None, 2)
    return TestFamily(dim=n, keys=tuple(keys), classes=tuple(classes))


def _monomials(n: int, k: int, u, reach, cap: int) -> tuple[list, list]:
    """Keys and moment classes, in family order, of the rows z^alpha zb^beta
    with |alpha|, |beta| <= k on at most ``cap`` variables, with
    u . alpha = u . beta for the int functional ``u`` and, unless ``reach``
    is None, alpha = beta or ``_pack(beta) - _pack(alpha)`` in ``reach``.
    The halves are grouped by image u . v and by degree, and each
    holomorphic half is paired only with the halves of its own image."""
    halves = _halves(n, k, u)
    groups = {}
    for half in halves:
        groups.setdefault(half[3], {}).setdefault(half[2], []).append(half)
    # per total degree, each holomorphic half with its antiholomorphic ones
    by_degree = [[] for _ in range(2 * k + 1)]
    for half in halves:
        for degree, antis in groups[half[3]].items():
            by_degree[half[2] + degree].append((half, antis))
    keys, classes = [], []
    shift = _SHIFT * n
    for pairs in by_degree[1:]:
        for (hol, mask, j, _, factorials), antis in pairs:
            for anti, anti_mask, _, _, _ in antis:
                if (mask | anti_mask).bit_count() <= cap and (
                    reach is None or anti == hol or anti - hol in reach
                ):
                    keys.append(hol | anti << shift)
                    classes.append((j, math.factorial(j) * factorials) if anti == hol else None)
    return keys, classes


def _halves(n: int, k: int, u) -> list:
    """``(packed v, support mask, |v|, u . v, v!)`` for every exponent
    vector v of length n with |v| <= k, in descending lexicographic order
    (z1-major).  Built from the last slot back: ``rows[r]`` holds the
    vectors over slots i..n-1 with sum at most r, those with v_i = e > 0
    first, e descending, then those with v_i = 0."""
    rows = [[(0, 0, 0, 0, 1)]] * (k + 1)
    for i in reversed(range(n)):
        rows = [
            [
                (half + (e << _SHIFT * i), mask | 1 << i, j + e, image + e * u[i],
                 factorials * math.factorial(e))
                for e in range(r, 0, -1)
                for half, mask, j, image, factorials in rows[r - e]
            ]
            + rows[r]
            for r in range(k + 1)
        ]
    return rows[k]


# ----------------------------------------------------------------------
# verdicts


@record
class WitnessRow:
    index: BiIndex
    kahler_value: object  # Lap^k phi(0)
    moments: tuple  # Lapc^j phi(0), j = 1..k

    @property
    def rhs(self):
        return self.kahler_value - self.moments[-1]


@record
class Witness:
    """Two test functions whose inference equations are incompatible."""

    k: int
    first: WitnessRow
    second: WitnessRow

    def validated(self) -> bool:
        """Independent soundness check: the two moment vectors (on the
        unknown coefficients) are proportional, the right-hand sides are
        not, so no coefficient vector satisfies both equations."""
        ma = self.first.moments[: self.k - 1]
        mb = self.second.moments[: self.k - 1]
        ya, yb = self.first.rhs, self.second.rhs
        if any(x != 0 for x in ma):
            pivot = next(i for i, x in enumerate(ma) if x != 0)
            c = mb[pivot] / ma[pivot]
            if any(mb[i] != c * ma[i] for i in range(len(ma))):
                return False
            return yb != c * ya
        if any(x != 0 for x in mb):
            return ya != 0
        return ya != 0 or yb != 0


@record
class Verdict:
    k: int
    status: str
    polynomial: PowerPolynomial | None = None
    witness: Witness | None = None
    free_indices: tuple = ()
    note: str = ""


def infer(
    m: MetricJet,
    k: int,
    family: TestFamily,
    kahler_values: Sequence | None = None,
    *,
    den=1,
) -> Verdict:
    """Solve the order-k inference problem over the family, exactly.

    ``kahler_values`` optionally supplies Lap^k phi(0) per family row as a
    value over ``den`` (the level-k numerators of
    :func:`kahler_value_table` over D^k); otherwise they are computed here.
    Raises DimensionMismatchError unless the family has the dimension of
    ``m``, and KahlapError unless there is one value per row.
    """
    if family.dim != m.dim:
        raise DimensionMismatchError(
            f"metric dimension {m.dim} vs family dimension {family.dim}"
        )
    if not normality_report(m).ok:
        raise KahlapError("inference requires normal coordinates at the origin")
    if kahler_values is None:
        d, levels = kahler_value_table(m, family, k)
        kahler_values, den = levels[k - 1], d**k
    if len(kahler_values) != len(family):
        raise KahlapError(
            f"{len(kahler_values)} Kahler values for {len(family)} family rows"
        )
    # (position, class, value, moment) per row that does not read 0 = 0: a
    # class-j row (j < k) fixes a_j = value / (moment * den); class None is
    # the zero class, whose value is its right-hand side times den
    rows = []
    for pos, (value, cls) in enumerate(zip(kahler_values, family.classes)):
        if cls is not None and cls[0] <= k:
            j, moment = cls
            if j < k:
                rows.append((pos, j, value, moment))
                continue
            value -= moment * den
        if value:
            rows.append((pos, None, value, 1))
    pair = _first_refuting_pair(rows, len(family))
    if pair is not None:
        witness = Witness(
            k, *(_witness_row(family, pos, kahler_values[pos], den, k) for pos in pair)
        )
        if not witness.validated():
            return Verdict(
                k=k,
                status=REFUTED,
                witness=None,
                note="inconsistent system without a two-row proportionality certificate",
            )
        return Verdict(k=k, status=REFUTED, witness=witness)
    solution = {j: (value, moment) for _, j, value, moment in rows if j is not None}
    free = tuple(j for j in range(1, k) if j not in solution)
    if free:
        return Verdict(k=k, status=UNDERDETERMINED, free_indices=free)
    lower = tuple(rat(v, moment * den) for v, moment in map(solution.get, range(1, k)))
    return Verdict(
        k=k, status=CONSISTENT, polynomial=PowerPolynomial(degree=k, lower=lower)
    )


def _witness_row(family: TestFamily, pos: int, value, den, k: int) -> WitnessRow:
    """The row ``pos`` of ``family`` at order k with Lap^k phi(0) =
    value / den, as rationals.  The moments are read off the row's key by
    :func:`_key_moment`, not off ``family.classes``, which :func:`infer`
    read, so :meth:`Witness.validated` checks the classes too."""
    j, moment = _key_moment(family.keys[pos], family.dim) or (0, 0)
    moments = tuple(rat(moment) if i == j else ZERO for i in range(1, k + 1))
    return WitnessRow(family.index(pos), rat(value, den), moments)


def _first_refuting_pair(rows, size: int) -> tuple[int, int] | None:
    """Lexicographically first pair (a, b), a < b, of incompatible rows.

    ``rows`` holds (position, class, value, moment) in family order for the
    rows of a family of ``size`` rows that do not read 0 = 0; the others
    are compatible with every row.  A zero-class row refutes with any other
    row, so its first occurrence at b yields (0, b); a class pairs its first
    row with its first row of a different value / moment.  Every other
    refuting pair comes later in family order than one of these.
    """
    candidates = []
    first = {}
    for pos, cls, value, moment in rows:
        if cls is None:
            # row 0 pairs with row 1, or with itself in a one-row family
            candidates.append((0, pos) if pos else (0, min(1, size - 1)))
            break
        start, base, base_moment = first.setdefault(cls, (pos, value, moment))
        if value * base_moment != base * moment:
            candidates.append((start, pos))
    return min(candidates, default=None)


def kahler_value_table(m: MetricJet, family: TestFamily, kmax: int):
    """``(D, levels)`` with ``levels[s-1][i] / D^s`` = Lap^s phi(0) for the
    family row i, s = 1..kmax: :func:`monomial_powers_at_origin` of the
    family's packed keys."""
    return monomial_powers_at_origin(m, family.dim, family.keys, kmax)


def _first_unmet_order(family: TestFamily, den, levels, verdicts) -> int | None:
    """The lowest order k whose p_k some row of the value table ``(den,
    levels)`` of ``family`` breaks, or None; ``verdicts`` are consistent
    for k = 1..len(verdicts).  Row i, the monomial packed as
    ``family.keys[i]``, must read ``levels[k-1][i] / den^k = a_j j! a!``
    when it is z^a zb^a with j = |a| <= k (a_k = 1), and 0 otherwise.
    The moment is read off the key by :func:`_key_moment`, not off
    ``family.classes``, which :func:`infer` read."""
    moments = [_key_moment(key, family.dim) for key in family.keys]
    for v, level in zip(verdicts, levels):
        # p_k = sum_j c_j X^j / q on ints, c_0 = 0 and c_k = q
        q = math.lcm(*(a.denominator for a in v.polynomial.lower))
        c = [0, *(a.numerator * (q // a.denominator) for a in v.polynomial.lower), q]
        scale = den**v.k
        for value, moment in zip(level, moments):
            if moment is None or moment[0] > v.k:
                want = 0
            else:
                want = c[moment[0]] * moment[1] * scale
            if value * q != want:
                return v.k
    return None


# ----------------------------------------------------------------------
# whole-metric verification


@record
class CrossTermReport:
    """The four origin coefficients of the rank-two identity, plus their sum
    (observed to vanish term by term on the shipped rank >= 2 entries)."""

    values: tuple
    total: object
    all_zero: bool


@record
class ThirdPowerSummary:
    """Reference values at k = 3 for an Einstein metric in normal
    coordinates: lambda, Lap^3(|z1|^4)(0), Lap^3(|z1 z2|^2)(0) (dim >= 2),
    whether the doubling relation Lap^3(|z1|^4) = 2 Lap^3(|z1 z2|^2) holds,
    and the magnitude/sign split of Lap^3(|z1|^4)(0) - 12 lambda."""

    lam: object
    d3_z1_4: object
    d3_z1z2_sq: object | None
    relation_holds: bool | None
    comp_magnitude: object
    comp_sign: int
    cross_terms: CrossTermReport | None


def third_power_summary(m: MetricJet) -> ThirdPowerSummary:
    e = m.einstein
    if not e.is_einstein:
        raise NotEinsteinError("reference values need an Einstein metric")
    n = m.dim
    # |z1|^4 and, for n >= 2, |z1 z2|^2, as packed keys: z1^2 packs as 2,
    # z1 z2 as 33 = 1 | 1 << _SHIFT
    keys = [2 | 2 << _SHIFT * n, 33 | 33 << _SHIFT * n][: min(n, 2)]
    den, levels = monomial_powers_at_origin(m, n, keys, 3)
    d3 = [rat(v, den**3) for v in levels[2]] + [None]
    cross = inverse_metric_cross_hessian(m, 1, 2) if n >= 2 else None
    return _summary(e.lam, d3[0], d3[1], cross)


def _summary(lam, d3a, d3b, cross) -> ThirdPowerSummary:
    """The k = 3 summary from lambda, Lap^3(|z1|^4)(0), Lap^3(|z1 z2|^2)(0)
    and the four cross terms (the last two None at n = 1)."""
    dev = d3a - 12 * lam
    return ThirdPowerSummary(
        lam=lam,
        d3_z1_4=d3a,
        d3_z1z2_sq=d3b,
        relation_holds=None if d3b is None else d3a == 2 * d3b,
        comp_magnitude=dev if dev >= 0 else -dev,
        comp_sign=0 if dev == 0 else (1 if dev > 0 else -1),
        cross_terms=None if cross is None else CrossTermReport(
            values=cross, total=sum(cross, ZERO), all_zero=all(v == 0 for v in cross)
        ),
    )


@record
class PropertyReport:
    """Per-order verdicts for one catalog metric.

    ``consistent`` verdicts assert only "no refutation over the shipped
    finite family at this order"; refutations are proofs.
    """

    spec_label: str
    dim: int
    order: int
    max_k: int
    einstein: EinsteinData
    verdicts: tuple
    summary: ThirdPowerSummary | None

    @property
    def refuted_at(self) -> int | None:
        for v in self.verdicts:
            if v.status == REFUTED:
                return v.k
        return None

    @property
    def all_consistent(self) -> bool:
        return all(v.status == CONSISTENT for v in self.verdicts)

    FAMILY_NOTE = (
        "consistent = no refutation over the finite test family; "
        "refuted = proof by witness pair"
    )


def check_order(max_k: int, order: int | None) -> int:
    """The truncation order of a check through ``max_k``: ``order``, or
    2 max_k + 2 when it is None.  Raises for a ``max_k`` below 1 or past
    ``MAX_ORDER``, and for an ``order`` below 2 max_k + 2; builds nothing."""
    if max_k < 1:
        raise KahlapError("max_k must be >= 1")
    required = 2 * max_k + 2
    if required > MAX_ORDER:
        raise KahlapError(
            f"max_k={max_k} needs order {required}; orders must be in 0..{MAX_ORDER}"
        )
    if order is None:
        return required
    if order < required:
        raise InsufficientOrderError(
            f"order {order} too small for max_k={max_k}; need >= {required}",
            required_order=required,
        )
    return order


def verify_property(
    spec: cat.PotentialSpec,
    max_k: int,
    *,
    order: int | None = None,
) -> PropertyReport:
    """Decide the power property for k = 1..max_k, by one of two routes,
    chosen by one exact pass over the potential's packed keys
    (:func:`radial.unitary_profile`):

    - A U(n)-invariant spec, whose potential through its whole validity
      is F(|z|^2) (``flat``, ``fs``, ``hyp``, their duals, ``radial``),
      takes the symmetry route.  There ``phi -> Lap^k phi(0)`` is a
      U(n)-invariant functional, so every order is consistent, with
      ``a_j = Lap^k t^j (0) / (j! (n)_j)`` read off
      :func:`radial.power_table`; the Einstein data and the k = 3 summary
      follow from F too (:func:`radial.einstein`; ``Lap^3 |z1|^4 (0) = 4
      a_2``, ``Lap^3 |z1 z2|^2 (0) = 2 a_2``, and each cross term is
      ``-2 f_2``, since g_inv = I - 2 f_2 (t I + zb z^T) + O(|z|^4)).  No
      metric, test family or memo is built.  Such a verdict cannot tell a
      space form from another invariant metric (``radial:1,1/2:2`` is
      consistent through k = 5 and not Einstein), so it is no evidence of
      the power property.
    - Any other spec takes the family route, :func:`_family_route`.

    ``max_k`` and ``order`` are checked by :func:`check_order` first.
    """
    order = check_order(max_k, order)
    phi = cat.potential(spec, order)
    # the validity of the metric of phi; below max(2 max_k - 2, 2) it does
    # not determine the report, and the family route raises for it
    valid = order if phi.exact else phi.valid - 2
    profile = None
    if valid >= max(2 * max_k - 2, 2):
        profile = radial.unitary_profile(phi, (valid + 2) // 2)
    if profile is None:
        einstein, verdicts, summary = _family_route(phi, max_k)
    else:
        einstein, verdicts, summary = _symmetry_route(profile, phi.dim, max_k, valid)
    return PropertyReport(
        spec_label=spec.label(),
        dim=spec.dim,
        order=order,
        max_k=max_k,
        einstein=einstein,
        verdicts=tuple(verdicts),
        summary=summary,
    )


def _family_route(phi: Jet, max_k: int) -> tuple:
    """``(einstein, verdicts, summary)`` of the potential ``phi`` from its
    metric: :func:`infer` over the test family for k = 1..max_k, stopping
    at the first refutation.  When every order is consistent, each p_k is
    re-checked against every row of the value table, on ints, by
    :func:`_first_unmet_order`, with each row's moment read off its packed
    key rather than off ``family.classes``.  That check reads the values
    :func:`infer` read, so it checks the scan and the solve of
    :func:`infer` and the moment classes of the family, not the memo.  A
    failure -- a fault of the engine, not a mathematical possibility --
    downgrades the lowest failing order to refuted, with no witness and a
    note, and drops the later ones, so the report ends there."""
    m = metric_from_potential(phi)
    family = build_test_family(m.dim, max_k, m)
    den, levels = kahler_value_table(m, family, max_k)
    verdicts = []
    for k in range(1, max_k + 1):
        verdict = infer(m, k, family, kahler_values=levels[k - 1], den=den**k)
        verdicts.append(verdict)
        if verdict.status == REFUTED:
            break
    if all(v.status == CONSISTENT for v in verdicts):
        bad = _first_unmet_order(family, den, levels, verdicts)
        if bad is not None:
            verdicts[bad - 1 :] = [
                Verdict(k=bad, status=REFUTED, note="value-table re-check failed")
            ]
    summary = None
    if (
        m.einstein.is_einstein
        and max_k >= 3
        and all(v.status == CONSISTENT for v in verdicts[:2])
    ):
        summary = third_power_summary(m)
    return m.einstein, verdicts, summary


def _symmetry_route(profile, n: int, max_k: int, valid: int) -> tuple:
    """``(einstein, verdicts, summary)`` of the potential F(|z|^2) in n
    variables, F = sum profile[m] t^m, whose metric is valid through degree
    ``valid`` (see :func:`verify_property`)."""
    table = radial.power_table(profile, n, max_k)
    # moments[j] = j! (n)_j = Lapc^j t^j (0)
    moments = [1]
    for j in range(1, max_k):
        moments.append(moments[-1] * j * (n + j - 1))
    verdicts = [
        Verdict(
            k=k,
            status=CONSISTENT,
            polynomial=PowerPolynomial(
                degree=k, lower=tuple(table[j - 1][k - 1] / moments[j] for j in range(1, k))
            ),
        )
        for k in range(1, max_k + 1)
    ]
    lam, is_einstein = radial.einstein(profile, n, valid // 2)
    summary = None
    if is_einstein and max_k >= 3:
        a2 = verdicts[2].polynomial.lower[1]
        cross = (-2 * rat(profile[2]),) * 4 if n >= 2 else None
        summary = _summary(lam, 4 * a2, 2 * a2 if n >= 2 else None, cross)
    return EinsteinData(is_einstein, lam, valid - 2), verdicts, summary


# ----------------------------------------------------------------------
# duality


@record
class DualityCheck:
    value: object
    dual_value: object

    @property
    def passed(self) -> bool:
        return self.value == -self.dual_value


def duality_negation_checks(phi: Jet, pairs) -> list[DualityCheck]:
    """Lap^3(|z_i z_j|^2)(0) on the potential ``phi`` against its dual, for
    every index pair ``(i, j)`` of ``pairs``; the two values must be exact
    negatives.  Each metric is built once and read by one keyed call for
    all pairs."""
    n = phi.dim
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise KahlapError(f"indices ({i},{j}) outside 1..{n}")
    # z_i z_j, packed, as both halves of the key of |z_i z_j|^2
    halves = [(1 << _SHIFT * (i - 1)) + (1 << _SHIFT * (j - 1)) for i, j in pairs]
    keys = [a | a << _SHIFT * n for a in halves]
    values = []
    for m in [metric_from_potential(p) for p in (phi, cat.dual_potential(phi))]:
        den, levels = monomial_powers_at_origin(m, n, keys, 3)
        values.append([rat(v, den**3) for v in levels[2]])
    return [DualityCheck(value=v, dual_value=w) for v, w in zip(*values)]
