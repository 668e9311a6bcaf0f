"""Inference and refutation of the Laplacian power property.

At the chart center one asks whether Lap^k phi(0) = p_k(Lapc) phi(0) for a
monic degree-k polynomial p_k with zero constant term, for all smooth phi.
Over a finite family of monomial test functions each phi contributes one
exact linear equation in the unknown lower coefficients a_1..a_{k-1}:

    Lap^k phi(0) - Lapc^k phi(0) = sum_j a_j * Lapc^j phi(0).

A *Consistent* verdict therefore means "no refutation over the shipped
finite family" -- honest but not a proof.  A *Refuted* verdict, by
contrast, exhibits two test functions whose equations admit no common
solution, which is a proof that no polynomial works.

A monomial's Euclidean moment vector has at most one nonzero entry
(Lapc^j (z^a zb^b)(0) = j! a! when a = b and |a| = j), so every row falls
in one class: the zero class, or the slot j < k of its single nonzero
unknown moment.  A class-j row fixes a_j to its normalised right-hand side
rhs / m_j.  Two rows are incompatible exactly when one of them is in the
zero class with a nonzero right-hand side, or both are in the same class
with different normalised right-hand sides; one pass over the family finds
the first such pair in family order.  When there is none, each class fixes
its coefficient and a class without rows leaves it free.  Rows that read
0 = 0 (value and every moment 0; most unbalanced rows) are compatible with
every row and fix nothing, so the pass skips them.  Witness pairs are
re-validated independently at emission time (proportional moment vectors,
incompatible right-hand sides).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import catalog as cat
from .geometry import (
    MetricJet,
    in_normal_coordinates,
    metric_from_potential,
    EinsteinData,
)
from .jets import BiIndex, InsufficientOrderError, Jet, KahlapError, _pack_bi
from .laplacian import (
    NotEinsteinError,
    euclidean_moments,
    inverse_metric_cross_hessian,
    monomial_moment,
    monomial_powers_at_origin,
    power_at_origin,
    powers_at_origin,
)
from .rationals import ZERO, rat, rat_pretty

CONSISTENT = "consistent"
REFUTED = "refuted"
UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
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

    def apply_to_moments(self, moments: Sequence):
        """p(Lapc) phi(0) given moments[j-1] = Lapc^j phi(0)."""
        total = moments[self.degree - 1]
        for j, a in enumerate(self.lower, start=1):
            if a != 0:
                total = total + a * moments[j - 1]
        return total

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


@dataclass(frozen=True)
class FamilyEntry:
    index: BiIndex
    moments: tuple  # Lapc^j phi(0), j = 1..max_k

    @property
    def balanced(self) -> bool:
        a, b = self.index.bidegree
        return a == b


@dataclass(frozen=True)
class TestFamily:
    dim: int
    max_k: int
    entries: tuple

    def __len__(self):
        return len(self.entries)


def build_test_family(n: int, k: int) -> TestFamily:
    """All monomials z^alpha zb^beta with |alpha|, |beta| <= k supported on
    at most min(n, 3) variables, in graded z1-major order.  Unbalanced
    monomials are kept: their equations must read 0 = 0 and catch degree
    bookkeeping bugs."""
    if n < 1 or k < 1:
        raise KahlapError("family needs n >= 1 and k >= 1")
    max_support = min(n, 3)
    # per exponent vector: its sum, its support bitmask, its negated sort key
    vecs = [
        (v, sum(v), sum(1 << i for i, e in enumerate(v) if e), tuple(-e for e in v))
        for v in _exponent_vectors(n, k)
    ]
    rows = sorted(
        ((da + db, na, nb), alpha, beta)
        for alpha, da, ma, na in vecs
        for beta, db, mb, nb in vecs
        if da + db and (ma | mb).bit_count() <= max_support
    )
    unbalanced = (ZERO,) * k
    entries = []
    for _, alpha, beta in rows:
        bi = BiIndex(alpha, beta)
        moments = unbalanced
        if alpha == beta:
            moments = [ZERO] * k
            moments[sum(alpha) - 1] = monomial_moment(bi)
            moments = tuple(moments)
        entries.append(FamilyEntry(index=bi, moments=moments))
    return TestFamily(dim=n, max_k=k, entries=tuple(entries))


def _exponent_vectors(n: int, k: int) -> list[tuple[int, ...]]:
    """Length-n exponent vectors with sum at most k, in lexicographic order;
    each prefix is extended only by what its sum leaves of k."""
    out = [()]
    for _ in range(n):
        out = [v + (e,) for v in out for e in range(k + 1 - sum(v))]
    return out


# ----------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class WitnessRow:
    index: BiIndex
    kahler_value: object  # Lap^k phi(0)
    moments: tuple  # Lapc^j phi(0), j = 1..k

    @property
    def rhs(self):
        return self.kahler_value - self.moments[-1]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
) -> Verdict:
    """Solve the order-k inference problem over the family, exactly.

    ``kahler_values`` optionally supplies Lap^k phi(0) per family entry
    (as produced by :func:`kahler_value_table`); otherwise they are
    computed here.  Raises KahlapError for a row with more than one
    nonzero unknown moment, which the grouping rule cannot handle.
    """
    if not in_normal_coordinates(m):
        raise KahlapError("inference requires normal coordinates at the origin")
    if kahler_values is None:
        table = kahler_value_table(m, family, k)
        kahler_values = [row[k - 1] for row in table]
    # (position, class, normalised rhs) per row that does not read 0 = 0;
    # class None is the zero class
    rows = []
    for pos, (entry, value) in enumerate(zip(family.entries, kahler_values)):
        if not value and not any(entry.moments):
            continue
        rhs = value - entry.moments[k - 1]
        slots = [j for j in range(k - 1) if entry.moments[j] != 0]
        if len(slots) > 1:
            raise KahlapError(
                f"row {entry.index.text()} has more than one nonzero moment"
            )
        if slots:
            rows.append((pos, slots[0], rhs / entry.moments[slots[0]]))
        else:
            rows.append((pos, None, rhs))
    pair = _first_refuting_pair(rows, len(family))
    if pair is not None:
        ea, eb = (family.entries[i] for i in pair)
        witness = Witness(
            k=k,
            first=WitnessRow(ea.index, kahler_values[pair[0]], ea.moments[:k]),
            second=WitnessRow(eb.index, kahler_values[pair[1]], eb.moments[:k]),
        )
        if not witness.validated():
            return Verdict(
                k=k,
                status=REFUTED,
                witness=None,
                note="inconsistent system without a two-row proportionality certificate",
            )
        return Verdict(k=k, status=REFUTED, witness=witness)
    solution = {cls: value for _, cls, value in rows if cls is not None}
    free = tuple(j + 1 for j in range(k - 1) if j not in solution)
    if free:
        return Verdict(k=k, status=UNDERDETERMINED, free_indices=free)
    return Verdict(
        k=k,
        status=CONSISTENT,
        polynomial=PowerPolynomial(
            degree=k, lower=tuple(solution[j] for j in range(k - 1))
        ),
    )


def _first_refuting_pair(rows, size: int) -> tuple[int, int] | None:
    """Lexicographically first pair (a, b), a < b, of incompatible rows.

    ``rows`` holds (position, class, value) in family order for the rows
    of a family of ``size`` rows that do not read 0 = 0; the others are
    compatible with every row.  A zero-class row with a nonzero right-hand
    side refutes with any other row, so its first occurrence at b yields
    (0, b); a class pairs its first row with its first row of a different
    value.  Every other refuting pair comes later in family order than one
    of these.
    """
    candidates = []
    first = {}
    for pos, cls, value in rows:
        if cls is None:
            if value != 0:
                # row 0 pairs with row 1, or with itself in a one-row family
                candidates.append((0, pos) if pos else (0, min(1, size - 1)))
                break
            continue
        start, base = first.setdefault(cls, (pos, value))
        if value != base:
            candidates.append((start, pos))
    return min(candidates, default=None)


def kahler_value_table(m: MetricJet, family: TestFamily, kmax: int):
    """Per family entry, the vector [Lap^1 phi(0), ..., Lap^kmax phi(0)]."""
    return monomial_powers_at_origin(
        m, family.dim, [entry.index for entry in family.entries], kmax
    )


# ----------------------------------------------------------------------
# whole-metric verification


@dataclass(frozen=True)
class CrossTermReport:
    """The four origin coefficients of the rank-two identity, plus their sum
    (observed to vanish term by term on the shipped rank >= 2 entries)."""

    values: tuple
    total: object
    all_zero: bool


@dataclass(frozen=True)
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
    phi1 = Jet(n, m.order, [(BiIndex(_vec(n, 1, 2), _vec(n, 1, 2)), 1)])
    d3a = power_at_origin(m, phi1, 3)
    dev = d3a - 12 * e.lam
    mag = dev if dev >= 0 else -dev
    sign = 0 if dev == 0 else (1 if dev > 0 else -1)
    d3b = None
    relation = None
    cross = None
    if n >= 2:
        bi = BiIndex(_vec2(n, 0, 1), _vec2(n, 0, 1))
        phi2 = Jet(n, m.order, [(bi, 1)])
        d3b = power_at_origin(m, phi2, 3)
        relation = d3a == 2 * d3b
        values = inverse_metric_cross_hessian(m, 1, 2)
        total = sum(values, ZERO)
        cross = CrossTermReport(
            values=values, total=total, all_zero=all(v == 0 for v in values)
        )
    return ThirdPowerSummary(
        lam=e.lam,
        d3_z1_4=d3a,
        d3_z1z2_sq=d3b,
        relation_holds=relation,
        comp_magnitude=mag,
        comp_sign=sign,
        cross_terms=cross,
    )


def _vec(n, i, e):
    return tuple(e if k == i - 1 else 0 for k in range(n))


def _vec2(n, i, j):
    return tuple(1 if k in (i, j) else 0 for k in range(n))


@dataclass(frozen=True)
class PropertyReport:
    """Per-order verdicts for one catalog metric.

    ``consistent`` verdicts assert only "no refutation over the shipped
    finite family at this order"; refutations are proofs.
    """

    spec_label: str
    dim: int
    order: int
    max_k: int
    seed: int
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


def verify_property(
    spec: cat.PotentialSpec,
    max_k: int,
    *,
    order: int | None = None,
    seed: int = 0,
    extended_polys: int = 3,
) -> PropertyReport:
    """Run inference for k = 1..max_k, stopping at the first refutation.

    When every order is consistent, the inferred p_k are re-verified on
    ``extended_polys`` seeded random rational combinations of the family
    monomials (``seed`` picks them; no verdict depends on it), drawn once
    per run and shared by every order.  For each combination phi and each
    k, ``Lap^k phi(0)`` from :func:`powers_at_origin`, the one-level sum
    over the multi-term jet at every level, must equal ``p_k`` applied to
    the closed-form moments of :func:`euclidean_moments`, exactly.  That
    path reads the memo apart from the value table that :func:`infer`
    solved from, so a failure there -- a fault of the engine, not a
    mathematical possibility -- downgrades the lowest failing order to
    refuted and drops the later ones, so the report ends there.
    """
    if max_k < 1:
        raise KahlapError("max_k must be >= 1")
    required = 2 * max_k + 2
    if order is None:
        order = required
    elif order < required:
        raise InsufficientOrderError(
            f"order {order} too small for max_k={max_k}; need >= {required}",
            required_order=required,
        )
    phi = cat.potential(spec, order)
    m = metric_from_potential(phi)
    family = build_test_family(spec.dim, max_k)
    table = kahler_value_table(m, family, max_k)
    verdicts = []
    for k in range(1, max_k + 1):
        verdict = infer(m, k, family, kahler_values=[row[k - 1] for row in table])
        verdicts.append(verdict)
        if verdict.status == REFUTED:
            break
    if all(v.status == CONSISTENT for v in verdicts):
        rng = random.Random(seed)
        combinations = _random_combinations(
            m, _packed_monomials(family), rng, extended_polys
        )
        bad = _extended_reverify(m, verdicts, combinations)
        if bad is not None:
            verdicts[bad.k - 1 :] = [bad]
    summary = None
    if (
        m.einstein.is_einstein
        and max_k >= 3
        and all(v.status == CONSISTENT for v in verdicts[:2])
    ):
        summary = third_power_summary(m)
    return PropertyReport(
        spec_label=spec.label(),
        dim=spec.dim,
        order=order,
        max_k=max_k,
        seed=seed,
        einstein=m.einstein,
        verdicts=tuple(verdicts),
        summary=summary,
    )


def _packed_monomials(family: TestFamily) -> list:
    """(total degree, packed key) of every family monomial, in family order."""
    return [(entry.index.degree, _pack_bi(entry.index)) for entry in family.entries]


# numerator over 12 of p/q at draw cell i = 4 * (p + 9) + (q - 1)
_DRAW_NUMERATORS = [p * (12 // q) for p in range(-9, 10) for q in range(1, 5)]


def _random_combinations(m: MetricJet, monomials, rng, count: int):
    """Yield up to ``count`` random combinations of the family monomials
    ``monomials`` (from :func:`_packed_monomials`) as exact jets at the
    shape of ``m``.  One ``rng.random()`` u per monomial: u < 1/2 skips it,
    else cell i = floor((u - 1/2) * 152) gives it the coefficient p/q with
    p = i // 4 - 9 in -9..9 and q = i % 4 + 1 in 1..4, each of the 76
    cells equally likely up to float granularity; an empty draw yields
    nothing.  The coefficient is the numerator ``p * (12 // q)`` over the
    common denominator 12."""
    for _ in range(count):
        grades = {}
        for degree, key in monomials:
            u = rng.random()
            if u < 0.5:
                continue
            c = _DRAW_NUMERATORS[int((u - 0.5) * 152)]
            if c:
                grades.setdefault(degree, {})[key] = c
        if grades:
            yield Jet._reduced(m.dim, m.order, m.order, True, grades, 12)


def _extended_reverify(m, verdicts, combinations) -> Verdict | None:
    """Check every p_k of ``verdicts`` (k = 1..len(verdicts)) on the jets
    ``combinations``: Lap^k phi(0) must equal p_k applied to the Euclidean
    moments of phi.  Returns the refuted verdict of the lowest failing
    order, or None."""
    max_k = len(verdicts)
    checks = [
        (powers_at_origin(m, phi, max_k), euclidean_moments(phi, max_k))
        for phi in combinations
    ]
    for v in verdicts:
        if any(
            lhs[v.k - 1] != v.polynomial.apply_to_moments(mom) for lhs, mom in checks
        ):
            return Verdict(
                k=v.k,
                status=REFUTED,
                witness=None,
                note="random-combination re-verification failed",
            )
    return None


# ----------------------------------------------------------------------
# duality


def dual_potential(phi: Jet) -> Jet:
    """Potential of the compact/noncompact dual: phi -> -phi(z, -zb)."""
    return cat.dual_potential(phi)


@dataclass(frozen=True)
class DualityCheck:
    value: object
    dual_value: object

    @property
    def passed(self) -> bool:
        return self.value == -self.dual_value


def duality_negation_check(
    spec: cat.PotentialSpec, i: int, j: int, *, order: int = 8
) -> DualityCheck:
    """Lap^3(|z_i z_j|^2)(0) on a catalog entry against its dual; the two
    values must be exact negatives."""
    return duality_negation_checks(cat.potential(spec, order), [(i, j)])[0]


def duality_negation_checks(phi: Jet, pairs) -> list[DualityCheck]:
    """:func:`duality_negation_check` for every index pair ``(i, j)`` of
    ``pairs`` on the potential ``phi``; the metric of phi and that of its
    dual are built once and shared by all pairs."""
    n = phi.dim
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise KahlapError(f"indices ({i},{j}) outside 1..{n}")
    m = metric_from_potential(phi)
    m_dual = metric_from_potential(dual_potential(phi))
    checks = []
    for i, j in pairs:
        alpha = [0] * n
        alpha[i - 1] += 1
        alpha[j - 1] += 1
        bi = BiIndex(tuple(alpha), tuple(alpha))
        test = Jet(n, phi.order, [(bi, 1)])
        checks.append(
            DualityCheck(
                value=power_at_origin(m, test, 3),
                dual_value=power_at_origin(m_dual, test, 3),
            )
        )
    return checks
