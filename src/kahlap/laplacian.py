"""Powers of the Kahler and complex Euclidean Laplacians at the origin.

Powers at the origin do not iterate the operator on a whole jet (the
tests do, as the oracle): ``Lap^s phi(0)`` is linear in the terms of phi, so
:func:`powers_at_origin` sums ``c * val(mu, s)`` over the terms ``c * mu``
of phi at every level ``s <= k``, and :func:`power_at_origin` reads level
k of that sum.  Both read the values of the monomials by their packed keys
through :func:`monomial_powers_at_origin`, the one reader of the memo,
which also serves the value table of every check.  Here
``val(mu, s) = [Lap^s mu](0)`` obeys

    val(1, 0) = 1,  val(mu, 0) = 0 for mu != 1,
    val(mu, s) = sum over a, b and the terms c_t * t of g_inv[a][b] of
                 beta_a * alpha_b * c_t * val(t * mu / (z_b zb_a), s - 1)

for mu = z^alpha zb^beta.  Every term of Lap lowers the holomorphic and the
antiholomorphic degree by at most one each, so ``val(mu, s)`` is 0 once
either degree of mu exceeds s; the recursion prunes such monomials.  Hence
``val(mu, s)`` reads only the terms of g_inv of bidegree at most
``(s-1, s-1)``, total degree at most ``2s-2``.  The budget check -- metric
valid to degree ``2k-2``, test function exact -- therefore covers every
value a call with ``kmax = k`` reads, and a value does not depend on the
``kmax`` of the call that computed it: one memo per metric, keyed by
``(packed monomial, s)`` and kept on the :class:`MetricJet`, serves every
later call on that metric.  The memo reads g_inv through degree
``max(2k-2, m.valid-1)`` for the deepest level k asked for, the inverse
that log det(g) reads as well, never its top degree ``m.valid`` unless k
sits at the budget edge ``m.valid == 2k-2``.

The recursion runs on Python ints.  Let D be the lcm of the denominators
of the g_inv entries over the degrees the memo reads (1 on every catalog
metric), so that every coefficient it reads is an int ``C_t`` over D.  The
memo keeps the int numerator ``N(mu, s) = val(mu, s) * D^s``, which obeys
the recursion above with ``C_t`` for ``c_t`` and ``N(1, 0) = 1``.  A power
of phi sums ``c * N(mu, s)`` over the int numerators c of phi and builds one
rational per level, ``total / (phi.den * D^s)``; each term's weight and
bidegree are read once, for every level.  Degrees are digit sums of the
packed keys (``jets._digit_sum``), so no key is unpacked into an exponent
tuple on these paths.

A weight rule prunes the rest, exactly.  Let w(mu) = beta - alpha.  One
step of the recursion through the term t of g_inv[a][b] takes mu to
t * mu / (z_b zb_a), so it subtracts the step (t_hol - t_anti) + e_a - e_b
from w; the recursion ends at 1, of weight 0.  A call at level j reads only
terms of bidegree at most (j-1, j-1), so ``val(mu, s)`` is 0 unless w(mu)
is a sum d_1 + ... + d_s in which each d_j is the step of such a term.
The steps are read from the same term lists the recursion reads, so these
reachable sets over-approximate the weights the recursion can meet, on any
metric, and a monomial whose weight lies outside them is skipped without
losing a nonzero value.  Circle and torus
symmetries make the sets tiny: the one step 0 on hyp, fs and polydisc,
where every unbalanced monomial is skipped; three steps on type1:2,2.
Weights and steps are packed like monomial keys, with signed digits
(``_pack(beta) - _pack(alpha)``).  Packing is additive, so a sum of steps
packs to the sum of their packed forms, and a weight whose packed form is
in no packed reachable set is in no reachable set.

Euclidean moments need no iteration: Lapc^j (z^a zb^b)(0) is j! a! when
a = b and |a| = j, and 0 otherwise, so a monomial's moment vector has at
most one nonzero entry and :func:`euclidean_moments` reads it off the
balanced terms, as ints over the denominator of phi.

The expanded origin formulas for the second and third powers on an Einstein
metric in normal coordinates are implemented as independent cross-checks of
the recursion (they use only origin derivatives of g_inv and of the test
function, no operator iteration).  The expanded third power is a linear
functional of the Taylor coefficients of the test function: its g_inv sums
are built once per metric, in one pass over the terms of degree 2 and 4 of
g_inv, as one weight per coefficient, kept on the :class:`MetricJet`
beside the memo, and each call sums the weights against the terms of the
test function.
"""

from __future__ import annotations

import math

from .geometry import MetricJet
from .jets import (
    DimensionMismatchError,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _SHIFT,
    _digit_sum,
    _digits,
    record,
)
from .rationals import ZERO, rat


def require_budget(m: MetricJet, phi: Jet, k: int) -> None:
    """Raise InsufficientOrderError unless Lap^k phi(0) is computable exactly:
    phi must be an exact polynomial jet and m valid to degree 2k-2."""
    if not phi.exact:
        raise InsufficientOrderError(
            "test functions must be exact polynomial jets",
            required_order=2 * k + 2,
        )
    _require_metric_budget(m, k)


def _require_metric_budget(m: MetricJet, k: int) -> None:
    """The part of :func:`require_budget` that an exact test function meets
    or fails by the metric alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m.valid < 2 * k - 2:
        raise InsufficientOrderError(
            f"metric valid to {m.valid} < {2 * k - 2}; "
            f"build the potential at order >= {2 * k + 2}",
            required_order=2 * k + 2,
        )


class _OriginValues:
    """val(mu, s) = [Lap^s mu](0) for one metric, kept as the int numerator
    N(mu, s) = val(mu, s) * D^s, memoised by (packed monomial, s) and pruned
    by weight; see the module docstring for the recursion, the denominator
    D and the weight rule.  It reads g_inv through degree ``top``, which
    serves every level s with 2s - 2 <= ``top``."""

    __slots__ = ("dim", "top", "low", "den", "terms", "units", "memo", "reach")

    def __init__(self, m: MetricJet, top: int):
        n = m.dim
        x = m.inverse(top)
        self.dim = n
        self.top = top
        # the holomorphic half of a packed key
        self.low = (1 << _SHIFT * n) - 1
        # D: every coefficient of g_inv through degree top is an int over it
        self.den = den = math.lcm(*(e.den for row in x for e in row))
        # packed key of z_b zb_a, the monomial d_b dbar_a divides out
        self.units = [
            [1 << _SHIFT * b | 1 << _SHIFT * (n + a) for b in range(n)] for a in range(n)
        ]
        # per (a, b): the terms of g_inv[a][b] through degree top, as (hol
        # degree, anti degree, packed key, packed step, numerator over D) by
        # hol degree; the step is what one recursion step through the term
        # subtracts from the weight
        self.terms = [
            [
                sorted(
                    _bidegree(key, n)
                    + (key, _weight(unit, n) - _weight(key, n), c * (den // e.den))
                    for bucket in e._grades.values()
                    for key, c in bucket.items()
                )
                for e, unit in zip(row, units)
            ]
            for row, units in zip(x, self.units)
        ]
        self.reach = [{0}]
        self.memo = {}

    def steps(self, s: int) -> set:
        """The packed steps of the terms that ``value(mu, s)`` can read,
        those of bidegree at most (s-1, s-1)."""
        return {
            step
            for row in self.terms
            for terms in row
            for th, ta, _, step, _ in terms
            if th < s and ta < s
        }

    def reachable(self, s: int) -> set:
        """The packed weights of the monomials mu that ``value(mu, s)`` can
        find nonzero: sums of one step of each level 1..s."""
        reach = self.reach
        while len(reach) <= s:
            steps = self.steps(len(reach))
            reach.append({w + d for w in reach[-1] for d in steps})
        return reach[s]

    def powers(self, key: int, kmax: int) -> list:
        """[N(mu, 1), ..., N(mu, kmax)] for the monomial mu packed as
        ``key``."""
        row = [0] * kmax
        hol, anti = key & self.low, key >> _SHIFT * self.dim
        w = anti - hol
        self.reachable(kmax)
        # Lap^s mu(0) vanishes while s is below either degree of mu
        for s in range(max(1, _digit_sum(hol), _digit_sum(anti)), kmax + 1):
            if w in self.reach[s]:
                row[s - 1] = self.value(key, s)
        return row

    def value(self, key: int, s: int) -> int:
        """N(mu, s) for the monomial mu packed as ``key``, of bidegree at
        most (s, s)."""
        if s == 0:
            return 1 if key == 0 else 0
        hit = self.memo.get((key, s))
        if hit is not None:
            return hit
        hol, anti = key & self.low, key >> _SHIFT * self.dim
        # only terms t that keep t * mu / (z_b zb_a) within bidegree
        # (s-1, s-1) can reach the origin in s-1 more steps, and only
        # if the weight left is a sum of s-1 steps
        hmax, emax = s - _digit_sum(hol), s - _digit_sum(anti)
        w = anti - hol
        reach = self.reachable(s - 1)
        hols = _digits(hol)
        total = 0
        for a, ea in _digits(anti):
            for b, eb in hols:
                nu = key - self.units[a][b]
                acc = 0
                for th, ta, tkey, step, c in self.terms[a][b]:
                    if th > hmax:
                        break
                    if ta <= emax and w - step in reach:
                        v = self.value(nu + tkey, s - 1)
                        if v:
                            acc += c * v
                if acc:
                    total += ea * eb * acc
        self.memo[(key, s)] = total
        return total


def _bidegree(key: int, n: int) -> tuple[int, int]:
    shift = _SHIFT * n
    return _digit_sum(key & ((1 << shift) - 1)), _digit_sum(key >> shift)


def _weight(key: int, n: int) -> int:
    """beta - alpha for the monomial z^alpha zb^beta packed as ``key``,
    packed as signed digits: ``_pack(beta) - _pack(alpha)``."""
    shift = _SHIFT * n
    return (key >> shift) - (key & ((1 << shift) - 1))


def _factorials(key: int) -> int:
    """The product of the factorials of the digits of a packed key."""
    return math.prod(math.factorial(e) for _, e in _digits(key))


def _memo(m: MetricJet, dim: int, kmax: int) -> _OriginValues:
    """The memo of ``m`` for test functions in ``dim`` variables, at levels
    up to ``kmax``.  It reads g_inv through ``max(2 kmax - 2, m.valid - 1)``,
    the degrees log det(g) reads too; it is rebuilt, over one degree more,
    only when a later call asks for a level beyond that, which the budget
    allows only at its edge ``m.valid == 2 kmax - 2``."""
    if dim != m.dim:
        raise DimensionMismatchError(
            f"metric dimension {m.dim} vs jet dimension {dim}"
        )
    origin = m._origin_values
    if origin is None or origin.top < 2 * kmax - 2:
        origin = m._origin_values = _OriginValues(m, max(2 * kmax - 2, m.valid - 1))
    return origin


def powers_at_origin(m: MetricJet, phi: Jet, kmax: int) -> list:
    """[Lap^1 phi(0), ..., Lap^kmax phi(0)] for the Kahler Laplacian of m:
    the int sums of c * N(mu, s) over the terms c * mu of the numerators of
    phi, read off :func:`monomial_powers_at_origin` of their keys, each
    divided by ``phi.den * D^s`` once."""
    require_budget(m, phi, kmax)
    terms = [item for bucket in phi._grades.values() for item in bucket.items()]
    den, levels = monomial_powers_at_origin(m, phi.dim, [key for key, _ in terms], kmax)
    return [
        rat(sum(c * v for (_, c), v in zip(terms, level) if v), phi.den * den**s)
        for s, level in enumerate(levels, start=1)
    ]


def monomial_powers_at_origin(m: MetricJet, dim: int, keys, kmax: int):
    """:func:`powers_at_origin` of every monomial of ``keys``, each packed
    as ``_pack(alpha) | _pack(beta) << _SHIFT * dim`` for z^alpha zb^beta,
    read off the memo as int numerators.  Returns ``(D, levels)``:
    ``levels[s-1][i]`` is N(mu, s) = Lap^s mu(0) * D^s for the monomial mu
    of ``keys[i]``, 0 for a monomial whose weight no level reaches.  No jet
    and no rational is built, and the budget and dimension checks run once
    for the whole list: every monomial is an exact test function, so each
    one passes or fails them alike."""
    _require_metric_budget(m, kmax)
    origin = _memo(m, dim, kmax)
    # the packed weights some level 1..kmax reaches
    live = set().union(*map(origin.reachable, range(1, kmax + 1)))
    shift = _SHIFT * dim
    low = origin.low
    levels = [[0] * len(keys) for _ in range(kmax)]
    for i, key in enumerate(keys):
        if (key >> shift) - (key & low) in live:
            for level, v in zip(levels, origin.powers(key, kmax)):
                level[i] = v
    return origin.den, levels


def power_at_origin(m: MetricJet, phi: Jet, k: int):
    """Lap^k phi(0) exactly: level k of :func:`powers_at_origin`."""
    return powers_at_origin(m, phi, k)[k - 1]


def _balanced_moment(a) -> int:
    """j! a!, with j = |a|: Lapc^j (z^a zb^a)(0)."""
    return math.factorial(sum(a)) * math.prod(map(math.factorial, a))


def euclidean_moments(phi: Jet, kmax: int) -> list:
    """[Lapc^j phi(0)] for j = 1..kmax, summed as ints in closed form over
    the numerators of the balanced terms of phi, then divided by its
    denominator once."""
    if not phi.exact and phi.valid < 2 * kmax:
        raise InsufficientOrderError(
            "validity exhausted: the jet no longer determines its value at 0"
        )
    n = phi.dim
    values = []
    for j in range(1, kmax + 1):
        total = 0
        for key, c in phi._grades.get(2 * j, {}).items():
            if _weight(key, n) == 0:
                # j! a! for z^a zb^a, a! over the nonzero digits of a
                total += c * _factorials(key >> _SHIFT * n)
        values.append(rat(total * math.factorial(j), phi.den))
    return values


# ----------------------------------------------------------------------
# expanded origin identities


@record
class PowerIdentity:
    lhs: object
    rhs: object

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class NotEinsteinError(KahlapError):
    """The identity is only asserted for Einstein metrics."""


def _require_einstein(m: MetricJet):
    e = m.einstein
    if not e.is_einstein:
        raise NotEinsteinError(
            "identity asserted only for Einstein metrics in normal coordinates"
        )
    return e.lam


def second_power_check(m: MetricJet, phi: Jet) -> PowerIdentity:
    """Lap^2 phi(0) = (Lapc^2 + lam*Lapc) phi(0) on Einstein metrics in
    normal coordinates."""
    lam = _require_einstein(m)
    lhs = power_at_origin(m, phi, 2)
    mom = euclidean_moments(phi, 2)
    rhs = mom[1] + lam * mom[0]
    return PowerIdentity(lhs=lhs, rhs=rhs)


def _third_power_weights(m: MetricJet) -> dict:
    """The g_inv part of :func:`third_power_rhs` as a linear functional on
    the Taylor coefficients of the test function: packed key of
    z^alpha zb^beta -> the sum of mult * c * alpha! beta! over the terms of
    the expansion that read d^alpha dbar^beta phi(0), where c is the origin
    derivative of g_inv that multiplies it and mult is 2 for the mixed term,
    1 for the other three.  Those derivatives are the terms of degree 2 and
    4 of the g_inv entries, so one pass over those terms builds the map,
    on packed keys.  With u the key of z_j zb_i, the term c z^A zb^B of
    X[i][j] is read:

    - at degree 2, at the key of z^B zb^A times u, with weight
      2 c alpha! beta!: the mixed sum reads it with mult 2 when A and B
      are one variable each; else a pure sum reads it once per order of
      its two variables, twice, or once for a square, whose origin
      derivative is 2! c;
    - at degree 4 with A = B (a balanced term z_l z_h zb_l zb_h), at u,
      with weight 2 c A! alpha! beta!: the balanced sum reads it once per
      order of l and h, and its origin derivative is c (A!)^2.

    Factorials are read off the nonzero digits of the keys.  Summed as
    ints over the lcm of the entry denominators; zero weights are
    dropped."""
    shift = _SHIFT * m.dim
    low = (1 << shift) - 1
    inverse = m.inverse(4)
    den = math.lcm(*(x.den for row in inverse for x in row))
    weights = {}
    for i, row in enumerate(inverse):
        for j, x in enumerate(row):
            u = 1 << _SHIFT * j | 1 << shift + _SHIFT * i
            f = 2 * (den // x.den)
            reads = [(key >> shift | (key & low) << shift, c) for key, c in x._grades.get(2, {}).items()]
            reads += [
                (0, c * _factorials(key & low))
                for key, c in x._grades.get(4, {}).items()
                if key >> shift == key & low
            ]
            for at, c in reads:
                at += u
                weights[at] = weights.get(at, 0) + f * c * _factorials(at)
    return {key: rat(w, den) for key, w in weights.items() if w}


def third_power_rhs(m: MetricJet, phi: Jet):
    """Expanded third-power value at the origin for an Einstein metric in
    normal coordinates:

        (Lapc^3 + 3 lam Lapc^2 + lam^2 Lapc) phi(0)
        + 2 sum d_l dbar_h X[i][j] * d_j d_h dbar_l dbar_i phi
        +   sum d_l d_h   X[i][j] * d_j dbar_h dbar_l dbar_i phi
        +   sum dbar_l dbar_h X[i][j] * d_j d_h d_l dbar_i phi
        +   sum d_l d_h dbar_l dbar_h X[i][j] * d_j dbar_i phi

    with X = g_inv, all derivative coefficients evaluated at 0.  Requires
    the inverse metric valid through degree 4.  The sums over X are a
    weight per Taylor coefficient of phi, built once per metric and kept
    on ``m``.
    """
    lam = _require_einstein(m)
    if m.valid < 4:
        raise InsufficientOrderError(
            "third-power expansion needs metric valid degree >= 4",
            required_order=8,
        )
    if phi.dim != m.dim:
        raise DimensionMismatchError(
            f"metric dimension {m.dim} vs jet dimension {phi.dim}"
        )
    weights = _weights(m)
    mom = euclidean_moments(phi, 3)
    acc = ZERO
    for bucket in phi._grades.values():
        for key, c in bucket.items():
            w = weights.get(key)
            if w is not None:
                acc += c * w
    return mom[2] + 3 * lam * mom[1] + lam * lam * mom[0] + acc / phi.den


def _weights(m: MetricJet) -> dict:
    """The weights of :func:`_third_power_weights`, built once per metric."""
    if m._third_power_weights is None:
        m._third_power_weights = _third_power_weights(m)
    return m._third_power_weights


def third_power_checks(m: MetricJet, dim: int, keys) -> list:
    """Direct Lap^3 phi(0) against the expanded right-hand side of
    :func:`third_power_rhs`, for phi the monomial z^alpha zb^beta packed as
    each of ``keys`` (``_pack(alpha) | _pack(beta) << _SHIFT * dim``), in
    one keyed pass with no jet.  The direct side is level 3 of
    :func:`monomial_powers_at_origin`, which runs the budget and dimension
    checks; the expanded side reads no memo: the weight of the key plus the
    moment in closed form, j! a! at Lapc^j for alpha = beta = a with
    |a| = j, read off the key's digits, times lam^2, 3 lam or 1 for
    j = 1, 2, 3."""
    den, levels = monomial_powers_at_origin(m, dim, keys, 3)
    lam = _require_einstein(m)
    weights = _weights(m)
    scale = (lam * lam, 3 * lam, 1)
    shift = _SHIFT * dim
    checks = []
    for key, direct in zip(keys, levels[2]):
        rhs = weights.get(key, ZERO)
        a = key >> shift
        j = _digit_sum(a)
        if key == a | a << shift and 1 <= j <= 3:
            rhs += scale[j - 1] * math.factorial(j) * _factorials(a)
        checks.append(PowerIdentity(lhs=rat(direct, den**3), rhs=rhs))
    return checks


def inverse_metric_cross_hessian(m: MetricJet, i: int, j: int):
    """The four origin curvature coefficients coupling directions i and j
    (1-based): (d_i dbar_i X[j][j], d_j dbar_j X[i][i], d_j dbar_i X[i][j],
    d_i dbar_j X[j][i]) at 0, X = g_inv.  d_h dbar_a X(0) is the numerator
    of z_h zb_a in the degree-2 terms of X, over ``X.den``."""
    n = m.dim
    x = m.inverse(2)
    i -= 1
    j -= 1

    def d(e, h, a):
        return rat(e._grades.get(2, {}).get(1 << _SHIFT * h | 1 << _SHIFT * (n + a), 0), e.den)

    return d(x[j][j], i, i), d(x[i][i], j, j), d(x[i][j], j, i), d(x[j][i], i, j)
