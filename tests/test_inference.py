"""Power-polynomial inference: families, verdicts, witnesses, duality and
the k = 3 reference values."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kahlap.catalog import (
    CatalogGateError,
    Custom,
    DualOf,
    Flat,
    Hyperbolic,
    Polydisc,
    Product,
    Radial,
    TypeI,
    dual_potential,
    einstein_catalog_entries,
    parse_spec,
    potential,
    standard_entries,
)
from kahlap.geometry import metric_from_potential
from kahlap import inference, laplacian, radial
from kahlap.inference import (
    CONSISTENT,
    REFUTED,
    PowerPolynomial,
    TestFamily as Family,
    Verdict,
    Witness,
    WitnessRow,
    build_test_family,
    duality_negation_checks,
    infer,
    kahler_value_table,
    third_power_summary,
    verify_property,
)
from kahlap.jets import (
    BiIndex,
    DimensionMismatchError,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _SHIFT,
    _digit_sum,
    _pack,
    _pack_bi,
    _unpack,
)
from kahlap.laplacian import (
    euclidean_moments,
    power_at_origin,
    powers_at_origin,
)
from kahlap.rationals import rat
from oracles import balanced_moment, flagged, substitute
from test_laplacian import _bent, _no_torus_fs3, _sheared


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


# ----------------------------------------------------------------------
# families


def _indices(fam):
    return [fam.index(pos) for pos in range(len(fam))]


def _sorted_family(n, k):
    """The family as (BiIndex, moment class) rows, sorted by (degree,
    negated alpha, negated beta) over every pair of exponent vectors with
    support at most min(n, 3): the order the family is pinned to."""
    vecs = [v for v in itertools.product(range(k + 1), repeat=n) if sum(v) <= k]
    rows = sorted(
        ((sum(a) + sum(b), tuple(-e for e in a), tuple(-e for e in b)), a, b)
        for a in vecs
        for b in vecs
        if sum(a) + sum(b) and sum(1 for x, y in zip(a, b) if x or y) <= min(n, 3)
    )
    return [
        (bi(a, b), (sum(a), balanced_moment(a)) if a == b else None)
        for _, a, b in rows
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_keys_and_classes_match_the_sorted_oracle(n, k):
    fam = build_test_family(n, k)
    want = _sorted_family(n, k)
    assert fam.keys == tuple(_pack_bi(index) for index, _ in want)
    assert fam.classes == tuple(cls for _, cls in want)
    assert _indices(fam) == [index for index, _ in want]
    assert any(index.bidegree[0] != index.bidegree[1] for index, _ in want)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (3, 2), (4, 2)])
def test_family_classes_are_the_euclidean_moments(n, k):
    # each row's moment vector through order k, from its monomial jet, has
    # j! a! at slot j = |a| for a balanced row z^a zb^a and is 0 otherwise
    fam = build_test_family(n, k)
    for pos, cls in enumerate(fam.classes):
        index = fam.index(pos)
        moments = euclidean_moments(Jet(n, 2 * k, [(index, 1)]), k)
        want = [0] * k
        if cls is not None:
            j, moment = cls
            assert index.hol == index.anti and j == sum(index.hol)
            want[j - 1] = moment
        assert moments == want, index.text()


def test_family_one_variable_contents():
    indices = set(_indices(build_test_family(1, 3)))
    for m in (1, 2, 3):
        assert bi((m,), (m,)) in indices  # t, t^2, t^3
    assert bi((2,), (1,)) in indices  # unbalanced sanity row


def test_family_two_variables_has_paper_witnesses():
    fam = build_test_family(2, 3)
    rows = dict(zip(fam.keys, fam.classes))
    assert rows[_pack_bi(bi((2, 0), (2, 0)))] == (2, 4)  # |z1|^4: 2! 2!
    assert rows[_pack_bi(bi((1, 1), (1, 1)))] == (2, 2)  # |z1 z2|^2: 2!


def test_family_support_is_capped_at_three_variables():
    fam = build_test_family(4, 3)
    for key in fam.keys:
        exps = _unpack(key, 8)
        assert sum(1 for i in range(4) if exps[i] or exps[4 + i]) <= 3
    # rows on three variables stay (|z1 z2 z3|^2, z1 z2 * zb3); four do not
    keys = set(fam.keys)
    assert _pack_bi(bi((1, 1, 1, 0), (1, 1, 1, 0))) in keys
    assert _pack_bi(bi((1, 1, 0, 0), (0, 0, 1, 0))) in keys
    assert _pack_bi(bi((1, 1, 0, 0), (0, 0, 1, 1))) not in keys


def test_family_order_is_graded_z1_major():
    indices = _indices(build_test_family(2, 3))
    degs = [index.degree for index in indices]
    assert degs == sorted(degs)
    quartics = [index for index in indices if index.degree == 4]
    assert quartics.index(bi((2, 0), (2, 0))) < quartics.index(bi((1, 1), (1, 1)))


def test_family_entries_view_is_built_once_from_the_rows():
    fam = build_test_family(2, 2)
    assert "entries" not in vars(fam)  # nothing reads the view on the way
    entries = fam.entries
    assert fam.entries is entries and len(entries) == len(fam)
    assert [e.index for e in entries] == _indices(fam)
    assert tuple(e.moment_class for e in entries) == fam.classes


def test_halves_enumerate_bounded_sums_directly():
    # every exponent vector v with |v| <= k, in descending lexicographic
    # order, packed, with its support, |v|, its image under u and v!
    from kahlap.inference import _halves

    for n in range(1, 5):
        u = [3**i - 2 for i in range(n)]
        for k in range(0, 5):
            product = itertools.product(range(k + 1), repeat=n)
            brute = [v for v in product if sum(v) <= k][::-1]
            assert _halves(n, k, u) == [
                (
                    _pack(v),
                    sum(1 << i for i, e in enumerate(v) if e),
                    sum(v),
                    sum(a * e for a, e in zip(u, v)),
                    math.prod(map(math.factorial, v)),
                )
                for v in brute
            ], (n, k)
    # C(15, 3): the (k+1)^n = 4^12 product is never built
    assert len(_halves(12, 3, [0] * 12)) == 455


def test_family_moments_match_direct_computation():
    fam = build_test_family(1, 3)
    pos = fam.keys.index(_pack_bi(bi((2,), (2,))))
    assert fam.classes[pos] == (2, 4)
    # the moment vector of the row at k = 3, as a witness row carries it
    row = inference._witness_row(fam, pos, 0, 1, 3)
    assert list(row.moments) == [0, 4, 0]
    assert list(inference._witness_row(fam, pos, 0, 1, 1).moments) == [0]


# ----------------------------------------------------------------------
# the family a metric's torus can see

_VISIBLE = [
    ("type1:2,2", 3), ("polydisc:3", 3), ("type4:3", 3),
    ("product(hyp:1,type4:2)", 3), ("type1:2,3", 4), ("type1:3,3", 2),
]


def _metric(text, k):
    return metric_from_potential(potential(parse_spec(text), 2 * k + 2))


class _Everywhere:
    """A reachable set holding every weight: the memo with no weight rule."""

    def __contains__(self, weight):
        return True


@pytest.mark.parametrize("text, k", _VISIBLE)
def test_rows_the_torus_cannot_see_read_zero_at_every_level(text, k):
    # every row of the full family that the visible family drops reads 0
    # at every level of the full value table, and of the recursion run
    # with no weight rule
    m = _metric(text, k)
    full = build_test_family(m.dim, k)
    seen = set(build_test_family(m.dim, k, m).keys)
    dropped = [key for key in full.keys if key not in seen]
    assert len(dropped) > len(seen)
    _, levels = kahler_value_table(m, full, k)
    assert not any(v for level in levels for key, v in zip(full.keys, level) if key not in seen)
    origin = laplacian._OriginValues(m, max(2 * k - 2, m.valid - 1))
    origin.reach = [_Everywhere()] * (k + 1)
    assert not any(origin.value(key, s) for s in range(1, k + 1) for key in dropped)


@pytest.mark.parametrize("text, k", _VISIBLE)
def test_the_visible_family_is_the_full_family_filtered_in_order(text, k):
    # the rows whose weight beta - alpha is 0 or in the top reachable set,
    # and row 0 (z1), with their classes, in family order
    m = _metric(text, k)
    n = m.dim
    full = build_test_family(n, k)
    reach = laplacian._memo(m, n, k).reachable(k) | {0}
    shift = _SHIFT * n
    want = [
        (key, cls)
        for pos, (key, cls) in enumerate(zip(full.keys, full.classes))
        if pos == 0 or (key >> shift) - (key & (1 << shift) - 1) in reach
    ]
    visible = build_test_family(n, k, m)
    assert list(zip(visible.keys, visible.classes)) == want
    assert visible.index(0) == bi((1,) + (0,) * (n - 1), (0,) * n)


_ROUTE_RUNS = [
    *((text, 3) for text in (
        "type1:2,2", "type1:2,3", "type1dual:2,2", "dual(type1:2,2)",
        "polydisc:3", "polydisc:20", "type4:2", "product(flat:1,hyp:1)",
    )),
    ("type1:2,2", 2), ("type4:4", 2),
]


@pytest.mark.parametrize("text, max_k", _ROUTE_RUNS)
def test_the_family_route_reads_the_same_report_off_the_visible_family(
    monkeypatch, text, max_k
):
    # verdicts, witnesses, p_k, Einstein data and summary, against the
    # route run over the full family
    phi = potential(parse_spec(text), 2 * max_k + 2)
    visible = inference._family_route(phi, max_k)
    real = inference.build_test_family
    monkeypatch.setattr(inference, "build_test_family", lambda n, k, m=None: real(n, k))
    full = inference._family_route(phi, max_k)
    # repr tells an int from a rational, which == does not
    assert (visible, repr(visible)) == (full, repr(full))
    last = visible[1][-1]
    if max_k == 3:
        assert last.status == REFUTED and last.witness is not None
    else:
        assert last.status == CONSISTENT


def test_a_metric_with_no_torus_symmetry_keeps_every_row():
    # fs:3 pulled back under z_i -> z_i + z_{i+1} z_{i+2} + z_i z_{i+1} / 3
    # (indices mod 3): its steps span Q^3, so the kernel is empty, and every
    # weight of the family is in the top reachable set, so every row passes
    # the reach filter and the family is the full one
    k = 3
    m = _no_torus_fs3(k)
    assert laplacian._memo(m, 3, k).kernel(k) == []
    assert build_test_family(3, k, m) == build_test_family(3, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_laplcube_rows_are_the_full_family_filtered(n):
    # |alpha| = |beta| on at most two variables, in family order
    family = inference.laplcube_rows(n)
    full = build_test_family(n, 2)
    want = [
        pos
        for pos, index in enumerate(_indices(full))
        if index.bidegree[0] == index.bidegree[1]
        and sum(1 for a, b in zip(index.hol, index.anti) if a or b) <= 2
    ]
    assert family.keys == tuple(full.keys[pos] for pos in want)
    assert family.classes == tuple(full.classes[pos] for pos in want)


def _table_rows(m, fam, kmax):
    """Per family row, [Lap^1 phi(0), ..., Lap^kmax phi(0)] as rationals."""
    den, levels = kahler_value_table(m, fam, kmax)
    assert all(len(level) == len(fam) for level in levels)
    return [
        [rat(level[pos], den**s) for s, level in enumerate(levels, start=1)]
        for pos in range(len(fam))
    ]


def test_unbalanced_family_rows_are_trivial():
    """Unbalanced monomials contribute 0 = 0 rows: no moment class and zero
    operator powers (the bidegree-balance canary)."""
    m = metric_from_potential(potential(Hyperbolic(2), 8))
    fam = build_test_family(2, 3)
    saw_unbalanced = 0
    for pos, values in enumerate(_table_rows(m, fam, 3)):
        a, b = fam.index(pos).bidegree
        if a != b:
            saw_unbalanced += 1
            assert fam.classes[pos] is None
            assert all(v == 0 for v in values)
    assert saw_unbalanced > 0


def test_value_table_matches_powers_at_origin_per_entry(type1_metric_order8):
    """The table reads the memo by each row's packed key; every row must
    equal powers_at_origin on the row's monomial jet, and the checks the
    jet path runs per call fire once for the table."""
    m = type1_metric_order8
    fam = build_test_family(4, 3)
    for pos, values in enumerate(_table_rows(m, fam, 3)):
        phi = Jet(4, m.order, [(fam.index(pos), 1)])
        assert values == powers_at_origin(m, phi, 3), fam.index(pos).text()
    with pytest.raises(InsufficientOrderError) as err:
        kahler_value_table(m, fam, 5)  # metric valid 6 < 2*5-2
    assert err.value.required_order == 12
    with pytest.raises(DimensionMismatchError):
        kahler_value_table(m, build_test_family(2, 3), 3)


def test_infer_rejects_a_family_of_another_dimension():
    """Supplied values of a one-variable family on a two-variable metric
    raise as the computed ones do, instead of reading as consistent."""
    m = metric_from_potential(potential(Hyperbolic(2), 6))
    fam = build_test_family(1, 2)
    den, levels = kahler_value_table(
        metric_from_potential(potential(Hyperbolic(1), 6)), fam, 2
    )
    for values, d in ((levels[1], den**2), (None, 1)):
        with pytest.raises(DimensionMismatchError):
            infer(m, 2, fam, values, den=d)


# ----------------------------------------------------------------------
# inference verdicts


def test_flat_inference_gives_pure_powers():
    m = metric_from_potential(potential(Flat(2), 10))
    fam = build_test_family(2, 4)
    for k in (1, 2, 3, 4):
        v = infer(m, k, fam)
        assert v.status == CONSISTENT
        assert v.polynomial.lower == tuple(rat(0) for _ in range(k - 1))


def test_hyperbolic_p3():
    m = metric_from_potential(potential(Hyperbolic(1), 8))
    v = infer(m, 3, build_test_family(1, 3))
    assert v.status == CONSISTENT
    assert v.polynomial.lower == (8, -10)
    assert v.polynomial.text() == "X^3 - 10*X^2 + 8*X"


def test_polydisc_refutation_rows():
    m = metric_from_potential(potential(Polydisc(2), 8))
    v = infer(m, 3, build_test_family(2, 3))
    assert v.status == REFUTED
    w = v.witness
    assert w.first.index == bi((2, 0), (2, 0))
    assert w.second.index == bi((1, 1), (1, 1))
    assert w.first.kahler_value == -40 and w.second.kahler_value == -12
    # rows force incompatible quadratic coefficients -10 vs -6
    assert w.first.rhs / w.first.moments[1] == -10
    assert w.second.rhs / w.second.moments[1] == -6
    assert w.validated()


def test_witness_validation_rejects_consistent_pair():
    w = Witness(
        k=3,
        first=WitnessRow(bi((2,), (2,)), rat(4), (rat(0), rat(4), rat(0))),
        second=WitnessRow(bi((1,), (1,)), rat(0), (rat(1), rat(0), rat(0))),
    )
    assert not w.validated()  # moment vectors not proportional


def test_inference_requires_normal_coordinates():
    from kahlap.jets import Jet

    crooked = Jet(1, 8, [(bi((1,), (1,)), 2)])
    m = metric_from_potential(crooked)
    with pytest.raises(KahlapError):
        infer(m, 2, build_test_family(1, 2))


# ----------------------------------------------------------------------
# verify_property


def test_verify_property_hyperbolic_all_orders():
    for n in (1, 2, 3):
        rep = verify_property(Hyperbolic(n), 3)
        assert rep.all_consistent
        p2 = rep.verdicts[1].polynomial
        assert p2.lower == (rep.einstein.lam,)


def test_verify_property_type1_refuted_at_3():
    rep = verify_property(TypeI(2, 2), 3)
    assert rep.refuted_at == 3
    w = rep.verdicts[2].witness
    assert w.first.index == bi((2, 0, 0, 0), (2, 0, 0, 0))
    assert w.second.index == bi((1, 1, 0, 0), (1, 1, 0, 0))
    assert w.first.kahler_value == -64 and w.second.kahler_value == -24


def test_verify_property_product_refuted_at_2():
    rep = verify_property(Product(Flat(1), Hyperbolic(1)), 2)
    assert rep.refuted_at == 2
    assert not rep.einstein.is_einstein
    w = rep.verdicts[1].witness
    assert w.first.index == bi((1, 0), (1, 0))
    assert w.second.index == bi((0, 1), (0, 1))
    assert (w.first.kahler_value, w.second.kahler_value) == (0, -2)


def test_verify_property_rejects_small_order():
    with pytest.raises(InsufficientOrderError) as err:
        verify_property(Hyperbolic(1), 3, order=6)
    assert err.value.required_order == 8


def test_no_underdetermined_verdicts_at_desk_scale():
    for n in (1, 2):
        rep = verify_property(Flat(n), 4)
        assert all(v.status == CONSISTENT for v in rep.verdicts)
        rep = verify_property(Hyperbolic(n), 4)
        assert all(v.status != "underdetermined" for v in rep.verdicts)


def test_family_moment_matrix_has_full_rank():
    """The unknown coefficients are always determined by the shipped
    families, independent of the metric: every row has at most one nonzero
    moment, by construction of its class, and each slot 1..k-1 has a row
    (the t^j rows)."""
    cases = [(n, k) for n in (1, 2, 3) for k in (2, 3, 4)] + [(4, 2), (4, 3)]
    for n, k in cases:
        fam = build_test_family(n, k)
        slots = {cls[0] for cls in fam.classes if cls is not None and cls[0] < k}
        assert slots == set(range(1, k)), (n, k)


# ----------------------------------------------------------------------
# the grouping rule against the two-row rank predicate

FLAT1 = metric_from_potential(potential(Flat(1), 4))


def _rank2(u, v):
    if not any(u) and not any(v):
        return 0
    n = len(u)
    return 2 if any(u[i] * v[j] != u[j] * v[i] for i in range(n) for j in range(i + 1, n)) else 1


def _brute_first_pair(rows):
    for a, (ma, ya) in enumerate(rows):
        for b in range(a + 1, len(rows)):
            mb, yb = rows[b]
            if _rank2(ma, mb) < _rank2(ma + (ya,), mb + (yb,)):
                return a, b
    return None


def _synthetic_family(k, rows):
    """Rows (moments on the k-1 unknowns, rhs) as a family with Lapc^k = 0,
    so the supplied Kahler values are the right-hand sides."""
    classes = tuple(
        next(((j + 1, int(x)) for j, x in enumerate(mom) if x), None)
        for mom, _ in rows
    )
    keys = tuple(_pack_bi(bi((i + 1,), (0,))) for i in range(len(rows)))
    return Family(dim=1, keys=keys, classes=classes), [y for _, y in rows]


@st.composite
def one_hot_rows(draw):
    k = draw(st.integers(1, 4))
    small = st.integers(-2, 2).map(rat)
    row = st.tuples(st.integers(-1, k - 2), st.sampled_from([1, -2, 3]), small)
    rows = []
    for slot, m, y in draw(st.lists(row, min_size=2, max_size=12)):
        mom = tuple(rat(m) if j == slot else rat(0) for j in range(k - 1))
        rows.append((mom, y))
    return k, rows


@seed(20201030)
@settings(max_examples=300, deadline=None)
@given(one_hot_rows())
def test_grouped_pass_matches_brute_force_pair_scan(case):
    k, rows = case
    family, values = _synthetic_family(k, rows)
    verdict = infer(FLAT1, k, family, kahler_values=values)
    want = _brute_first_pair(rows)
    if want is None:
        assert verdict.status != REFUTED
        if verdict.status == CONSISTENT:
            for mom, y in rows:
                assert sum(m * a for m, a in zip(mom, verdict.polynomial.lower)) == y
    else:
        w = verdict.witness
        assert (w.first.index, w.second.index) == tuple(family.index(i) for i in want)
        assert w.validated()


@pytest.fixture(scope="module")
def polydisc2_k3():
    m = metric_from_potential(potential(Polydisc(2), 8))
    fam = build_test_family(2, 3)
    den, levels = kahler_value_table(m, fam, 3)
    return m, fam, levels[2], den**3


def test_infer_needs_one_value_per_family_row(polydisc2_k3):
    m, fam, values, den = polydisc2_k3
    assert len(fam) == len(values) == 99
    assert infer(m, 3, fam, values, den=den).status == REFUTED
    # a short list must not leave the later rows out of the system
    for short in (values[:30], [], values + [0]):
        with pytest.raises(KahlapError, match=f"{len(short)} Kahler values for 99"):
            infer(m, 3, fam, short, den=den)


def test_infer_reads_values_over_their_denominator(polydisc2_k3):
    # the same values as numerators over 7^3 and as rationals over 1 give
    # the verdict the level-k column gives, witness values included
    m, fam, values, den = polydisc2_k3
    want = infer(m, 3, fam, values, den=den)
    scaled = infer(m, 3, fam, [v * 343 for v in values], den=den * 343)
    rational = infer(m, 3, fam, [rat(v, den) for v in values])
    assert scaled == want == rational
    assert want.witness.first.kahler_value == -40
    for k in (1, 2):
        den_k, levels = kahler_value_table(m, fam, k)
        values_k = levels[k - 1]
        want = infer(m, k, fam)
        assert want.status == CONSISTENT
        assert infer(m, k, fam, [v * 5 for v in values_k], den=5 * den_k**k) == want


def test_rows_at_slot_k_and_above_are_in_the_zero_class():
    # at order k a row with j = k reads Lap^k phi(0) = j! a! and a row with
    # j > k reads Lap^k phi(0) = 0; neither fixes a coefficient.  The rows
    # are z1 zb1, z1 z2 zb1 zb2 and z1 z2 z3 zb1 zb2 zb3, whose moment
    # classes (j, j! a!) are the classes given
    flat3 = metric_from_potential(potential(Flat(3), 4))
    exps = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    keys = tuple(_pack_bi(bi(a, a)) for a in exps)
    family = Family(dim=3, keys=keys, classes=((1, 1), (2, 2), (3, 6)))
    ok = infer(flat3, 2, family, [rat(3), rat(2), rat(0)])
    assert ok.status == CONSISTENT and ok.polynomial.lower == (3,)
    for values, pair in (([3, 5, 0], (0, 1)), ([3, 2, 7], (0, 2))):
        v = infer(flat3, 2, family, [rat(x) for x in values])
        w = v.witness
        assert v.status == REFUTED and w.validated()
        assert (w.first.index, w.second.index) == tuple(map(family.index, pair))
        assert w.second.moments == ((0, 2) if pair[1] == 1 else (0, 0))


# ----------------------------------------------------------------------
# the value-table re-check of a consistent family-route run


_RECHECK_NOTE = "value-table re-check failed"


def _no_refuting_pair(mp):
    # the scan of infer finds no pair, so it solves each class from its
    # last row and skips the zero class
    mp.setattr(inference, "_first_refuting_pair", lambda rows, size: None)


def _a1_off_by_one_at_2(mp):
    # the solve of infer returns a_1 + 1 at k = 2
    real = inference.infer

    def off(m, k, family, kahler_values=None, *, den=1):
        v = real(m, k, family, kahler_values, den=den)
        if k == 2 and v.status == CONSISTENT:
            lower = (v.polynomial.lower[0] + 1, *v.polynomial.lower[1:])
            v = Verdict(k=k, status=CONSISTENT, polynomial=PowerPolynomial(k, lower))
        return v

    mp.setattr(inference, "infer", off)


def _class_1_doubled(mp):
    # every class-1 moment doubled in build_test_family
    real = inference.build_test_family

    def family(n, k, m=None):
        f = real(n, k, m)
        classes = tuple((1, 2 * c[1]) if c and c[0] == 1 else c for c in f.classes)
        return Family(dim=f.dim, keys=f.keys, classes=classes)

    mp.setattr(inference, "build_test_family", family)


def _class_1_doubled_with_its_values(mp):
    # every class-1 moment doubled, and the level-1 values of those rows
    # doubled to match: infer reads classes and values that agree with each
    # other, so it stays consistent, with a_1 halved at k = 2; only a check
    # that reads the moments off the keys sees it
    _class_1_doubled(mp)
    real = inference.kahler_value_table

    def table(m, family, kmax):
        den, levels = real(m, family, kmax)
        levels[0] = [2 * v if c and c[0] == 1 else v for v, c in zip(levels[0], family.classes)]
        return den, levels

    mp.setattr(inference, "kahler_value_table", table)


_REFUTED_SPECS = [
    ("type1:2,2", 3), ("polydisc:3", 3), ("polydisc:2", 3),
    ("product(flat:1,hyp:1)", 3), ("type1dual:2,2", 3), ("type4:2", 3),
]
_RECHECK_MUTANTS = [
    *(pytest.param(_no_refuting_pair, text, max_k, None, id=f"no-pair-{text}")
      for text, max_k in _REFUTED_SPECS),
    pytest.param(_a1_off_by_one_at_2, "polydisc:2", 2, 2, id="a1-off-by-one"),
    pytest.param(_class_1_doubled_with_its_values, "polydisc:2", 2, 1, id="class-1-doubled"),
]


@pytest.mark.parametrize("mutant, text, max_k, order", _RECHECK_MUTANTS)
def test_recheck_catches_a_fault_infer_cannot_see(monkeypatch, mutant, text, max_k, order):
    # a fault that leaves every order consistent is caught by the re-check
    # at the stated order -- a missed pair at the order the unmutated run
    # refutes -- which becomes refuted with no witness and the re-check's
    # note, and no verdict follows it
    spec = parse_spec(text)
    if order is None:
        order = verify_property(spec, max_k).refuted_at
        assert order is not None
    with monkeypatch.context() as mp:
        mutant(mp)
        rep = verify_property(spec, max_k)
    assert rep.refuted_at == order and len(rep.verdicts) == order
    bad = rep.verdicts[-1]
    assert (bad.status, bad.witness, bad.note) == (REFUTED, None, _RECHECK_NOTE)
    assert all(v.status == CONSISTENT for v in rep.verdicts[:-1])


def test_a_class_fault_alone_is_refuted_by_infer_at_its_order(monkeypatch):
    # the class-1 moments doubled, the values left alone: at k = 1 a
    # class-1 row is checked against its own value, so infer finds a pair
    # there, and the re-check never runs; the witness rows read their
    # moments off their keys, so the pair is no certificate and the order
    # is refuted with no witness
    _class_1_doubled(monkeypatch)
    rep = verify_property(Polydisc(2), 2)
    assert rep.refuted_at == 1 and len(rep.verdicts) == 1
    bad = rep.verdicts[0]
    assert (bad.status, bad.witness) == (REFUTED, None)
    assert bad.note == "inconsistent system without a two-row proportionality certificate"


# ----------------------------------------------------------------------
# the symmetry route against the family route


def _never(*args, **kwargs):
    raise AssertionError("the symmetry route reads no metric, family or memo")


def _symmetry_report(monkeypatch, spec, max_k, order=None):
    """``verify_property`` on a U(n)-invariant spec, with every stage of the
    family route made to fail: the report comes from the profile alone."""
    with monkeypatch.context() as mp:
        for name in (
            "metric_from_potential",
            "build_test_family",
            "monomial_powers_at_origin",
            "_family_route",
        ):
            mp.setattr(inference, name, _never)
        mp.setattr(laplacian, "monomial_powers_at_origin", _never)
        mp.setattr(laplacian, "powers_at_origin", _never)
        mp.setattr(random, "Random", _never)
        return verify_property(spec, max_k, order=order)


def _family_report(spec, max_k, order=None):
    """The report of the family route on ``spec``'s potential, whatever its
    symmetry: what ``verify_property`` gave before the symmetry route."""
    order = 2 * max_k + 2 if order is None else order
    einstein, verdicts, summary = inference._family_route(potential(spec, order), max_k)
    return inference.PropertyReport(
        spec.label(), spec.dim, order, max_k, einstein, tuple(verdicts), summary
    )


def _outcome(run):
    """The report of ``run()``, or the type and text of what it raised."""
    try:
        report = run()
    except KahlapError as exc:
        return type(exc).__name__, str(exc)
    # repr tells an int from a rational, which == does not
    return report, repr(report)


_INVARIANT = [
    parse_spec(text)
    for head in ("flat:1", "flat:2", "fs:1", "fs:2", "fs:3", "hyp:1", "hyp:2", "hyp:3")
    for text in (head, f"dual({head})")
]


def test_the_invariant_catalog_specs():
    # every catalog entry and dual the detector finds U(n)-invariant
    found = []
    for spec in standard_entries():
        for s in (spec, DualOf(spec)):
            try:
                phi = potential(s, 8)
            except CatalogGateError:  # the dual of a bounded domain entry
                continue
            if radial.unitary_profile(phi, 4) is not None:
                found.append(s)
    assert found == _INVARIANT


@pytest.mark.parametrize("spec", _INVARIANT, ids=lambda spec: spec.label())
@pytest.mark.parametrize("max_k, order", [(1, None), (3, None), (3, 9), (4, 11)])
def test_symmetry_route_gives_the_family_routes_report(monkeypatch, spec, max_k, order):
    got = _symmetry_report(monkeypatch, spec, max_k, order)
    assert (got, repr(got)) == _outcome(lambda: _family_report(spec, max_k, order))


@st.composite
def radial_cases(draw):
    """A U(n)-invariant spec F(|z|^2), n <= 4, with max_k <= 4 and an order
    past 2 max_k + 2 by 0..3: exact (``radial`` through degree <= order),
    inexact at the order (``radial`` with a term past it) or inexact below
    it (a ``custom`` jet vouched for through degree 2 max_k - 1 and up, on
    both sides of the least validity that determines the report)."""
    n = draw(st.integers(1, 4))
    max_k = draw(st.integers(1, 4 if n < 4 else 3))
    order = 2 * max_k + 2 + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["exact", "past order", "custom"]))
    size = order // 2 + (kind == "past order")
    coeff = st.builds(rat, st.integers(-5, 5), st.integers(1, 4))
    coeffs = [rat(1), *draw(st.lists(coeff, min_size=size - 1, max_size=size - 1))]
    if kind == "past order":
        coeffs[-1] = coeffs[-1] or rat(1)
    if kind != "custom":
        return Radial(tuple(coeffs), n), max_k, order
    valid = draw(st.integers(2 * max_k - 1, order - 1))
    jet = substitute([0, *coeffs], Jet.abs_square_sum(n, order), exact=True)
    return Custom(flagged(jet, valid, False), f"custom:{n}@{valid}"), max_k, order


@seed(20281020)
@settings(max_examples=120, deadline=None)
@given(radial_cases())
@example((Radial((rat(1), rat(0), rat(2)), 2), 3, 8))  # f_2 = 0, exact
@example((Radial((rat(1), rat(0), rat(1, 3), rat(-1), rat(1)), 3), 3, 8))  # f_2 = 0, inexact
def test_symmetry_route_agrees_on_random_radial_profiles(case):
    spec, max_k, order = case
    want = _outcome(lambda: _family_report(spec, max_k, order))
    if isinstance(want[0], str):
        # a jet known too shallowly for max_k: the gate refuses it or the
        # family route raises, as before the symmetry route
        assert _outcome(lambda: verify_property(spec, max_k, order=order)) == want
        return
    with pytest.MonkeyPatch.context() as mp:
        got = _symmetry_report(mp, spec, max_k, order)
    assert (got, repr(got)) == want, case


def _plus_one(terms, d):
    # the first balanced key of degree d other than the z_1^m zb_1^m that
    # carries f_m, its coefficient plus 1
    m = d // 2
    key = next(
        b for b in sorted(terms) if b.hol == b.anti and sum(b.hol) == m and b.hol[0] != m
    )
    terms[key] += 1


def _unbalanced_pair(terms, d):
    # two balanced keys z^a zb^a and z^b zb^b, a! = b!, give way to the
    # mirror pair z^a zb^b, z^b zb^a at the same coefficient: the potential
    # stays real and the metric Hermitian, with as many keys as before and
    # every weight read off a holomorphic half kept; the z_1^m zb_1^m that
    # carries f_m is one of the two only when no other pair will do
    m = d // 2
    balanced = [x for x in sorted(terms) if x.hol == x.anti and sum(x.hol) == m]
    a, b = min(
        ((a, b) for a in balanced for b in balanced if a != b and sorted(a.hol) == sorted(b.hol)),
        key=lambda pair: m in (pair[0].hol[0], pair[1].hol[0]),
    )
    c = terms.pop(a)
    del terms[b]
    terms[bi(a.hol, b.hol)] = terms[bi(b.hol, a.hol)] = c


_DETECTOR_BASES = [("hyp:2", 3, 8), ("fs:3", 3, 9), ("radial:1,1/2,-1/3,1/4,2:2", 3, 10)]


def _detector_mutants():
    for text, max_k, order in _DETECTOR_BASES:
        for d in range(4, order + 1, 2):
            for change in (_plus_one, _unbalanced_pair):
                yield pytest.param(
                    text, max_k, order, d, change, id=f"{text}@{d}-{change.__name__[1:]}"
                )


@pytest.mark.parametrize("text, max_k, order, d, change", _detector_mutants())
def test_one_key_off_sends_the_spec_to_the_family_route(monkeypatch, text, max_k, order, d, change):
    # at each even degree the metric's validity reaches, one key changed
    # (degree 2 is the normalization the catalog gate pins)
    terms = dict(potential(parse_spec(text), order).terms())
    change(terms, d)
    spec = Custom(Jet(parse_spec(text).dim, order, terms.items()), f"{text} mutant")
    monkeypatch.setattr(inference, "_symmetry_route", _never)
    got = verify_property(spec, max_k, order=order)
    assert (got, repr(got)) == _outcome(lambda: _family_report(spec, max_k, order))


@pytest.mark.parametrize("spec", [s for s in _INVARIANT if s.dim >= 2], ids=str)
def test_summary_closed_forms_match_the_metric(spec):
    # Lap^3 |z1|^4 (0) = 4 a_2 and Lap^3 |z1 z2|^2 (0) = 2 a_2, a_2 of p_3,
    # and each cross term is -2 f_2: g_inv = I - 2 f_2 (t I + zb z^T) + ...
    phi = potential(spec, 8)
    f2 = radial.unitary_profile(phi, 4)[2]
    summary = third_power_summary(metric_from_potential(phi))
    a2 = verify_property(spec, 3).verdicts[2].polynomial.coefficient(2)
    assert (summary.d3_z1_4, summary.d3_z1z2_sq) == (4 * a2, 2 * a2)
    assert summary.cross_terms.values == (-2 * f2,) * 4


@pytest.mark.parametrize("coeffs", [(1, 0), (1, rat(1, 2), 3), (1, rat(-2, 5), 3), (1, 2, -1)])
@pytest.mark.parametrize("n", [2, 3])
def test_closed_forms_hold_off_einstein_too(coeffs, n):
    # the same three values read off the metric where no summary is built
    spec = Radial(tuple(map(rat, coeffs)), n)
    m = metric_from_potential(potential(spec, 8))
    den, levels = laplacian.monomial_powers_at_origin(
        m, n, [2 | 2 << _SHIFT * n, 33 | 33 << _SHIFT * n], 3
    )
    a2 = verify_property(spec, 3).verdicts[2].polynomial.coefficient(2)
    assert [rat(v, den**3) for v in levels[2]] == [4 * a2, 2 * a2]
    f2 = rat(coeffs[1])
    assert laplacian.inverse_metric_cross_hessian(m, 1, 2) == (-2 * f2,) * 4


@pytest.mark.parametrize("j, k", [(1, 2), (1, 3), (2, 3)])
def test_power_table_fault_breaks_route_equivalence(monkeypatch, j, k):
    # a fault in one entry Lap^k t^j (0) that p_k reads (j < k; the diagonal
    # j = k is k! (n)_k and read by no verdict) changes the symmetry
    # route's report, so the comparison with the family route fails
    real = radial.power_table

    def off_by_one_at(profile, n, kmax):
        table = real(profile, n, kmax)
        table[j - 1][k - 1] += 1
        return table

    want = _family_report(Hyperbolic(2), 3)
    assert verify_property(Hyperbolic(2), 3) == want
    monkeypatch.setattr(radial, "power_table", off_by_one_at)
    got = verify_property(Hyperbolic(2), 3)
    assert got != want
    assert [v.k for v in got.verdicts if v != want.verdicts[v.k - 1]] == [k]


def test_radial_oracle_catches_a_memo_fault_the_memo_route_cannot(monkeypatch):
    # the mutant adds D^3 to N(|z_i|^2, 3) in the memo: the family route
    # then infers p_3 = X^3 - 13*X^2 + 16*X on hyp:2, and its value-table
    # re-check reads the values infer read, so it passes; the symmetry
    # route reads no memo and keeps X^3 - 13*X^2 + 15*X
    real = laplacian._OriginValues.value

    def mutant(self, key, s):
        value = real(self, key, s)
        hol = key & self.low
        if s == 3 and key == hol | hol << _SHIFT * self.dim and _digit_sum(hol) == 1:
            value += self.den**3
        return value

    monkeypatch.setattr(laplacian._OriginValues, "value", mutant)
    family = _family_report(Hyperbolic(2), 3)
    symmetric = verify_property(Hyperbolic(2), 3)
    assert family.all_consistent and symmetric.all_consistent
    assert family.verdicts[2].polynomial.text() == "X^3 - 13*X^2 + 16*X"
    assert symmetric.verdicts[2].polynomial.text() == "X^3 - 13*X^2 + 15*X"
    assert family != symmetric


def test_radial_profiles_consistent_sample():
    # a couple here; the seeded batch of twenty runs in the acceptance suite
    for coeffs in ((rat(1), rat(1, 3)), (rat(1), rat(-2, 5), rat(3))):
        for n in (1, 2):
            rep = verify_property(Radial(coeffs, n), 3)
            assert rep.all_consistent, (coeffs, n)


# ----------------------------------------------------------------------
# duality and k=3 reference values


def test_duality_negation_hyperbolic():
    [chk] = duality_negation_checks(potential(Hyperbolic(1), 8), [(1, 1)])
    assert (chk.value, chk.dual_value) == (-40, 40) and chk.passed


def test_duality_negation_flat_trivial():
    [chk] = duality_negation_checks(potential(Flat(1), 8), [(1, 1)])
    assert chk.value == 0 and chk.dual_value == 0 and chk.passed


def test_duality_negation_type1():
    for i in (1, 2):
        for j in (1, 2):
            [chk] = duality_negation_checks(potential(TypeI(2, 2), 8), [(i, j)])
            assert chk.passed


def test_third_power_summary_polydisc():
    m = metric_from_potential(potential(Polydisc(2), 8))
    s = third_power_summary(m)
    assert s.lam == -2
    assert s.d3_z1_4 == -40
    assert s.d3_z1z2_sq == -12 == 6 * s.lam
    assert s.relation_holds is False
    assert s.comp_magnitude == 16 and s.comp_sign == -1


def test_third_power_summary_type1(type1_metric_order8):
    s = third_power_summary(type1_metric_order8)
    assert s.d3_z1z2_sq == -24 == 6 * s.lam
    assert s.relation_holds is False
    assert s.cross_terms.all_zero


def test_third_power_summary_hyp2():
    m = metric_from_potential(potential(Hyperbolic(2), 8))
    s = third_power_summary(m)
    assert s.lam == -3 and s.comp_magnitude == 16 and s.d3_z1_4 == -52
    assert s.relation_holds is True  # rank one: the doubling relation holds


# ----------------------------------------------------------------------
# the keyed routes against the jet API: every monomial they read by its
# packed key is read again as a one-term jet, on a metric built afresh so
# that the jet route reads nothing the keyed call cached


def _one_term(n, order, hol):
    """The jet |z^hol|^2 = z^hol zb^hol in n variables."""
    return Jet(n, order, [(BiIndex(tuple(hol), tuple(hol)), 1)])


_EINSTEIN = {spec.label(): spec for spec in einstein_catalog_entries()}


@pytest.mark.parametrize("name", [*_EINSTEIN, "bent hyp:2"])
def test_summary_values_are_powers_of_one_term_jets(name):
    # the bent metric has g_inv denominator D = 243: a dropped power of D
    # in the keyed read shows there
    def build():
        if name == "bent hyp:2":
            return _bent(Hyperbolic(2), 8)
        return metric_from_potential(potential(_EINSTEIN[name], 8))

    s, m = third_power_summary(build()), build()
    n = m.dim
    assert s.d3_z1_4 == power_at_origin(m, _one_term(n, 8, (2,) + (0,) * (n - 1)), 3)
    if n >= 2:
        z1z2 = _one_term(n, 8, (1, 1) + (0,) * (n - 2))
        assert s.d3_z1z2_sq == power_at_origin(m, z1z2, 3)
    if name == "bent hyp:2":
        assert s.d3_z1z2_sq.denominator > 1


@pytest.mark.parametrize("name", [*_EINSTEIN, "sheared hyp:2"])
def test_duality_checks_are_powers_of_one_term_jets(name):
    # the sheared metric has D = 144; the bent one cannot serve here, as
    # phi(z, -zb) of its potential is not Hermitian
    if name == "sheared hyp:2":
        phi = _sheared(Hyperbolic(2), 8).phi
    else:
        phi = potential(_EINSTEIN[name], 8)
    n = phi.dim
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    checks = duality_negation_checks(phi, pairs)
    m, m_dual = metric_from_potential(phi), metric_from_potential(dual_potential(phi))
    assert len(checks) == len(pairs)
    for (i, j), chk in zip(pairs, checks):
        hol = [0] * n
        hol[i - 1] += 1
        hol[j - 1] += 1
        test = _one_term(n, 8, hol)
        want = (power_at_origin(m, test, 3), power_at_origin(m_dual, test, 3))
        assert (chk.value, chk.dual_value) == want, (i, j)


def test_power_polynomial_text():
    p = PowerPolynomial(degree=3, lower=(rat(8), rat(-10)))
    assert p.text() == "X^3 - 10*X^2 + 8*X"
