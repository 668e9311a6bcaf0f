"""Catalog constructors, gates, duality, the diagonal embedding, and the
spec-string grammar."""

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kahlap import catalog
from kahlap.catalog import (
    CatalogGateError,
    Custom,
    DualOf,
    Flat,
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    Product,
    Radial,
    SpecParseError,
    TypeI,
    TypeIDual,
    TypeIII,
    TypeIV,
    _raw_potential,
    diagonal_restriction_check,
    dual_potential,
    matrix_slots,
    parse_spec,
    potential,
    standard_entries,
)
from kahlap.geometry import (
    DegenerateMetricError,
    einstein_data,
    metric_from_potential,
    normality_report,
)
from kahlap.jets import BiIndex, DegreeOverflowError, InsufficientOrderError, Jet, KahlapError, MAX_ORDER
from kahlap.rationals import rat
from oracles import (
    diagonal_components,
    from_text,
    gate_status,
    log_det_potential_by_jets,
    product_potential_by_terms,
    pullback,
    restrict,
    to_text,
)


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


# ----------------------------------------------------------------------
# potentials, exact coefficients


def test_hyperbolic_series():
    phi = potential(Hyperbolic(1), 6)
    want = Jet(
        1,
        6,
        [(bi((1,), (1,)), 1), (bi((2,), (2,)), rat(1, 2)), (bi((3,), (3,)), rat(1, 3))],
    )
    assert phi.agrees(want)


def test_polydisc_series():
    phi = potential(Polydisc(2), 4)
    want = Jet(
        2,
        4,
        [
            (bi((1, 0), (1, 0)), 1),
            (bi((0, 1), (0, 1)), 1),
            (bi((2, 0), (2, 0)), rat(1, 2)),
            (bi((0, 2), (0, 2)), rat(1, 2)),
        ],
    )
    assert phi.agrees(want)


def test_type1_quadratic_and_quartic():
    phi = potential(TypeI(2, 2), 4)
    # quadratic part: sum of |z_i|^2 over the 4 matrix entries
    for i in range(4):
        e = tuple(1 if k == i else 0 for k in range(4))
        assert phi.coefficient(bi(e, e)) == 1
    # quartic: 1/2 tr((ZZ*)^2) contains |z1|^4 / ... with coefficient 1/2
    assert phi.coefficient(bi((2, 0, 0, 0), (2, 0, 0, 0))) == rat(1, 2)


def test_matrix_slot_ordering_is_diagonal_first():
    assert matrix_slots(2, 2) == [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert matrix_slots(2, 3)[:2] == [(0, 0), (1, 1)]


def test_flat_potential_is_exact():
    assert potential(Flat(3), 6).exact


def test_radial_polynomial_profile():
    spec = Radial((rat(1), rat(1, 2)), 2)
    phi = potential(spec, 6)
    s = Jet.abs_square_sum(2, 6)
    assert phi.agrees(s + (s * s).scale(rat(1, 2)))


def test_potentials_have_zero_constant_and_balanced_terms():
    for spec in (Hyperbolic(2), FubiniStudy(2), Polydisc(2), TypeI(2, 2), TypeIV(2)):
        phi = potential(spec, 6)
        assert phi.constant_term() == 0
        for b, _ in phi.terms():
            assert sum(b.hol) == sum(b.anti), spec.label()


def test_every_standard_entry_is_normal_or_gated():
    for spec in standard_entries():
        ok, _ = gate_status(spec, 6)
        if ok:
            m = metric_from_potential(potential(spec, 6))
            assert normality_report(m).ok, spec.label()


# ----------------------------------------------------------------------
# einstein self-checks


@pytest.mark.parametrize(
    "spec,lam",
    [
        (FubiniStudy(1), 2),
        (FubiniStudy(3), 4),
        (Hyperbolic(3), -4),
        (Polydisc(3), -2),
        (TypeI(2, 2), -4),
        (TypeI(2, 3), -5),
        (TypeIDual(2, 2), 4),
        (TypeIV(2), -4),
    ],
)
def test_einstein_constants_of_entries(spec, lam):
    e = einstein_data(metric_from_potential(potential(spec, 6)))
    assert e.is_einstein and e.lam == lam


def test_type3_rank_one_is_hyperbolic():
    assert potential(TypeIII(1), 6) == potential(Hyperbolic(1), 6)


def test_type3_rank_two_gate_rejects():
    with pytest.raises(CatalogGateError):
        potential(TypeIII(2), 6)
    ok, message = gate_status(TypeIII(2), 6)
    assert not ok and "self-check" in message


def test_custom_gate_rejects_non_normal():
    z1 = Jet.variable(2, 6, 1)
    z2 = Jet.variable(2, 6, 2)
    f2 = z2 + z1 * z1
    crooked = z1 * z1.conj() + f2 * f2.conj()  # not normal at 0
    with pytest.raises(CatalogGateError):
        potential(Custom(crooked), 6)


def test_custom_accepts_normal_potential():
    phi = potential(Hyperbolic(2), 6)
    assert potential(Custom(phi, name="h2"), 6) == phi


def _crooked(order):
    z1 = Jet.variable(2, order, 1)
    z2 = Jet.variable(2, order, 2)
    f2 = z2 + z1 * z1
    return z1 * z1.conj() + f2 * f2.conj()


def _lone(order):
    """g(0) = I plus a lone z1^2*zb1*zb2: no conjugate term, not Hermitian."""
    return Jet.abs_square_sum(2, order) + Jet(2, order, [(bi((2, 0), (1, 1)), rat(1, 3))])


def _gate_by_metric(phi, order):
    """The normal-coordinate gate through the metric of the degree-4
    truncation: True when it accepts ``phi``."""
    try:
        return normality_report(metric_from_potential(phi.truncated(min(order, 4)))).ok
    except KahlapError:
        return False


def _gate_cases():
    for spec in standard_entries():
        for order in (4, 6, 8):
            yield pytest.param(_raw_potential(spec, order), order, id=f"{spec}@{order}")
    yield pytest.param(_crooked(6), 6, id="crooked")
    yield pytest.param(_lone(6), 6, id="lone")
    yield pytest.param(Jet.abs_square_sum(2, 6)._flagged(1, False), 6, id="degree-1")


@pytest.mark.parametrize("phi, order", list(_gate_cases()))
def test_gate_read_off_terms_matches_metric_gate(phi, order):
    assert catalog._reads_normal(phi) == _gate_by_metric(phi, order)


def test_gate_rejections_keep_their_errors():
    with pytest.raises(CatalogGateError, match=r"g\[1\]\[2\] has degree-1 terms"):
        potential(Custom(_crooked(6)), 6)
    with pytest.raises(DegenerateMetricError, match=r"^metric not Hermitian: entry \(1,1\)$"):
        potential(Custom(_lone(6)), 6)
    with pytest.raises(InsufficientOrderError):
        potential(Custom(Jet.abs_square_sum(2, 6)._flagged(1, False)), 6)


@pytest.mark.parametrize("spec", [TypeIV(2), TypeIV(3), TypeIII(1), TypeIII(2)])
@pytest.mark.parametrize("order", [8, 10, 12, 2, 3, 4, 5, 6, 7])
def test_optional_gate_probe_is_the_truncated_potential(spec, order):
    # an optional entry builds through degree max(order, 8) once; the lower
    # of the potential and the order-8 gate probe is its truncation
    high, low = max(order, 8), min(order, 8)
    a = _raw_potential(spec, high).truncated(low)
    b = _raw_potential(spec, low)
    assert (a.order, a.valid, a.exact, a.den, a._grades) == (
        b.order, b.valid, b.exact, b.den, b._grades
    )


_LOG_DET_SPECS = (
    [f(n) for n in range(1, 6) for f in (FubiniStudy, Hyperbolic, Polydisc)]
    + [f(p, q) for p in range(1, 4) for q in range(1, 4) for f in (TypeI, TypeIDual)]
    + [TypeIII(m) for m in range(1, 4)]
)


@seed(20201030)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LOG_DET_SPECS), st.integers(2, 12))
@example(TypeI(3, 3), 12)
@example(TypeIDual(3, 2), 11)
@example(TypeIII(3), 12)
@example(FubiniStudy(5), 12)
@example(Hyperbolic(5), 3)
@example(Polydisc(5), 2)
def test_log_det_kernel_matches_the_jet_route(spec, order):
    # the int power sums build the same canonical jet, with the same
    # flags, as log1 on |z|^2 and the Jet-level trace series did
    a = _raw_potential(spec, order)
    b = log_det_potential_by_jets(spec, order)
    assert (a.dim, a.order, a.valid, a.exact, a.den, a._grades) == (
        b.dim, b.order, b.valid, b.exact, b.den, b._grades
    )


_PRODUCTS = [
    "product(flat:1,hyp:1)",
    "product(hyp:1,fs:1)",
    "product(flat:2,radial:1,1/2:1)",
    "product(radial:1,1/2:2,type4:2)",
    "product(dual(hyp:2),type1:1,2)",
    "product(product(hyp:1,fs:2),polydisc:2)",
]


@pytest.mark.parametrize("text", _PRODUCTS)
@pytest.mark.parametrize("order", [4, 8, 9])
def test_product_key_remap_matches_the_term_route(text, order):
    # moving the factors' packed keys to their slots builds the same
    # canonical jet, with the same flags, as padding their terms did: both
    # factors exact, one inexact, both inexact, an optional factor and a
    # nested product
    a = _raw_potential(parse_spec(text), order)
    b = product_potential_by_terms(parse_spec(text), order)
    assert (a.dim, a.order, a.valid, a.exact, a.den, a._grades) == (
        b.dim, b.order, b.valid, b.exact, b.den, b._grades
    )


@pytest.mark.parametrize(
    "spec",
    [FubiniStudy(1), Hyperbolic(1), Polydisc(2), TypeI(1, 2), TypeIDual(2, 1), TypeIII(2)],
)
@pytest.mark.parametrize("order", [MAX_ORDER + 1, 2 * MAX_ORDER + 2])
def test_log_det_kernel_rejects_orders_past_the_packed_limit(spec, order):
    # a degree-32 key would read as degree 1, and from 64 on the exponents
    # carry into the next packed digit, so the kernel refuses such an order
    with pytest.raises(DegreeOverflowError, match=f"got {order}"):
        _raw_potential(spec, order)


def test_log_det_kernel_builds_at_the_packed_limit():
    jet = _raw_potential(Hyperbolic(1), MAX_ORDER)
    assert (jet.order, jet.valid) == (MAX_ORDER, MAX_ORDER)


@pytest.mark.parametrize("order, builds", [(6, 1), (8, 1)])
def test_optional_entry_builds_its_potential_once_from_order_8(monkeypatch, order, builds):
    calls = []
    real = catalog._raw_potential

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catalog, "_raw_potential", counted)
    potential(TypeIV(2), order)
    # the normal gate's degree-4 probe, then the one build through degree 8
    assert calls == [(TypeIV(2), 4)] + [(TypeIV(2), max(order, 8))] * builds


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("order", [6, 8])
def test_rejected_optional_entry_is_never_built_past_degree_4(monkeypatch, m, order):
    calls = []
    real = catalog._raw_potential

    def counted(spec, at):
        calls.append(at)
        return real(spec, at)

    monkeypatch.setattr(catalog, "_raw_potential", counted)
    rejected = rf"^catalog entry rejected by self-check: type3:{m} is not normalized"
    with pytest.raises(CatalogGateError, match=rejected):
        potential(TypeIII(m), order)
    assert calls == [4]


# ----------------------------------------------------------------------
# duality


def test_dual_pairs_are_exact_jets():
    assert potential(DualOf(Hyperbolic(2)), 8) == potential(FubiniStudy(2), 8)
    assert potential(DualOf(TypeI(2, 2)), 8) == potential(TypeIDual(2, 2), 8)


def test_dual_is_involution_on_catalog():
    for spec in (Hyperbolic(2), FubiniStudy(1), Polydisc(2), TypeI(2, 2)):
        phi = potential(spec, 6)
        assert dual_potential(dual_potential(phi)) == phi


def test_type1_rank_one_degeneration():
    assert potential(TypeI(1, 3), 8) == potential(Hyperbolic(3), 8)
    assert potential(TypeI(3, 1), 8) == potential(Hyperbolic(3), 8)


def test_type1_restricts_to_polydisc_on_diagonal_variables():
    # setting the off-diagonal entries to zero (variables 3, 4) leaves the
    # polydisc potential -- what the slot restriction of the lemma reads
    phi = potential(TypeI(2, 2), 8)
    assert restrict(phi, [1, 2]).agrees(potential(Polydisc(2), 8))


# ----------------------------------------------------------------------
# the diagonal restriction


@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 3)])
def test_diagonal_restriction(p, q):
    rc = diagonal_restriction_check(p, q, 8)
    assert rc.potential_matches and rc.metric_matches


def _same_jet(a, b):
    return a == b and (a.valid, a.exact, a.den) == (b.valid, b.exact, b.den)


@pytest.mark.parametrize("order", [4, 6, 8, 9, 12])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 3)])
def test_slot_restriction_is_the_diagonal_pullback(p, q, order):
    phi = potential(TypeI(p, q), order)
    want = pullback(phi, diagonal_components(p, q, order))
    assert _same_jet(catalog._diagonal_restriction(phi, p, q), want)


# on type1:2,3 slots 1, 2 are the diagonal and 3..6 the rest
@pytest.mark.parametrize(
    "hol,anti,kept",
    [
        ((0, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 0), False),
        ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), False),
        ((0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), False),
        ((1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), True),
        ((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), True),
    ],
)
def test_slot_restriction_reads_only_the_diagonal_slots(hol, anti, kept):
    """A term with an off-diagonal digit in either half leaves the
    restriction as it is; a term on the diagonal slots changes it."""
    phi = potential(TypeI(2, 3), 8)
    bumped = phi + Jet(6, 8, [(bi(hol, anti), rat(1, 7))])
    got = catalog._diagonal_restriction(bumped, 2, 3)
    assert (got != catalog._diagonal_restriction(phi, 2, 3)) == kept
    assert _same_jet(got, pullback(bumped, diagonal_components(2, 3, 8)))


# ----------------------------------------------------------------------
# grammar


_ROUND_TRIPS = [
    ("flat:2", 2),
    ("fs:3", 3),
    ("hyp:1", 1),
    ("polydisc:2", 2),
    ("type1:2,2", 4),
    ("type1dual:2,3", 6),
    ("type3:2", 3),
    ("type4:2", 2),
    ("radial:1,1/2,-2/3:2", 2),
    ("product(flat:1,hyp:1)", 2),
    ("dual(type1:2,2)", 4),
    ("product(product(flat:1,flat:1),hyp:2)", 4),
    # a comma that leads a radial coefficient does not split a product
    ("product(radial:1,1/2:1,type4:2)", 3),
    ("product(radial:1,-2/5,3:1,hyp:1)", 2),
    ("product(product(radial:1,1/2:1,hyp:1),radial:1,1/2:1)", 3),
]


@pytest.mark.parametrize("text, dim", _ROUND_TRIPS, ids=[t for t, _ in _ROUND_TRIPS])
def test_parse_round_trip(text, dim):
    spec = parse_spec(text)
    assert spec.label() == text
    assert spec.dim == dim


_REJECTS = [
    ("nope:1", "unknown spec 'nope:1'"),
    ("flat", "unknown spec 'flat'"),
    ("flat:0", "dimension must be positive, got 0"),
    ("type1:2", "bad spec 'type1:2': not enough values to unpack (expected 2, got 1)"),
    ("radial::2", "radial spec needs coefficients: 'radial::2'"),
    ("product(flat:1)", "product needs two comma-separated specs: 'flat:1'"),
    ("product(hyp:1,)", "unknown spec ''"),
    ("product(hyp:1,2)", "product needs two comma-separated specs: 'hyp:1,2'"),
    ("hyp:x", "bad spec 'hyp:x': invalid literal for int() with base 10: 'x'"),
    ("type1:1,2,3", "bad spec 'type1:1,2,3': too many values to unpack (expected 2)"),
    ("flat:1,2", "bad spec 'flat:1,2': invalid literal for int() with base 10: '1,2'"),
    ("type4:2,2", "bad spec 'type4:2,2': invalid literal for int() with base 10: '2,2'"),
    ("polydisc:", "bad spec 'polydisc:': invalid literal for int() with base 10: ''"),
    ("type1dual:0,2", "dimension must be positive, got 0"),
    ("type3:-1", "dimension must be positive, got -1"),
    ("type4:-1", "dimension must be positive, got -1"),
    # fields are ASCII digits: none of the other spellings int() reads
    ("hyp: 2", "bad spec 'hyp: 2': invalid literal for int() with base 10: ' 2'"),
    ("hyp:+2", "bad spec 'hyp:+2': invalid literal for int() with base 10: '+2'"),
    (
        "type1: 2 , 2",
        "bad spec 'type1: 2 , 2': invalid literal for int() with base 10: ' 2 '",
    ),
    (
        "polydisc:1_0",
        "bad spec 'polydisc:1_0': invalid literal for int() with base 10: '1_0'",
    ),
    ("fs:\u0663", "bad spec 'fs:\u0663': invalid literal for int() with base 10: '\u0663'"),
    ("hyp:\uff12", "bad spec 'hyp:\uff12': invalid literal for int() with base 10: '\uff12'"),
    # radial coefficients are p or p/q in the same digits, "-" only in front
    (
        "radial:1,1/2_0:2",
        "bad spec 'radial:1,1/2_0:2': invalid literal for int() with base 10: '1/2_0'",
    ),
    (
        "radial:1,\uff11/2:2",
        "bad spec 'radial:1,\uff11/2:2': invalid literal for int() with base 10: '\uff11/2'",
    ),
    (
        "radial: 1,1/2:2",
        "bad spec 'radial: 1,1/2:2': invalid literal for int() with base 10: ' 1'",
    ),
    (
        "radial:1, 1/2:2",
        "bad spec 'radial:1, 1/2:2': invalid literal for int() with base 10: ' 1/2'",
    ),
    (
        "radial:+1,1/2:2",
        "bad spec 'radial:+1,1/2:2': invalid literal for int() with base 10: '+1'",
    ),
    (
        "radial:1,1/-2:2",
        "bad spec 'radial:1,1/-2:2': invalid literal for int() with base 10: '1/-2'",
    ),
]


@pytest.mark.parametrize("text, message", _REJECTS, ids=[t for t, _ in _REJECTS])
def test_parse_rejects(text, message):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, label",
    [
        ("hyp:007", "hyp:7"),
        ("radial:1,2/4:2", "radial:1,1/2:2"),
        ("product(hyp:1, radial:1,1/2:1)", "product(hyp:1,radial:1,1/2:1)"),
    ],
)
def test_parse_normalizes_leading_zeros_and_fractions(text, label):
    assert parse_spec(text).label() == label


def test_product_block_structure():
    phi = potential(Product(Flat(1), Hyperbolic(1)), 6)
    assert phi.coefficient(bi((1, 0), (1, 0))) == 1
    assert phi.coefficient(bi((0, 2), (0, 2))) == rat(1, 2)
    assert phi.coefficient(bi((1, 1), (1, 1))) == 0


def test_polydisc_golden_text():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "polydisc2_order6.txt"
    phi = potential(Polydisc(2), 6)
    assert to_text(phi) + "\n" == golden.read_text()
    assert from_text(2, 6, golden.read_text()).agrees(phi)
