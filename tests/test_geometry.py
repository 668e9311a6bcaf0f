"""Metric construction, Ricci (two routes), Einstein data, normal
coordinates, and pullbacks."""

import random

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kahlap.catalog import (
    Flat,
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    Product,
    Radial,
    TypeI,
    TypeIDual,
    TypeIII,
    TypeIV,
    _raw_potential,
    einstein_catalog_entries,
    parse_spec,
    potential,
)
from kahlap import geometry, inference, laplacian
from kahlap.geometry import (
    DegenerateMetricError,
    _log_det,
    einstein_data,
    inverse_metric_second_trace,
    metric_from_potential,
    normality_report,
    pullback,
    series_matrix_inverse,
    trace_identity_check,
)
from kahlap.inference import verify_property
from kahlap.jets import BiIndex, InsufficientOrderError, Jet, _mul_capped
from kahlap.rationals import rat
from oracles import (
    NormalizationError,
    claims_hold,
    diagonal_components,
    diff_anti,
    diff_hol,
    eval0,
    inv1,
    kahler_laplacian,
    mat_mul,
    matrices_agree,
    newton_inverse as _newton_inverse,
    ricci,
    ricci_contracted,
    series_determinant,
    to_normal_coordinates,
)
from test_laplacian import _bent, _sheared


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


def hyp1_metric(order=8):
    return metric_from_potential(potential(Hyperbolic(1), order))


# ----------------------------------------------------------------------
# metric_from_potential


def test_flat_metric_is_identity():
    m = metric_from_potential(Jet.abs_square_sum(2, 6))
    one = Jet.one(2, 6)
    zero = Jet.zero(2, 6)
    assert m.g[0][0] == one and m.g[1][1] == one
    assert m.g[0][1] == zero and m.g[1][0] == zero
    assert m.inverse(m.valid)[0][0].agrees(one) and m.inverse(m.valid)[0][1].agrees(zero)


def test_hyperbolic_metric_closed_form():
    m = hyp1_metric(6)
    # g = 1/(1-t)^2 = sum (m+1) t^m, ginv = (1-t)^2
    expected_g = Jet(1, 6, [(bi((k,), (k,)), k + 1) for k in range(3)])
    assert m.g[0][0].agrees(expected_g)
    expected_inv = Jet(1, 6, [(bi((0,), (0,)), 1), (bi((1,), (1,)), -2), (bi((2,), (2,)), 1)])
    assert m.inverse(m.valid)[0][0].agrees(expected_inv)


def test_type1_metric_identity_at_origin(type1_metric_order8):
    m = type1_metric_order8
    for i in range(4):
        for j in range(4):
            assert m.g[i][j].constant_term() == (1 if i == j else 0)


def test_degenerate_metric_rejected():
    # |z1 + z2|^2 has singular constant metric [[1,1],[1,1]]
    z1 = Jet.variable(2, 4, 1)
    z2 = Jet.variable(2, 4, 2)
    s = z1 + z2
    with pytest.raises(DegenerateMetricError, match="^degenerate metric at origin$"):
        metric_from_potential(s * s.conj())
    m = metric_from_potential(Jet.abs_square_sum(2, 4))
    singular = ((m.g[0][0], m.g[0][0]), (m.g[0][0], m.g[0][0]))
    with pytest.raises(DegenerateMetricError, match="^degenerate metric at origin$"):
        series_matrix_inverse(singular, 2)


@pytest.mark.parametrize(
    "potential_jet",
    [
        # g(0) = -1
        -Jet.abs_square_sum(1, 4),
        # g(0) = diag(1, -1): pivots 1, -1
        Jet(2, 4, [(bi((1, 0), (1, 0)), 1), (bi((0, 1), (0, 1)), -1)]),
        # g(0) = [[0, 1], [1, 0]]: invertible only after a row swap
        Jet(2, 4, [(bi((1, 0), (0, 1)), 1), (bi((0, 1), (1, 0)), 1)]),
    ],
)
def test_indefinite_metric_rejected(potential_jet):
    with pytest.raises(
        DegenerateMetricError, match="^metric not positive definite at origin$"
    ):
        metric_from_potential(potential_jet)


_INVERSE_CASES = {
    "hyp:2": lambda: metric_from_potential(potential(Hyperbolic(2), 8)),
    "fs:3": lambda: metric_from_potential(potential(FubiniStudy(3), 8)),
    "polydisc:3": lambda: metric_from_potential(potential(Polydisc(3), 8)),
    "type1:2,2": lambda: metric_from_potential(potential(TypeI(2, 2), 8)),
    "bent hyp:2": lambda: _bent(Hyperbolic(2), 8),
    "sheared hyp:2": lambda: _sheared(Hyperbolic(2), 8),
    "sheared type1:2,2": lambda: _sheared(TypeI(2, 2), 8),
}


@pytest.mark.parametrize("name", list(_INVERSE_CASES))
def test_series_inverse_matches_newton(name):
    m = _INVERSE_CASES[name]()
    if name.startswith("sheared"):
        # g(0) off the diagonal, and g(0)^{-1} with denominators
        assert m.g[0][1].constant_term() != 0
        assert any(e.den > 1 for row in m.inverse(m.valid) for e in row)
    for target in sorted({0, 1, m.valid}):
        got = series_matrix_inverse(m.g, target)
        want = _newton_inverse(m.g, target)
        for row_got, row_want in zip(got, want):
            for a, b in zip(row_got, row_want):
                assert a == b, (target, a, b)
                assert (a.order, a.valid, a.exact) == (b.order, b.valid, b.exact)


def test_metric_inverse_identity_property():
    for spec in (Hyperbolic(2), FubiniStudy(2), TypeI(2, 2)):
        m = metric_from_potential(potential(spec, 6))
        n = m.dim
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    p = m.g[i][k] * m.inverse(m.valid)[k][j]
                    acc = p if acc is None else acc + p
                target = Jet.constant(acc.dim, acc.order, 1 if i == j else 0)
                assert acc.agrees(target)


@pytest.mark.parametrize("spec", [Polydisc(3), Product(Flat(1), Hyperbolic(1))])
def test_mat_mul_skips_zero_products_but_keeps_their_flags(spec):
    m = metric_from_potential(potential(spec, 8))
    n, order = m.dim, m.order
    # exact entries: zeros, and a degree-6 diagonal that meets a zero
    # factor above small caps
    six = Jet.abs_square_sum(n, order) * Jet.abs_square_sum(n, order)
    six = six * Jet.abs_square_sum(n, order)
    e = tuple(
        tuple(six if i == j else Jet.zero(n, order) for j in range(n)) for i in range(n)
    )
    for a, b in ((m.g, m.inverse(m.valid)), (m.inverse(m.valid), m.g), (m.g, e), (e, m.inverse(m.valid)), (e, e)):
        for cap in range(order + 1):
            got = mat_mul(a, b, cap)
            for i in range(n):
                for j in range(n):
                    want = None
                    for k in range(n):
                        p = _mul_capped(a[i][k], b[k][j], cap).lifted(order)
                        want = p if want is None else want + p
                    assert got[i][j] == want
                    assert (got[i][j].valid, got[i][j].exact) == (want.valid, want.exact)
    # an exact zero product stays exact even where the other factor's degree
    # exceeds the cap: e * e off the diagonal, and _mul_capped directly
    for cap in range(order + 1):
        assert mat_mul(e, e, cap)[0][1].exact
        for x, y in ((Jet.zero(n, order), six), (six, Jet.zero(n, order))):
            p = _mul_capped(x, y, cap)
            assert p.is_zero and p.exact and p.valid == p.order == cap
    assert not _mul_capped(six, six, 11).exact and _mul_capped(six, six, 12).exact


def test_metric_hermitian_symmetry(type1_metric_order8):
    m = type1_metric_order8
    for i in range(4):
        for j in range(4):
            assert m.g[i][j].conj() == m.g[j][i]


# ----------------------------------------------------------------------
# the contraction convention, pinned by an isometry oracle


def test_laplacian_convention_flat_pullback():
    """Potential |z1|^2 + |z2 + z1^2|^2 is flat space in funny coordinates;
    the Laplacian of |z2 + z1^2|^2 must be identically 1."""
    z1 = Jet.variable(2, 6, 1)
    z2 = Jet.variable(2, 6, 2)
    f2 = z2 + z1 * z1
    phi = z1 * z1.conj() + f2 * f2.conj()
    m = metric_from_potential(phi)
    lap = kahler_laplacian(m, f2 * f2.conj())
    assert lap.agrees(Jet.one(2, 6))


# ----------------------------------------------------------------------
# Ricci and Einstein data


def test_flat_ricci_vanishes():
    m = metric_from_potential(Jet.abs_square_sum(2, 6))
    assert all(e.is_zero for row in ricci(m) for e in row)


def test_hyperbolic_ricci_proportional():
    m = hyp1_metric(8)
    ric = ricci(m)
    assert ric[0][0].agrees(m.g[0][0].scale(-2), 4)


def test_projective_space_ricci():
    m = metric_from_potential(potential(FubiniStudy(2), 8))
    ric = ricci(m)
    for i in range(2):
        for j in range(2):
            assert ric[i][j].agrees(m.g[i][j].scale(3), 4)


@pytest.mark.parametrize(
    "spec,lam",
    [
        (Hyperbolic(1), -2),
        (Hyperbolic(2), -3),
        (Hyperbolic(3), -4),
        (FubiniStudy(1), 2),
        (FubiniStudy(2), 3),
        (FubiniStudy(3), 4),
        (Polydisc(2), -2),
    ],
)
def test_einstein_constants(spec, lam):
    e = einstein_data(metric_from_potential(potential(spec, 8)))
    assert e.is_einstein and e.lam == lam


def test_type1_einstein(type1_metric_order8):
    e = type1_metric_order8.einstein
    assert e.is_einstein and e.lam == -4


def test_product_not_einstein():
    m = metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 6))
    e = einstein_data(m)
    assert not e.is_einstein
    ric = ricci(m)
    assert eval0(ric[0][0]) == 0 and eval0(ric[1][1]) == -2


def test_ricci_two_routes_agree_on_catalog():
    for spec in (Hyperbolic(2), FubiniStudy(2), Polydisc(2), TypeI(2, 2)):
        m = metric_from_potential(potential(spec, 8))
        assert matrices_agree(ricci(m), ricci_contracted(m, cap=4), 4), spec.label()


def _determinant_log_det(m):
    """log det(g) - log det(g(0)) through m.valid by the determinant route:
    g truncated at m.valid, pivoted determinant, scaled to constant 1, log1."""
    det = series_determinant(tuple(tuple(e.truncated(m.valid) for e in row) for row in m.g))
    return det.scale(rat(1) / det.constant_term()).log1()


def _jacobi_cases():
    cases = {}
    for spec in (
        Flat(1), Flat(2), FubiniStudy(1), FubiniStudy(3), Hyperbolic(1), Hyperbolic(3),
        Polydisc(3), TypeI(2, 2), TypeIDual(2, 2), TypeIV(3),
        Product(Hyperbolic(2), FubiniStudy(2)), Radial((rat(1), rat(1, 2)), 2),
    ):
        for order in (4, 6, 8):
            cases[f"{spec.label()} order {order}"] = (spec, order, None)
    # rejected by the catalog gate, so built raw: a metric that is not Einstein
    cases["type3:2 order 8"] = (TypeIII(2), 8, None)
    for spec in (Hyperbolic(2), TypeI(2, 2)):
        for order in (6, 8):
            cases[f"bent {spec.label()} order {order}"] = (spec, order, _bent)
            cases[f"sheared {spec.label()} order {order}"] = (spec, order, _sheared)
    return cases


_JACOBI_CASES = _jacobi_cases()


@pytest.mark.parametrize("name", list(_JACOBI_CASES))
def test_log_det_matches_determinant_route(name):
    spec, order, build = _JACOBI_CASES[name]
    if build is not None:
        m = build(spec, order)
    else:
        m = metric_from_potential(_raw_potential(spec, order))
    got, want = _log_det(m), _determinant_log_det(m)
    assert got == want
    assert (got.order, got.valid, got.exact, got.den) == (
        want.order, want.valid, want.exact, want.den
    )
    assert got.order == m.valid
    if name.startswith("sheared"):
        # g(0) is not the identity, and log det(g(0)) drops out of L
        assert m.g[0][1].constant_term() != 0 and m.g[1][1].constant_term() != 1
        assert got.constant_term() == 0 and not got.is_zero
    if name.startswith("flat"):
        # the log of a constant determinant is an exact zero on both routes
        assert got.is_zero and got.exact


_SOUNDNESS_SPECS = {
    spec.label(): spec
    for spec in (Flat(1), Flat(2), Hyperbolic(1), Hyperbolic(2), FubiniStudy(2), Polydisc(2))
}
_SOUNDNESS_BUILDS = {
    "plain": lambda spec, order: metric_from_potential(potential(spec, order)),
    "bent": _bent,
    "sheared": _sheared,
}


@seed(20201030)
@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from(sorted(_SOUNDNESS_SPECS)),
    order=st.integers(2, 6),
    build=st.sampled_from(sorted(_SOUNDNESS_BUILDS)),
)
# the all-zero log det: metric valid only at degree 0, g constant there but
# not exact, and g exactly constant
@example(label="hyp:1", order=2, build="plain")
@example(label="hyp:2", order=2, build="bent")
@example(label="flat:2", order=4, build="plain")
def test_inverse_and_log_det_claim_only_valid_coefficients(label, order, build):
    spec = _SOUNDNESS_SPECS[label]
    if spec.dim < 2:
        build = "plain"  # bent and sheared change two variables
    m = _SOUNDNESS_BUILDS[build](spec, order)
    wide = _SOUNDNESS_BUILDS[build](spec, order + 4)
    wide_inverse = series_matrix_inverse(wide.g, wide.valid)
    for target in sorted({max(m.valid - 1, 0), m.valid}):
        got = series_matrix_inverse(m.g, target)
        assert all(
            claims_hold(a, b)
            for row_a, row_b in zip(got, wide_inverse)
            for a, b in zip(row_a, row_b)
        ), (label, order, build, target)
    assert all(
        claims_hold(a, b)
        for row_a, row_b in zip(m.inverse(), wide_inverse)
        for a, b in zip(row_a, row_b)
    )
    logdet = _log_det(m)
    assert claims_hold(logdet, _log_det(wide)), (label, order, build)
    if logdet.exact:
        # known to vanish only where g is an exact constant
        assert logdet.is_zero
        assert all(e.exact and e.max_degree() <= 0 for row in m.g for e in row)


def test_one_elimination_of_g0_per_metric(monkeypatch):
    counts = {"eliminations": 0, "metrics": 0, "families": 0, "memo reads": 0}
    eliminate, init = geometry._eliminate, geometry.MetricJet.__init__
    family, memo = inference.build_test_family, laplacian.monomial_powers_at_origin

    def counting_eliminate(rows):
        counts["eliminations"] += 1
        return eliminate(rows)

    def counting_init(self, g):
        counts["metrics"] += 1
        init(self, g)

    def counting_family(*args):
        counts["families"] += 1
        return family(*args)

    def counting_memo(*args):
        counts["memo reads"] += 1
        return memo(*args)

    monkeypatch.setattr(geometry, "_eliminate", counting_eliminate)
    monkeypatch.setattr(geometry.MetricJet, "__init__", counting_init)
    monkeypatch.setattr(inference, "build_test_family", counting_family)
    monkeypatch.setattr(inference, "monomial_powers_at_origin", counting_memo)
    monkeypatch.setattr(laplacian, "monomial_powers_at_origin", counting_memo)
    # U(n)-invariant and consistent through k = 3, decided from its radial
    # profile: no metric, no family, no memo; refuted at k = 3, with one
    # family and its memo read by the value table and the k = 3 summary;
    # and an optional entry whose gate builds a metric
    for text, metrics, families, reads in (
        ("hyp:2", 0, 0, 0), ("type1:2,2", 1, 1, 2), ("type4:2", 2, 1, 2)
    ):
        counts.update(dict.fromkeys(counts, 0))
        verify_property(parse_spec(text), 3)
        assert counts == {
            "eliminations": metrics, "metrics": metrics, "families": families, "memo reads": reads
        }, text


def _full_order_ricci(m):
    """-d dbar log det(g) with every series product at the ambient order."""
    det = series_determinant(m.g)
    logdet = det.scale(rat(1) / det.constant_term()).log1()
    return tuple(
        tuple(-(diff_anti(diff_hol(logdet, i + 1), j + 1)) for j in range(m.dim))
        for i in range(m.dim)
    )


@pytest.mark.parametrize(
    "spec",
    [Hyperbolic(2), FubiniStudy(2), Polydisc(2), TypeI(2, 2), Product(Flat(1), Hyperbolic(1))],
    ids=lambda spec: spec.label(),
)
def test_ricci_matches_full_order_route(spec):
    m = metric_from_potential(potential(spec, 8))
    ric = ricci(m)
    assert all(e.order == m.valid and e.valid == m.valid - 2 for row in ric for e in row)
    assert matrices_agree(ric, _full_order_ricci(m), m.valid - 2)


@pytest.mark.parametrize(
    "spec,order",
    [(Hyperbolic(1), 8), (Hyperbolic(2), 8), (TypeI(2, 2), 8), (FubiniStudy(2), 10)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_einstein_check_sees_the_top_valid_degree(spec, order):
    """Adding |z1|^N to an order-N potential changes g first in degree N-2
    and Ricci first in degree N-4, the checked degree: the perturbed metric
    must fail the Einstein test, so log det(g) must be computed through
    degree N-2 = m.valid."""
    phi = potential(spec, order)
    n = spec.dim
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    half = tuple(order // 2 * x for x in e1)
    bump = Jet(n, order, [(bi(half, half), 1)])
    plain = einstein_data(metric_from_potential(phi))
    m = metric_from_potential(phi + bump)
    bumped = einstein_data(m)
    assert plain.is_einstein and plain.checked_degree == order - 4
    assert bumped.checked_degree == m.valid - 2 == order - 4
    assert not bumped.is_einstein and bumped.lam == plain.lam


def test_determinant_times_inverse_det():
    m = metric_from_potential(potential(Hyperbolic(2), 8))
    det = series_determinant(m.g)
    # det of the closed-form hyperbolic metric is (1-t)^(-(n+1))
    t = Jet.abs_square_sum(2, 8)
    target = inv1(Jet.one(2, 8) - t)
    cube = target * target * target
    assert det.agrees(cube, 6)


# ----------------------------------------------------------------------
# normal coordinates


def test_catalog_entries_are_normal():
    for spec in (Flat(2), Hyperbolic(2), FubiniStudy(3), Polydisc(2), TypeI(2, 2)):
        m = metric_from_potential(potential(spec, 6))
        assert normality_report(m).ok, spec.label()


def test_non_normal_first_derivatives():
    phi = Jet(
        1,
        6,
        [(bi((1,), (1,)), 1), (bi((2,), (1,)), rat(1, 2)), (bi((1,), (2,)), rat(1, 2))],
    )
    report = normality_report(metric_from_potential(phi))
    assert not report.ok and report.identity_at_origin and not report.first_order_vanishes


def test_non_normal_scaling():
    phi = Jet(1, 6, [(bi((1,), (1,)), 2)])
    report = normality_report(metric_from_potential(phi))
    assert not report.ok and not report.identity_at_origin


def test_to_normal_coordinates_fixes_example():
    phi = Jet(
        1,
        6,
        [(bi((1,), (1,)), 1), (bi((2,), (1,)), rat(1, 2)), (bi((1,), (2,)), rat(1, 2))],
    )
    fixed = to_normal_coordinates(phi)
    assert normality_report(metric_from_potential(fixed)).ok


def test_to_normal_coordinates_identity_when_already_normal():
    phi = potential(Hyperbolic(1), 6)
    assert to_normal_coordinates(phi).agrees(phi)


def test_to_normal_coordinates_rejects_scaled_metric():
    phi = Jet(1, 6, [(bi((1,), (1,)), 2)])
    with pytest.raises(NormalizationError):
        to_normal_coordinates(phi)


# ----------------------------------------------------------------------
# trace identity at the origin


def test_trace_identity_hyperbolic():
    tc = trace_identity_check(hyp1_metric(6))
    assert tc.passed and tc.matrix[0][0] == -2


def test_trace_identity_type1(type1_metric_order8):
    tc = trace_identity_check(type1_metric_order8)
    assert tc.passed
    for i in range(4):
        for j in range(4):
            assert tc.matrix[i][j] == (-4 if i == j else 0)


def test_trace_identity_product_fails():
    m = metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 6))
    tc = trace_identity_check(m)
    assert not tc.passed and not tc.is_einstein
    assert tc.matrix[0][0] == 0 and tc.matrix[1][1] == -2
    assert tc.matrix[0][1] == 0 and tc.matrix[1][0] == 0


def _second_trace_by_derivatives(m):
    """S[i][j] = sum_h d_h dbar_h g_inv[i][j] at 0 by whole-jet derivatives."""
    x = m.inverse(2)
    n = m.dim
    return tuple(
        tuple(
            sum((eval0(diff_anti(diff_hol(x[i][j], h + 1), h + 1)) for h in range(n)), rat(0))
            for j in range(n)
        )
        for i in range(n)
    )


_SECOND_TRACE_SPECS = einstein_catalog_entries() + [Product(Flat(1), Hyperbolic(1))]


@pytest.mark.parametrize("order", [6, 8])
@pytest.mark.parametrize("spec", _SECOND_TRACE_SPECS, ids=str)
def test_second_trace_reads_degree_2_keys_as_the_derivatives_do(spec, order):
    m = metric_from_potential(potential(spec, order))
    assert inverse_metric_second_trace(m) == _second_trace_by_derivatives(m)


@pytest.mark.parametrize("build", [_bent, _sheared])
def test_second_trace_off_catalog_matches_derivatives(build):
    # g_inv has off-diagonal and pure degree-2 terms and denominators here
    m = build(Hyperbolic(2), 6)
    assert inverse_metric_second_trace(m) == _second_trace_by_derivatives(m)


def test_second_trace_needs_an_inverse_valid_through_degree_2():
    m = metric_from_potential(potential(Hyperbolic(2), 3))
    assert max(e.valid for row in m.inverse(2) for e in row) < 2
    for route in (inverse_metric_second_trace, _second_trace_by_derivatives):
        with pytest.raises(InsufficientOrderError, match="validity exhausted"):
            route(m)


# ----------------------------------------------------------------------
# pullback


def test_pullback_identity_map():
    phi = potential(Hyperbolic(2), 6)
    comps = [Jet.variable(2, 6, i) for i in (1, 2)]
    assert pullback(phi, comps).agrees(phi)


def test_pullback_projection():
    phi = Jet.abs_square_sum(2, 6)
    comps = [Jet.variable(1, 6, 1), Jet.zero(1, 6)]
    assert pullback(phi, comps) == Jet.abs_square_sum(1, 6)


def test_pullback_diagonal_gives_polydisc():
    phi = potential(TypeI(2, 2), 8)
    pulled = pullback(phi, diagonal_components(2, 2, 8))
    assert pulled.agrees(potential(Polydisc(2), 8), 8)


def test_metric_commutes_with_diagonal_pullback():
    """Restricting the metric matrix to the embedded directions equals the
    metric of the pulled-back potential (the embedding is linear)."""
    phi = potential(TypeI(2, 2), 8)
    comps = diagonal_components(2, 2, 8)
    pulled_metric = metric_from_potential(pullback(phi, comps))
    big = metric_from_potential(phi)
    for a in range(2):
        for b in range(2):
            restricted = pullback(big.g[a][b], comps)
            assert restricted.agrees(pulled_metric.g[a][b])


def _pullback_per_term(phi, components):
    """Composition with one jet sum per term of phi, in graded order: the
    loop the integer accumulator replaced, kept here as its oracle."""
    order, src_dim = components[0].order, components[0].dim
    conj_components = [c.conj() for c in components]

    def power(idx, e, anti):
        out = Jet.one(src_dim, order)
        for _ in range(e):
            out = _mul_capped(out, conj_components[idx] if anti else components[idx], order)
        return out

    total = Jet.zero(src_dim, order)
    limit = min(phi._veff, phi.order)
    for term, c in phi.terms():
        if term.degree > limit:
            continue
        prod = None
        for anti, exps in ((False, term.hol), (True, term.anti)):
            for idx, e in enumerate(exps):
                if e:
                    p = power(idx, e, anti)
                    prod = p if prod is None else _mul_capped(prod, p, order)
        if prod is None:
            prod = Jet.one(src_dim, order)
        total = total + prod.scale(c)
    valid = min(limit, total._veff, order)
    return total._flagged(valid, total.exact and phi.exact)


def _bent_map(n, order):
    w = [Jet.variable(n, order, i) for i in range(1, n + 1)]
    return [w[0] + w[1] * w[1], w[1] + (w[0] * w[1]).scale(rat(1, 3))] + w[2:]


def _fraction_map(n, order):
    """Coefficients over 2, 3, 5 and 7, so the common denominator grows."""
    w = [Jet.variable(n, order, i) for i in range(1, n + 1)]
    return [
        w[0].scale(rat(1, 2)) + (w[1] * w[1]).scale(rat(1, 5)),
        w[1].scale(rat(1, 3)) + (w[0] * w[1]).scale(rat(2, 7)),
    ] + w[2:]


def _poly(n, order, terms):
    return Jet(n, order, [(bi(h, a), c) for h, a, c in terms])


def _random_pullback(seed):
    """A random polynomial phi (exact or not) and a random polynomial map
    with rational coefficients, some components zero, some inexact."""
    rng = random.Random(seed)
    n, src, order = rng.randint(1, 3), rng.randint(1, 2), rng.randint(6, 8)

    def exps(dim, top):
        out = [0] * dim
        for _ in range(rng.randint(0, top)):
            out[rng.randrange(dim)] += 1
        return tuple(out)

    phi = Jet(n, order, [
        (bi(h, a), rat(rng.randint(-5, 5), rng.randint(1, 4)))
        for h, a in ((exps(n, 3), exps(n, 3)) for _ in range(rng.randint(1, 6)))
    ])
    if rng.random() < 0.3:
        phi = phi._flagged(rng.randint(2, order), False)
    comps = []
    for _ in range(n):
        if rng.random() < 0.3:
            comp = Jet.zero(src, order)
        else:
            comp = Jet(src, order, [
                (bi(h, (0,) * src), rat(rng.randint(-4, 4), rng.randint(1, 6)))
                for h in (exps(src, 3) for _ in range(rng.randint(1, 3)))
                if sum(h)
            ])
        if rng.random() < 0.2:
            comp = comp._flagged(rng.randint(1, order), False)
        comps.append(comp)
    return phi, comps


def _pullback_cases():
    cases = {}
    for spec in (Hyperbolic(2), TypeI(2, 2)):
        phi = potential(spec, 8)
        cases[f"bent {spec.label()}"] = (phi, _bent_map(spec.dim, 8))
        cases[f"fractions {spec.label()}"] = (phi, _fraction_map(spec.dim, 8))
        inexact = [c._flagged(6, False) for c in _bent_map(spec.dim, 8)]
        cases[f"inexact bent {spec.label()}"] = (phi, inexact)
    for p, q in ((2, 2), (2, 3)):
        phi = potential(TypeI(p, q), 8)
        comps = diagonal_components(p, q, 8)
        cases[f"diagonal type1:{p},{q}"] = (phi, comps)
        cases[f"inexact diagonal type1:{p},{q}"] = (phi, [c._flagged(7, False) for c in comps])
    # exact phi, a zero component, and a product that overflows order 6 before
    # it meets the zero: (w1 + w1^3)^2 w2^2, then z3 -> 0
    w1, w2 = Jet.variable(2, 6, 1), Jet.variable(2, 6, 2)
    overflow = [w1 + w1 * w1 * w1, w2, Jet.zero(2, 6)]
    phi = _poly(3, 6, [((0, 1, 0), (0, 1, 0), 1), ((2, 2, 1), (0, 0, 0), 1)])
    cases["zero after an overflow"] = (phi, overflow)
    phi = _poly(3, 6, [((0, 1, 0), (0, 1, 0), 1), ((0, 0, 1), (2, 2, 0), 1)])
    cases["zero before an overflow"] = (phi, overflow)
    phi = _poly(3, 6, [((0, 1, 0), (0, 1, 0), 1), ((1, 1, 1), (0, 0, 0), 1)])
    cases["zero with no overflow"] = (phi, overflow)
    for seed in range(60):
        cases[f"random {seed}"] = _random_pullback(seed)
    return cases


_PULLBACK_CASES = _pullback_cases()


@pytest.mark.parametrize("name", list(_PULLBACK_CASES))
def test_pullback_matches_per_term_oracle(name):
    phi, comps = _PULLBACK_CASES[name]
    got, want = pullback(phi, comps), _pullback_per_term(phi, comps)
    assert got == want
    assert (got.order, got.valid, got.exact, got.den) == (
        want.order, want.valid, want.exact, want.den
    )
    if name == "zero after an overflow":
        assert not got.exact
    if name in ("zero before an overflow", "zero with no overflow"):
        assert got.exact
