"""Laplacian application, operator powers, budgets, expanded identities,
and the univariate radial-reduction oracle."""

import itertools
import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from kahlap import inference, radial
from kahlap.catalog import (
    Custom,
    Flat,
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    Product,
    TypeI,
    einstein_catalog_entries,
    parse_spec,
    potential,
)
from kahlap.geometry import metric_from_potential, pullback
from kahlap.jets import (
    BiIndex,
    DimensionMismatchError,
    InsufficientOrderError,
    Jet,
    KahlapError,
    _pack_bi,
)
from kahlap.laplacian import (
    NotEinsteinError,
    _memo,
    _third_power_weights,
    euclidean_moments,
    inverse_metric_cross_hessian,
    monomial_powers_at_origin,
    power_at_origin,
    powers_at_origin,
    second_power_check,
    third_power_checks,
    third_power_rhs,
)
from kahlap.rationals import rat
from oracles import (
    dense_third_power_weights as _dense_third_power_weights,
    diff_anti,
    diff_hol,
    euclidean_laplacian,
    eval0,
    flat_profile,
    fubini_study_profile,
    hyperbolic_profile,
    kahler_laplacian,
    third_power_check,
)


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


def mono(dim, order, hol, anti):
    return Jet(dim, order, [(bi(hol, anti), 1)])


@pytest.fixture(scope="module")
def hyp1():
    return metric_from_potential(potential(Hyperbolic(1), 10))


@pytest.fixture(scope="module")
def fs1():
    return metric_from_potential(potential(FubiniStudy(1), 10))


# ----------------------------------------------------------------------
# Euclidean Laplacian


def test_euclidean_examples():
    assert euclidean_laplacian(mono(1, 4, (2,), (2,))) == mono(1, 4, (1,), (1,)).scale(4)
    got = euclidean_laplacian(mono(2, 4, (1, 1), (1, 1)))
    want = mono(2, 4, (0, 1), (0, 1)) + mono(2, 4, (1, 0), (1, 0))
    assert got == want
    assert euclidean_laplacian(mono(1, 4, (2,), (0,))).is_zero


def test_euclidean_moment_closed_form():
    # Lapc^k (z^alpha zb^alpha)(0) = k! * prod(alpha_i!) when |alpha| = k
    import math

    for alpha in ((2,), (3,)):
        phi = mono(1, 8, alpha, alpha)
        k = sum(alpha)
        assert euclidean_moments(phi, k)[k - 1] == math.factorial(alpha[0]) ** 2
    phi = mono(2, 8, (2, 1), (2, 1))
    assert euclidean_moments(phi, 3)[2] == 12  # 3! * 2! * 1!
    # the closed form agrees with iterating the operator, on multi-term jets
    # mixing balanced and unbalanced terms of every degree
    jets = [
        Jet(1, 8, [(bi((1,), (1,)), 3), (bi((2,), (1,)), 5), (bi((3,), (3,)), rat(-1, 2))]),
        Jet(2, 8, [(bi((0, 0), (0, 0)), 7), (bi((1, 1), (1, 1)), 2), (bi((2, 0), (0, 2)), 4),
                   (bi((1, 0), (1, 0)), -1), (bi((2, 1), (2, 1)), rat(1, 3)),
                   (bi((0, 3), (0, 1)), 9), (bi((0, 4), (0, 4)), 11)]),
    ]
    for phi in jets:
        want = []
        psi = phi
        for _ in range(4):
            psi = euclidean_laplacian(psi)
            want.append(eval0(psi))
        assert euclidean_moments(phi, 4) == want


def test_flat_equals_euclidean():
    m = metric_from_potential(Jet.abs_square_sum(2, 8))
    phi = mono(2, 8, (2, 1), (1, 2))
    assert kahler_laplacian(m, phi).agrees(euclidean_laplacian(phi))


# ----------------------------------------------------------------------
# Kahler Laplacian on curved metrics


def test_hyperbolic_laplacian_of_z1_fourth(hyp1):
    got = kahler_laplacian(hyp1, mono(1, 10, (2,), (2,)))
    want = Jet(1, 10, [(bi((1,), (1,)), 4), (bi((2,), (2,)), -8), (bi((3,), (3,)), 4)])
    assert got.agrees(want)


def test_bidegree_balance_is_preserved(hyp1):
    phi = mono(1, 10, (2,), (3,))
    out = kahler_laplacian(hyp1, phi)
    assert all(sum(b.hol) - sum(b.anti) == -1 for b, _ in out.terms())


def test_unbalanced_powers_vanish_at_origin(hyp1):
    for hol, anti in (((2,), (1,)), ((3,), (1,)), ((1,), (3,))):
        phi = mono(1, 10, hol, anti)
        for k in (1, 2, 3):
            assert power_at_origin(hyp1, phi, k) == 0


def test_power_values_hyperbolic(hyp1):
    t2 = mono(1, 10, (2,), (2,))
    assert power_at_origin(hyp1, t2, 2) == 4
    assert power_at_origin(hyp1, t2, 3) == -40


def test_power_values_fubini_study(fs1):
    t2 = mono(1, 10, (2,), (2,))
    assert power_at_origin(fs1, t2, 3) == 40


def test_powers_chain_matches_single_calls(hyp1):
    t1 = mono(1, 10, (1,), (1,))
    chain = powers_at_origin(hyp1, t1, 4)
    assert chain == [power_at_origin(hyp1, t1, k) for k in (1, 2, 3, 4)]
    assert chain == [1, -2, 8, -56]


def test_linearity_of_powers(hyp1):
    a = mono(1, 10, (1,), (1,))
    b = mono(1, 10, (2,), (2,))
    combo = a.scale(rat(2, 3)) + b.scale(-5)
    for k in (1, 2, 3):
        expect = rat(2, 3) * power_at_origin(hyp1, a, k) - 5 * power_at_origin(hyp1, b, k)
        assert power_at_origin(hyp1, combo, k) == expect


# the reference: iterate the jet operator, then read each value at 0
def _chain_at_origin(m, phi, kmax):
    values, psi = [], phi
    for _ in range(kmax):
        psi = kahler_laplacian(m, psi)
        values.append(eval0(psi))
    return values


def _bent(spec, order):
    """The metric of spec pulled back under (w1 + w2^2, w2 + w1 w2 / 3),
    the other variables fixed: tangent to the identity, so g(0) = I, but
    with no torus symmetry left to make Lap^k of unbalanced monomials
    vanish at the origin."""
    n = spec.dim
    w = [Jet.variable(n, order, i) for i in range(1, n + 1)]
    comps = [w[0] + w[1] * w[1], w[1] + (w[0] * w[1]).scale(rat(1, 3))] + w[2:]
    return metric_from_potential(pullback(potential(spec, order), comps))


def _sheared(spec, order):
    """The metric of spec pulled back under the linear map
    (w1 + w2 / 2, w2 / 3), the other variables fixed: g(0) is not diagonal
    and its inverse has denominators."""
    n = spec.dim
    w = [Jet.variable(n, order, i) for i in range(1, n + 1)]
    comps = [w[0] + w[1].scale(rat(1, 2)), w[1].scale(rat(1, 3))] + w[2:]
    return metric_from_potential(pullback(potential(spec, order), comps))


@pytest.fixture(scope="module")
def reference_metrics(type1_metric_order8):
    metrics = {
        spec.label(): metric_from_potential(potential(spec, 8))
        for spec in (Hyperbolic(2), FubiniStudy(2), Polydisc(2))
    }
    metrics["type1:2,2"] = type1_metric_order8
    for spec in (Hyperbolic(2), TypeI(2, 2)):
        metrics["bent " + spec.label()] = _bent(spec, 8)
    return metrics


@st.composite
def exponents(draw, n, total):
    """Exponent vectors of length n summing to ``total``."""
    out = []
    for _ in range(n - 1):
        out.append(draw(st.integers(0, total - sum(out))))
    out.append(total - sum(out))
    return tuple(draw(st.permutations(out)))


@st.composite
def polynomials(draw, n, k):
    """Exact polynomials with rational coefficients, bidegree <= (k, k).

    Most terms have equal hol and anti degree, because on the catalog
    metrics only those can be nonzero at the origin."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        hol = draw(exponents(n, draw(st.integers(0, k))))
        anti = draw(
            st.one_of(
                st.just(hol),
                exponents(n, sum(hol)),
                st.integers(0, k).flatmap(lambda d: exponents(n, d)),
            )
        )
        c = rat(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms.append((BiIndex(hol, anti), c))
    return terms


@pytest.mark.parametrize(
    "name", ["hyp:2", "fs:2", "polydisc:2", "type1:2,2", "bent hyp:2", "bent type1:2,2"]
)
@seed(20201030)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_powers_match_iterated_jet_laplacian(reference_metrics, name, data):
    # every k is queried on the same metric in shuffled order, so the
    # monomial memo warmed at one k serves the others; power_at_origin
    # is level k of powers_at_origin.  The bent metrics have g_inv denominator
    # D = 243, so a wrong power of D or a dropped denominator of phi shows
    # there, where the catalog metrics (D = 1) cannot see it
    m = reference_metrics[name]
    for k in data.draw(st.permutations([1, 2, 3])):
        phi = Jet(m.dim, m.order, data.draw(polynomials(m.dim, k)))
        chain = _chain_at_origin(m, phi, k)
        assert powers_at_origin(m, phi, k) == chain, (k, phi)
        assert power_at_origin(m, phi, k) == chain[k - 1], (k, phi)


def test_origin_denominator_is_the_lcm_of_the_inverse_metric(reference_metrics):
    # D is the lcm over the degrees the memo reads: through m.valid - 1 = 5
    # at k = 3 on these order-8 metrics, one degree short of the whole g_inv
    assert _memo(reference_metrics["hyp:2"], 2, 3).den == 1
    bent = reference_metrics["bent hyp:2"]
    assert _memo(bent, 2, 3).den == 243
    assert 243 == math.lcm(*(e.den for row in bent.inverse(5) for e in row))


def test_monomial_rows_scale_by_the_origin_denominator(reference_metrics):
    # the value table's int numerators over D^s, on a metric with
    # D = 243, against powers_at_origin of each monomial
    m = reference_metrics["bent hyp:2"]
    monomials = [bi(h, a) for h in _exps(2, 3) for a in _exps(2, 3)]
    den, levels = monomial_powers_at_origin(m, 2, [_pack_bi(i) for i in monomials], 3)
    assert den == 243 and all(len(level) == len(monomials) for level in levels)
    rows = [
        [rat(level[i], den**s) for s, level in enumerate(levels, start=1)]
        for i in range(len(monomials))
    ]
    assert any(v.denominator > 1 for row in rows for v in row)
    for index, row in zip(monomials, rows):
        assert row == powers_at_origin(m, Jet(2, m.order, [(index, 1)]), 3), index


def _exps(n, k):
    return [v for v in itertools.product(range(k + 1), repeat=n) if sum(v) <= k]


def test_weight_steps_come_from_the_inverse_metric(reference_metrics):
    # a U(2)-invariant metric only has steps that keep beta - alpha: the
    # weight rule then skips every unbalanced monomial
    steps = _memo(reference_metrics["hyp:2"], 2, 3).steps(3)
    assert steps == {0}
    # the bent metric has steps that move it, which the pruning must follow
    bent = _memo(reference_metrics["bent hyp:2"], 2, 3)
    assert bent.steps(1) == {0} and any(bent.steps(3))


def test_budget_enforced():
    m = metric_from_potential(potential(Hyperbolic(1), 6))  # metric valid 4
    t = mono(1, 6, (1,), (1,))
    assert power_at_origin(m, t, 3) == 8  # needs metric valid 4 exactly
    with pytest.raises(InsufficientOrderError) as err:
        power_at_origin(m, t, 4)
    assert err.value.required_order == 10


def test_budget_edge_extends_the_inverse_by_its_top_degree():
    # metric valid 4 = 2k - 2 at k = 3: level 2 reads g_inv through degree
    # valid - 1 = 3, level 3 needs degree 4, so the inverse grows by that
    # one degree and the memo is rebuilt over it
    m = metric_from_potential(potential(Hyperbolic(1), 6))
    t = mono(1, 6, (1,), (1,))
    assert power_at_origin(m, t, 2) == -2
    assert len(m._graded.xs) == 4 and _memo(m, 1, 2).top == 3
    assert power_at_origin(m, t, 3) == 8
    assert len(m._graded.xs) == 5 and _memo(m, 1, 3).top == 4
    # lower levels keep reading the extended memo
    assert power_at_origin(m, t, 2) == -2 and _memo(m, 1, 1).top == 4


@pytest.mark.parametrize(
    "text,max_k,order",
    [("hyp:2", 4, None), ("fs:3", 3, None), ("type1:2,2", 3, None), ("hyp:1", 3, 11)],
)
def test_check_builds_no_inverse_degree_it_does_not_read(monkeypatch, text, max_k, order):
    # the deepest degree the family route reads is max(m.valid - 1, 2k - 2):
    # Jacobi's formula through m.valid, the Laplacian at level k through
    # 2k - 2; it is run directly, since check decides the U(n)-invariant
    # hyp:2, fs:3 and hyp:1 from their radial profiles, with no metric
    metrics = []
    build = inference.metric_from_potential

    def keeping(phi):
        metrics.append(build(phi))
        return metrics[-1]

    monkeypatch.setattr(inference, "metric_from_potential", keeping)
    phi = potential(parse_spec(text), order or 2 * max_k + 2)
    inference._family_route(phi, max_k, 0)
    (m,) = metrics
    built = len(m._graded.xs) - 1
    assert built == max(m.valid - 1, 2 * max_k - 2) < m.valid
    assert max(m._inverses) == built


def test_budget_rejects_inexact_test_function(hyp1):
    rough = potential(Hyperbolic(1), 10)  # not exact (log series)
    with pytest.raises(InsufficientOrderError):
        power_at_origin(hyp1, rough, 2)


# ----------------------------------------------------------------------
# expanded identities


def test_second_power_identity_examples(hyp1):
    chk = second_power_check(hyp1, mono(1, 10, (2,), (2,)))
    assert chk.passed and chk.lhs == 4
    chk = second_power_check(hyp1, mono(1, 10, (1,), (1,)))
    assert chk.passed and chk.lhs == -2


def test_second_power_identity_type1(type1_metric_order8):
    phi = mono(4, 8, (1, 1, 0, 0), (1, 1, 0, 0))
    assert second_power_check(type1_metric_order8, phi).passed


def test_second_power_rejects_non_einstein():
    m = metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 6))
    with pytest.raises(NotEinsteinError):
        second_power_check(m, mono(2, 6, (1, 0), (1, 0)))


def test_third_power_rhs_flat_is_pure_euclidean():
    m = metric_from_potential(Jet.abs_square_sum(2, 8))
    phi = mono(2, 8, (2, 1), (2, 1))
    assert third_power_rhs(m, phi) == euclidean_moments(phi, 3)[2]


@pytest.mark.parametrize("name", ["hyp:2", "fs:2", "polydisc:2", "type1:2,2"])
@seed(20201030)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_third_power_rhs_matches_direct_engine(reference_metrics, name, data):
    # one metric per case, so the weights built for the first phi serve the
    # rest; hyp:2 and fs:2 share a dimension and have opposite lambda, so
    # weights leaking between metrics would show
    m = reference_metrics[name]
    phi = Jet(m.dim, m.order, data.draw(polynomials(m.dim, 3)))
    assert third_power_rhs(m, phi) == power_at_origin(m, phi, 3), phi


@pytest.mark.parametrize(
    "build",
    [
        lambda: metric_from_potential(potential(Hyperbolic(3), 8)),
        lambda: metric_from_potential(potential(FubiniStudy(2), 8)),
        lambda: metric_from_potential(potential(TypeI(2, 2), 8)),
        lambda: metric_from_potential(potential(Polydisc(2), 8)),
        lambda: _bent(Hyperbolic(2), 8),
        lambda: _bent(TypeI(2, 2), 8),
        lambda: _sheared(Hyperbolic(2), 8),
    ],
    ids=[
        "hyp:3", "fs:2", "type1:2,2", "polydisc:2",
        "bent hyp:2", "bent type1:2,2", "sheared hyp:2",
    ],
)
def test_third_power_weights_match_dense_sum(build):
    # the bent and sheared metrics have degree-2 terms of bidegree (2, 0)
    # and (0, 2) in g_inv, the pure branches the catalog metrics never reach
    m = build()
    assert _third_power_weights(m) == _dense_third_power_weights(m)


def test_third_power_rhs_guards_hold_on_every_call(hyp1):
    short = metric_from_potential(potential(Hyperbolic(1), 5))
    assert short.valid == 3
    product = metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 8))
    for _ in range(2):
        with pytest.raises(InsufficientOrderError) as err:
            third_power_rhs(short, mono(1, 5, (1,), (1,)))
        assert err.value.required_order == 8
        with pytest.raises(NotEinsteinError):
            third_power_rhs(product, mono(2, 8, (1, 0), (1, 0)))
        with pytest.raises(DimensionMismatchError):
            third_power_rhs(hyp1, mono(2, 10, (1, 0), (1, 0)))


@pytest.mark.parametrize("spec", einstein_catalog_entries(), ids=str)
def test_keyed_third_power_rows_match_third_power_check(spec):
    # two metrics, so that the jet route reads nothing the keyed pass cached
    n = spec.dim
    family, positions = inference.laplcube_rows(n)
    rows = [family.index(pos) for pos in positions]
    keyed = third_power_checks(
        metric_from_potential(potential(spec, 8)), n, [family.keys[pos] for pos in positions]
    )
    m = metric_from_potential(potential(spec, 8))
    assert len(keyed) == len(rows)
    for index, got in zip(rows, keyed):
        want = third_power_check(m, Jet(n, 8, [(index, 1)]))
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs), index.text()
        assert got.passed


@pytest.mark.parametrize("spec", [Hyperbolic(2), TypeI(2, 2)], ids=str)
def test_keyed_third_power_rows_match_on_every_family_row(spec):
    # the whole k = 3 family: unbalanced rows and balanced ones with |a| = 3
    n = spec.dim
    family = inference.build_test_family(n, 3)
    rows = [family.index(pos) for pos in range(len(family.keys))]
    keyed = third_power_checks(metric_from_potential(potential(spec, 8)), n, family.keys)
    m = metric_from_potential(potential(spec, 8))
    for index, got in zip(rows, keyed):
        want = third_power_check(m, Jet(n, 8, [(index, 1)]))
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs), index.text()


def test_keyed_third_power_rows_keep_their_guards(hyp1):
    short = metric_from_potential(potential(Hyperbolic(1), 5))
    product = metric_from_potential(potential(Product(Flat(1), Hyperbolic(1)), 8))
    with pytest.raises(InsufficientOrderError) as err:
        third_power_checks(short, 1, [_pack_bi(bi((1,), (1,)))])
    assert err.value.required_order == 8
    with pytest.raises(NotEinsteinError):
        third_power_checks(product, 2, [_pack_bi(bi((1, 0), (1, 0)))])
    with pytest.raises(DimensionMismatchError):
        third_power_checks(hyp1, 2, [_pack_bi(bi((1, 0), (1, 0)))])


def test_third_power_identity_hyperbolic(hyp1):
    chk = third_power_check(hyp1, mono(1, 10, (2,), (2,)))
    assert chk.passed and chk.lhs == -40


def test_third_power_identity_polydisc():
    m = metric_from_potential(potential(Polydisc(2), 8))
    chk = third_power_check(m, mono(2, 8, (1, 1), (1, 1)))
    assert chk.passed and chk.lhs == -12


def test_cross_hessian_type1_frame_pair(type1_metric_order8):
    values = inverse_metric_cross_hessian(type1_metric_order8, 1, 2)
    assert all(v == 0 for v in values)


def test_cross_hessian_hyperbolic_2():
    m = metric_from_potential(potential(Hyperbolic(2), 8))
    values = inverse_metric_cross_hessian(m, 1, 2)
    # ginv = (1-t)(delta - zb_i z_j): the four coefficients are all -1
    assert sum(values, rat(0)) == -4


@pytest.mark.parametrize(
    "spec", [*einstein_catalog_entries(), "bent hyp:2"], ids=str
)
def test_cross_hessian_reads_the_whole_jet_derivatives(spec):
    # the keyed read of the z_h zb_a numerators against d_h dbar_a of the
    # whole entries of g_inv at 0, for every pair (i, j); the bent metric
    # has denominators there
    if spec == "bent hyp:2":
        m = _bent(Hyperbolic(2), 8)
    else:
        m = metric_from_potential(potential(spec, 8))
    x = m.inverse(2)

    def d(e, h, a):
        return eval0(diff_anti(diff_hol(e, h + 1), a + 1))

    seen = set()
    for i, j in itertools.product(range(m.dim), repeat=2):
        values = inverse_metric_cross_hessian(m, i + 1, j + 1)
        assert values == (
            d(x[j][j], i, i), d(x[i][i], j, j), d(x[i][j], j, i), d(x[j][i], i, j)
        ), (i, j)
        seen.update(v.denominator for v in values)
    assert (max(seen) > 1) == (spec == "bent hyp:2")


# ----------------------------------------------------------------------
# the radial-reduction oracle


FROZEN_HYP = {
    1: [1, -2, 8, -56],
    2: [0, 4, -40, 496],
    3: [0, 0, 36, -1008],
    4: [0, 0, 0, 576],
}


def test_oracle_frozen_values():
    table = radial.power_table(hyperbolic_profile(12), 1, 4)
    for m, column in FROZEN_HYP.items():
        assert table[m - 1] == column


def test_oracle_metric_profile_hyperbolic():
    # F = -log(1 - t): 1/F' = 1 - t and 1/(tF')' = (1-t)^2
    den, p, q = radial.inverse_profiles(hyperbolic_profile(8), 4)
    assert [rat(c, den**i) for i, c in enumerate(p)] == [1, -1, 0, 0]
    assert [rat(c, den**i) for i, c in enumerate(q)] == [1, -2, 1, 0]


@pytest.mark.parametrize("name", ["hyp", "fs"])
def test_oracle_agrees_with_engine(name, hyp1, fs1):
    profile = hyperbolic_profile(12) if name == "hyp" else fubini_study_profile(12)
    metric = hyp1 if name == "hyp" else fs1
    table = radial.power_table(profile, 1, 4)
    for m in range(1, 5):
        phi = mono(1, 10, (m,), (m,))
        for k in range(1, 5):
            assert table[m - 1][k - 1] == power_at_origin(metric, phi, k), (name, m, k)


def test_oracle_flat_profile():
    # Lap^m t^m (0) = Lapc^m t^m (0) = m! (n)_m, (n)_m the rising factorial
    for n in (1, 2, 5):
        table = radial.power_table(flat_profile(), n, 4)
        for m in range(1, 5):
            assert table[m - 1][m - 1] == math.factorial(m) * math.prod(range(n, n + m))
            assert table[m - 1][m:] == [0] * (4 - m)


def test_oracle_agrees_with_engine_on_random_profile():
    from kahlap.catalog import Radial

    coeffs = (rat(1), rat(-3, 4), rat(2, 5), rat(1, 7))
    table = radial.power_table([0, *coeffs], 1, 4)
    engine = metric_from_potential(potential(Radial(coeffs, 1), 10))
    for m in range(1, 5):
        phi = mono(1, 10, (m,), (m,))
        for k in range(1, 5):
            assert table[m - 1][k - 1] == power_at_origin(engine, phi, k), (m, k)


def test_oracle_rejects_a_profile_off_the_normalization():
    with pytest.raises(KahlapError, match="F'\\(0\\) = 1"):
        radial.power_table([0, rat(2)], 1, 2)


# the potentials that are F(|z|^2) and their profiles, through t^5
_HYP, _FS = hyperbolic_profile(5), fubini_study_profile(5)
_UNITARY = [
    ("hyp:1", _HYP),
    ("hyp:2", _HYP),
    ("hyp:3", _HYP),
    ("fs:1", _FS),
    ("fs:2", _FS),
    ("fs:3", _FS),
    ("flat:2", [0, 1, 0, 0, 0, 0]),
    ("dual(hyp:2)", _FS),
    ("radial:1,1/2:2", [0, 1, rat(1, 2), 0, 0, 0]),
    ("radial:1,-2/5,3:3", [0, 1, rat(-2, 5), 3, 0, 0]),
    ("radial:1,0,-1/3:2", [0, 1, 0, rat(-1, 3), 0, 0]),
    ("radial:1,-1,1/2,-1/4,2:3", [0, 1, -1, rat(1, 2), rat(-1, 4), 2]),
    # longer than the order of 10: the t^12 term is cut
    ("radial:1,1/3,1/5,0,0,0,0,0,0,0,0,7:1", [0, 1, rat(1, 3), rat(1, 5), 0, 0]),
]


@pytest.mark.parametrize("text, profile", _UNITARY, ids=[t for t, _ in _UNITARY])
def test_unitary_profile_reads_f_and_the_oracle_gives_the_engines_p_k(text, profile):
    # the oracle's Lap^k t^j (0) against a_j j! (n)_j, a_j read off the p_k
    # that infer solves from the engine's value table
    kmax = 5 if text == "radial:1,1/2:2" else 4
    spec = parse_spec(text)
    n = spec.dim
    phi = potential(spec, 2 * kmax + 2)
    got = radial.unitary_profile(phi, kmax)
    assert got == profile[: kmax + 1] and got[1] == 1
    table = radial.power_table(got, n, kmax)
    m = metric_from_potential(phi)
    family = inference.build_test_family(n, kmax)
    den, levels = inference.kahler_value_table(m, family, kmax)
    for k in range(1, kmax + 1):
        p_k = inference.infer(m, k, family, levels[k - 1], den=den**k).polynomial
        for j in range(1, k + 1):
            moment = math.factorial(j) * math.prod(range(n, n + j))
            assert table[j - 1][k - 1] == p_k.coefficient(j) * moment, (k, j)


def _hyp2_with(change, name):
    """A Custom copy of hyp:2 at order 10 with ``change`` applied to its
    {BiIndex: coefficient} terms."""
    terms = dict(potential(Hyperbolic(2), 10).terms())
    change(terms)
    return Custom(Jet(2, 10, terms.items()), name)


def _off_weight(terms):
    terms[bi((1, 1), (1, 1))] += 1  # |z1 z2|^2 at 2, not 1 = f_2 * 2!/(1! 1!)


def _dropped(terms):
    del terms[bi((2, 1), (2, 1))]  # |z1^2 z2|^2, at f_3 * 3!/(2! 1!) = 1


def _odd(terms):
    terms[bi((3, 0), (0, 0))] = 1  # z1^3: pluriharmonic, so the metric stays


@pytest.mark.parametrize(
    "spec",
    [
        parse_spec("polydisc:2"),
        parse_spec("type1:2,2"),
        parse_spec("type4:2"),
        parse_spec("product(hyp:1,hyp:1)"),
        parse_spec("product(flat:1,hyp:1)"),
        _hyp2_with(_off_weight, "hyp:2 off weight"),
        _hyp2_with(_dropped, "hyp:2 key dropped"),
        _hyp2_with(_odd, "hyp:2 plus z1^3"),
    ],
    ids=lambda spec: spec.label(),
)
def test_unitary_profile_rejects(spec):
    phi = potential(spec, 10)
    assert radial.unitary_profile(phi, 4) is None


def test_unitary_profile_rejects_an_unbalanced_key_in_place_of_a_balanced_one():
    # the count and the weight read off the holomorphic half both hold:
    # only the balance test sees it (no catalog gate passes this potential,
    # whose mixed terms have no mirrors, so the detector is called directly)
    terms = dict(potential(Hyperbolic(2), 10).terms())
    del terms[bi((0, 2), (0, 2))]
    terms[bi((1, 1), (2, 0))] = 1
    assert radial.unitary_profile(Jet(2, 10, terms.items()), 4) is None
