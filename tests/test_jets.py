"""Jet ring arithmetic: documented examples plus randomized ring axioms."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kahlap.jets import (
    BiIndex,
    ConstantTermError,
    DegreeOverflowError,
    DimensionMismatchError,
    IndexRangeError,
    InsufficientOrderError,
    Jet,
    MAX_ORDER,
    _SHIFT,
    _digit_sum,
    _pack,
    _unpack,
    substitute,
)
from kahlap.rationals import rat
from oracles import claims_hold, diff_anti, diff_hol, eval0, from_text, inv1, restrict, to_text


def bi(hol, anti):
    return BiIndex(tuple(hol), tuple(anti))


def t_power(m, order=6, dim=1):
    alpha = (m,) + (0,) * (dim - 1)
    return Jet(dim, order, [(bi(alpha, alpha), 1)])


# ----------------------------------------------------------------------
# construction


def test_poly_abs_z1_fourth():
    jet = Jet(1, 4, [(bi((2,), (2,)), 1)])
    assert jet.coefficient(bi((2,), (2,))) == 1
    assert jet.exact and jet.valid == 4


def test_poly_mixed_two_vars():
    jet = Jet(2, 4, [(bi((1, 1), (1, 1)), 1)])
    assert jet.coefficient(bi((1, 1), (1, 1))) == 1


def test_poly_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        Jet(1, 2, [(bi((3,), (0,)), 1)])


def test_poly_merges_and_drops_zeros():
    jet = Jet(1, 4, [(bi((1,), (1,)), 2), (bi((1,), (1,)), -2)])
    assert jet.is_zero


# ----------------------------------------------------------------------
# ring ops


def test_difference_of_squares():
    one = Jet.one(1, 4)
    t = t_power(1, 4)
    prod = (one + t) * (one - t)
    assert prod == one - t_power(2, 4)


def test_scale():
    t = t_power(1)
    assert t.scale(rat(3, 2)).coefficient(bi((1,), (1,))) == rat(3, 2)


def test_add_validity_is_min():
    a = Jet._raw(1, 6, 6, False, t_power(1).lifted(6)._grades)
    b = Jet._raw(1, 6, 4, False, t_power(2, 6)._grades)
    assert (a + b).valid == 4


def test_mul_order_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        t_power(1, 4) * t_power(1, 6)


def test_mul_dim_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        t_power(1, 4) + Jet.abs_square_sum(2, 4)


# ----------------------------------------------------------------------
# derivatives


def test_diff_hol_example():
    jet = Jet(1, 6, [(bi((2,), (2,)), 1)])
    assert diff_hol(jet, 1) == Jet(1, 6, [(bi((1,), (2,)), 2)])


def test_diff_both_orders_commute_on_example():
    jet = Jet(1, 6, [(bi((2,), (2,)), 1)])
    assert diff_anti(diff_hol(jet, 1), 1) == Jet(1, 6, [(bi((1,), (1,)), 4)])


def test_diff_validity_drops_by_one_when_inexact():
    a = Jet._raw(1, 6, 5, False, t_power(2, 6)._grades)
    assert diff_hol(a, 1).valid == 4
    assert diff_hol(t_power(2, 6), 1).exact  # exact stays exact


def test_diff_index_out_of_range():
    with pytest.raises(IndexRangeError):
        diff_hol(t_power(1), 2)


# ----------------------------------------------------------------------
# series functions


def test_log1_of_one_minus_t():
    one, t = Jet.one(1, 4), t_power(1, 4)
    expected = Jet(1, 4, [(bi((1,), (1,)), -1), (bi((2,), (2,)), rat(-1, 2))])
    got = (one - t).log1()
    assert got.agrees(expected) and got.valid == 4


def test_log1_of_one_plus_t():
    one, t = Jet.one(1, 4), t_power(1, 4)
    expected = Jet(1, 4, [(bi((1,), (1,)), 1), (bi((2,), (2,)), rat(-1, 2))])
    assert (one + t).log1().agrees(expected)


def test_log1_requires_unit_constant():
    with pytest.raises(ConstantTermError):
        (Jet.constant(1, 4, 2) + t_power(1, 4)).log1()


def test_inv1_of_squared_geometric():
    one, t = Jet.one(1, 6), t_power(1, 6)
    sq = (one - t) * (one - t)
    expected = Jet(1, 6, [(bi((m,), (m,)), m + 1) for m in range(4)])
    assert inv1(sq).agrees(expected)


def test_inv1_identity():
    one = Jet.one(1, 4)
    assert inv1(one) == one


def test_inv1_zero_constant_rejected():
    with pytest.raises(ConstantTermError):
        inv1(t_power(1))


def test_substitute_identity_profile():
    s = Jet.abs_square_sum(2, 4)
    assert substitute([0, 1], s, exact=True) == s


def test_substitute_log_profile():
    f = [0] + [rat(1, m) for m in range(1, 5)]
    t = t_power(1, 4)
    target = -((Jet.one(1, 4) - t).log1())
    assert substitute(f, t, exact=False).agrees(target)


def test_zero_argument_gives_exact_jets():
    zero = Jet.zero(2, 6)
    for f, exact in (([rat(2, 3), 1], False), ([1] + [0] * 8 + [1], True)):
        got = substitute(f, zero, exact)
        assert got == Jet.constant(2, 6, f[0])
        assert got.exact and got.valid == 6
    log = Jet.one(2, 6).log1()
    assert log.is_zero and log.exact and log.valid == 6


def test_zero_argument_keeps_its_validity():
    got = substitute([rat(2, 3), 1], Jet._raw(2, 6, 3, False, {}), exact=False)
    assert got == Jet.constant(2, 6, rat(2, 3))
    assert (got.exact, got.valid) == (False, 3)
    # a constant jet known through degree 2: log and inverse say the same
    const = Jet._raw(1, 4, 2, False, {0: {0: 1}})
    log, inv = const.log1(), inv1(const)
    assert log.is_zero and inv == Jet.one(1, 4)
    assert (log.exact, log.valid) == (inv.exact, inv.valid) == (False, 2)


def test_substitute_rejects_constant_argument():
    with pytest.raises(ConstantTermError):
        substitute([0, 1], Jet.one(1, 4), exact=True)


# ----------------------------------------------------------------------
# structural ops


def test_restrict_drops_other_variables():
    s = Jet.abs_square_sum(2, 4)
    assert restrict(s, [1]) == Jet.abs_square_sum(1, 4)


def test_restrict_all_is_identity():
    s = Jet.abs_square_sum(2, 4)
    assert restrict(s, [1, 2]) == s


def test_flip_anti_sign_examples():
    t = t_power(1, 4)
    assert t.flip_anti_sign() == -t
    t2 = t_power(2, 4)
    assert t2.flip_anti_sign() == t2  # even anti degree


def test_whole_jet_references_are_not_package_api():
    # the engine reads origin values off packed keys; the whole-jet
    # derivatives, origin value and inverse series, the jet form of the
    # third-power check, the named radial profiles, the diagonal embedding
    # and the map composition are test references, in tests/oracles.py
    import kahlap
    from kahlap import geometry, radial

    for name in ("_diff", "diff_hol", "diff_anti", "eval0", "inv1"):
        assert not hasattr(Jet, name), name
    for name in ("third_power_check", "EmbeddingSpec", "diagonal_embedding", "pullback"):
        assert name not in kahlap.__all__ and not hasattr(kahlap, name), name
    for name in ("hyperbolic_profile", "fubini_study_profile", "flat_profile"):
        assert not hasattr(radial, name), name
    assert not hasattr(geometry, "pullback")


def test_eval0():
    one, t = Jet.one(1, 4), t_power(1, 4)
    assert eval0(one - t.scale(2) + t * t) == 1
    assert eval0(t_power(2, 4)) == 0


def test_eval0_insufficient_order():
    dead = Jet._raw(1, 4, -1, False, {})
    with pytest.raises(InsufficientOrderError):
        eval0(dead)


def test_text_round_trip():
    jet = Jet(2, 4, [(bi((2, 0), (2, 0)), rat(3, 2)), (bi((1, 1), (1, 1)), -1)])
    assert from_text(2, 4, to_text(jet)) == jet


# ----------------------------------------------------------------------
# randomized properties


@st.composite
def jets(draw, dim=None, order=None, unit_constant=False):
    dim = dim if dim is not None else draw(st.integers(1, 2))
    order = order if order is not None else draw(st.integers(3, 5))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        alpha = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        beta = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        if sum(alpha) + sum(beta) > order:
            continue
        if unit_constant and sum(alpha) + sum(beta) == 0:
            continue
        c = rat(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms.append((BiIndex(alpha, beta), c))
    jet = Jet(dim, order, terms)
    if unit_constant:
        jet = jet + Jet.one(dim, order)
    return jet


@seed(20201030)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    dim = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(3, 5))
    a = data.draw(jets(dim=dim, order=order))
    b = data.draw(jets(dim=dim, order=order))
    c = data.draw(jets(dim=dim, order=order))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@seed(20201030)
@settings(max_examples=40, deadline=None)
@given(jets(unit_constant=True))
def test_inverse_property(a):
    one = Jet.one(a.dim, a.order)
    assert (a * inv1(a)).agrees(one)


@seed(20201030)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mixed_derivatives_commute(data):
    a = data.draw(jets(dim=2))
    assert diff_anti(diff_hol(a, 1), 2) == diff_hol(diff_anti(a, 2), 1)
    assert diff_hol(diff_hol(a, 1), 2) == diff_hol(diff_hol(a, 2), 1)


@seed(20201030)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_flip_is_ring_homomorphism_and_involution(data):
    dim = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(3, 5))
    a = data.draw(jets(dim=dim, order=order))
    b = data.draw(jets(dim=dim, order=order))
    assert a.flip_anti_sign().flip_anti_sign() == a
    assert (a + b).flip_anti_sign() == a.flip_anti_sign() + b.flip_anti_sign()
    assert (a * b).flip_anti_sign() == a.flip_anti_sign() * b.flip_anti_sign()


# ----------------------------------------------------------------------
# the stored form: int numerators over one common denominator


def assert_canonical(jet):
    nums = [c for b in jet._grades.values() for c in b.values()]
    assert all(jet._grades.values()), "empty degree stored"
    assert all(type(c) is int and c != 0 for c in nums)
    assert type(jet.den) is int and jet.den >= 1
    assert math.gcd(jet.den, *nums) == 1
    assert nums or jet.den == 1


def ref(jet):
    """{(hol, anti): Fraction} read through the public boundary."""
    return {(b.hol, b.anti): Fraction(c) for b, c in jet.terms()}


def ref_add(x, y, sign=1):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def ref_mul(x, y, order):
    out = {}
    for (ha, aa), ca in x.items():
        for (hb, ab), cb in y.items():
            h = tuple(p + q for p, q in zip(ha, hb))
            a = tuple(p + q for p, q in zip(aa, ab))
            if sum(h) + sum(a) <= order:
                out[(h, a)] = out.get((h, a), 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def ref_series(u, coeffs, order, dim):
    """sum_m coeffs(m) * u^m for m = 0..order, u with zero constant term."""
    total, power = {}, {((0,) * dim, (0,) * dim): Fraction(1)}
    for m in range(order + 1):
        total = ref_add(total, {k: coeffs(m) * c for k, c in power.items()})
        power = ref_mul(power, u, order)
    return total


def ref_diff(x, i, anti):
    out = {}
    for (h, a), c in x.items():
        v = list(a if anti else h)
        e = v[i - 1]
        if e:
            v[i - 1] -= 1
            out[(h, tuple(v)) if anti else (tuple(v), a)] = c * e
    return out


@st.composite
def rational_jets(draw, dim, order, unit_constant=False):
    """Exact jets with non-integer coefficients: a drawn jet times p/q."""
    jet = draw(jets(dim=dim, order=order)).scale(
        rat(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(2, 12)))
    )
    if unit_constant:
        jet = jet.drop_constant() + Jet.one(dim, order)
    return jet


@seed(20201030)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernels_match_fraction_reference_and_stay_canonical(data):
    dim = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(3, 5))
    a = data.draw(rational_jets(dim, order))
    b = data.draw(rational_jets(dim, order))
    c = rat(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 8)))
    i = data.draw(st.integers(1, dim))
    cut = data.draw(st.integers(0, order))
    keep = data.draw(st.sets(st.integers(1, dim), min_size=1))
    ra, rb = ref(a), ref(b)
    kept = sorted(keep)
    cases = [
        (Jet(dim, order, a.terms()), ra),
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, rb, -1)),
        # exact cancellations: no zero numerator or empty degree survives
        (a - a, {}),
        ((a + b) - b, ra),
        ((a + b) * (a - b), ref_mul(ref_add(ra, rb), ref_add(ra, rb, -1), order)),
        (a.scale(c), {k: c * v for k, v in ra.items() if c}),
        (a * b, ref_mul(ra, rb, order)),
        (diff_hol(a, i), ref_diff(ra, i, anti=False)),
        (diff_anti(a, i), ref_diff(ra, i, anti=True)),
        (a.truncated(cut), {(h, e): v for (h, e), v in ra.items() if sum(h + e) <= cut}),
        (
            restrict(a, keep),
            {
                (tuple(h[j - 1] for j in kept), tuple(e[j - 1] for j in kept)): v
                for (h, e), v in ra.items()
                if all(h[j] == e[j] == 0 for j in range(dim) if j + 1 not in keep)
            },
        ),
        (a.conj(), {(e, h): v for (h, e), v in ra.items()}),
        (a.flip_anti_sign(), {(h, e): (-1) ** sum(e) * v for (h, e), v in ra.items()}),
        (a.drop_constant(), {(h, e): v for (h, e), v in ra.items() if sum(h + e)}),
    ]
    one = ((0,) * dim, (0,) * dim)
    cases += [
        (Jet.zero(dim, order), {}),
        (Jet.one(dim, order), {one: Fraction(1)}),
        (Jet.constant(dim, order, c), {one: c} if c else {}),
    ]
    for got, _ in cases[-3:]:
        assert (got.exact, got.valid) == (True, order)
    u = data.draw(rational_jets(dim, order, unit_constant=True))
    ru = ref_add(ref(u), {((0,) * dim, (0,) * dim): Fraction(1)}, -1)  # u - 1
    log = ref_series(ru, lambda m: Fraction((-1) ** (m + 1), m) if m else 0, order, dim)
    cases.append((u.log1(), log))
    # (c0 u)^-1 = (1/c0) * sum_m (-(u - 1))^m
    c0 = c or rat(1, 3)
    geo = ref_series(ru, lambda m: (-1) ** m, order, dim)
    cases.append((inv1(u.scale(c0)), {k: v / c0 for k, v in geo.items()}))
    for got, want in cases:
        assert_canonical(got)
        assert ref(got) == want


def test_equal_coefficients_written_differently_are_equal():
    t = bi((1,), (1,))
    half = Jet(1, 4, [(t, rat(1, 2))])
    assert from_text(1, 4, "2/4  1|1") == half
    assert Jet(1, 4, [(t, rat(3, 2))]) - Jet(1, 4, [(t, 1)]) == half
    assert t_power(1, 4).scale(rat(3, 6)) == half
    assert (half.scale(4) - t_power(1, 4)).scale(rat(1, 2)) == half
    assert half.scale(2) == t_power(1, 4) and half.scale(2).den == 1
    assert half.agrees(t_power(1, 4).scale(rat(2, 4)))


def test_agrees_across_denominators():
    t, t2 = bi((1,), (1,)), bi((2,), (2,))
    a = Jet(1, 4, [(t, rat(1, 2)), (t2, rat(1, 3))])
    b = Jet(1, 4, [(t, rat(1, 2)), (t2, rat(1, 5))])
    assert (a.den, b.den) == (6, 10)
    assert a.agrees(b, 2) and b.agrees(a, 3)
    assert not a.agrees(b) and not b.agrees(a, 4)
    assert a != b and a.truncated(2) == b.truncated(2)
    assert a.truncated(2).den == 2 and not a.agrees(b.scale(2), 2)


def test_mul_validity_formula():
    a = Jet._raw(1, 8, 6, False, t_power(1, 8)._grades)
    b = Jet._raw(1, 8, 4, False, t_power(2, 8)._grades)
    assert (a * b).valid == 4
    assert (a * t_power(1, 8)).valid == 6  # exact operand does not lower it


def test_truncate_and_lift():
    t2 = t_power(2, 8)
    low = t2.truncated(2)
    assert low.is_zero and not low.exact and low.valid == 2
    up = t_power(1, 4).lifted(8)
    assert up.order == 8 and up.exact


# ----------------------------------------------------------------------
# packed keys


@seed(20201030)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_digit_sum_is_the_degree_of_a_packed_key(data):
    # exponent vectors of 2n slots with total degree up to MAX_ORDER, drawn
    # slot by slot from what the degree leaves; the key and both halves
    n = data.draw(st.integers(1, 6))
    left = data.draw(st.integers(0, MAX_ORDER))
    exps = []
    for _ in range(2 * n):
        e = data.draw(st.integers(0, left))
        exps.append(e)
        left -= e
    exps = data.draw(st.permutations(exps))
    key = _pack(exps)
    low = (1 << _SHIFT * n) - 1
    assert _digit_sum(key) == sum(_unpack(key, 2 * n)) == sum(exps)
    assert _digit_sum(key & low) == sum(_unpack(key & low, n))
    assert _digit_sum(key >> _SHIFT * n) == sum(_unpack(key >> _SHIFT * n, n))


@pytest.mark.parametrize("slot", [0, 1, 3])
def test_digit_sum_reads_degree_31(slot):
    # z1^31 (and the same power in other slots): 31 = 0 mod 31, which the
    # plain residue would read as degree 0
    key = _pack([0] * slot + [MAX_ORDER])
    assert key % MAX_ORDER == 0
    assert _digit_sum(key) == MAX_ORDER
    assert _digit_sum(0) == 0


# ----------------------------------------------------------------------
# validity soundness of the series functions


def _known_through(truth: Jet, order: int, valid: int, noise: Jet) -> Jet:
    """``truth`` at ``order`` as an input known only through ``valid``: the
    degrees above it are replaced by ``noise``'s."""
    if valid >= order:
        return truth.truncated(order)
    kept = [(b, c) for b, c in truth.truncated(order).terms() if b.degree <= valid]
    kept += [(b, c) for b, c in noise.terms() if b.degree > valid]
    return Jet(truth.dim, order, kept)._flagged(valid, False)


# exactly known arguments: zero (so log1 and inv1 see the constants 1 and
# c0), and a linear one, of which no series function is a polynomial
_FIXED_ARGUMENTS = {"zero": Jet.zero(1, 7), "linear": Jet.variable(1, 7, 1)}


@seed(20201030)
@settings(max_examples=60, deadline=None)
@given(st.data())
@example(data="zero")
@example(data="linear")
def test_series_functions_claim_only_valid_coefficients(data):
    """A coefficient that substitute, log1 or inv1 claims at order N equals
    the one recomputed at N + 4 from the same function, known further."""
    if isinstance(data, str):
        n, order, u_valid, f_valid = 1, 3, 3, 3
        u, noise, c0 = _FIXED_ARGUMENTS[data], Jet.zero(1, 3), rat(2, 3)
        coeffs, f_exact = [rat(1, 2), 1, 0, -1, 0, 0, 0, 0], False
    else:
        n = data.draw(st.integers(1, 2))
        order = data.draw(st.integers(0, 4))
        u = data.draw(st.sampled_from(["zero", "drawn"]))
        u = Jet.zero(n, order + 4) if u == "zero" else data.draw(
            rational_jets(n, order + 4)
        ).drop_constant()
        noise = data.draw(rational_jets(n, order)).drop_constant()
        u_valid = data.draw(st.integers(0, order))
        c0 = rat(data.draw(st.integers(-5, 5).filter(bool)), data.draw(st.integers(1, 4)))
        coeffs = [rat(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
                  for _ in range(order + 5)]
        f_exact = data.draw(st.booleans())
        f_valid = order if f_exact else data.draw(st.integers(0, order))
    narrow_u = _known_through(u, order, u_valid, noise)
    if f_exact:  # a polynomial of degree <= N, the same at both orders
        narrow_f = wide_f = coeffs[: order + 1]
    else:
        # the profile is known through f_valid, and a list holds no more
        narrow_f, wide_f = coeffs[: f_valid + 1], coeffs
    one, narrow_one = Jet.one(n, order + 4), Jet.one(n, order)
    constant, narrow_constant = Jet.constant(n, order + 4, c0), Jet.constant(n, order, c0)
    cases = [
        (substitute(narrow_f, narrow_u, f_exact), substitute(wide_f, u, f_exact)),
        ((narrow_one + narrow_u).log1(), (one + u).log1()),
        (inv1(narrow_constant + narrow_u), inv1(constant + u)),
    ]
    for name, (got, wide) in zip(("substitute", "log1", "inv1"), cases):
        assert claims_hold(got, wide), (name, order, u_valid, f_valid, f_exact)
