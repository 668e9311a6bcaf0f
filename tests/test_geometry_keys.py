"""The keyed metric, Hermitian test, g(0) elimination and Einstein test
against the whole-jet routes they replaced (``tests/oracles.py``), the
gauge invariance of the metric and everything read from it, and the
invariance of Laplacian powers under coordinate permutations, a map
tangent to the identity and a unitary rotation."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from kahlap.catalog import Product, _raw_potential, parse_spec, potential, standard_entries
from kahlap.geometry import (
    _eliminate,
    einstein_data,
    metric_from_potential,
)
from kahlap.inference import build_test_family
from kahlap.jets import _digit_sum, _pack, _unpack, BiIndex, Jet, KahlapError
from kahlap.laplacian import monomial_powers_at_origin, powers_at_origin
from kahlap.rationals import rat
from oracles import einstein_by_ricci, flagged, metric_by_derivatives, pullback, rational_eliminate
from test_laplacian import _bent, _sheared


def _outcome(build, *args):
    """What a route returns, or the class and text of the error it raises."""
    try:
        return build(*args)
    except KahlapError as exc:
        return type(exc).__name__, str(exc)


def _entries(m):
    """Every metric entry with its coefficients, denominator and flags."""
    if isinstance(m, tuple):
        return m
    return [(e.dim, e.order, e.valid, e.exact, e.den, e._grades) for row in m.g for e in row]


def _assert_routes_agree(phi):
    """The keyed metric has the derivative route's entries (or raises its
    error), and its Einstein data is the Ricci route's (or the same error)."""
    got = _outcome(metric_from_potential, phi)
    assert _entries(got) == _entries(_outcome(metric_by_derivatives, phi))
    if not isinstance(got, tuple):
        assert _outcome(einstein_data, got) == _outcome(einstein_by_ricci, got)
    return got


# ----------------------------------------------------------------------
# catalog entries and pullbacks


_CATALOG = [spec.label() for spec in standard_entries()] + [
    "type4:3",
    "product(flat:1,hyp:1)",
    "product(hyp:1,flat:1)",
    "product(hyp:2,fs:1)",
    "dual(type1:2,2)",
    "dual(flat:1)",
    "dual(hyp:2)",
    "radial:1,1/2:1",
    "radial:1,1/3,1/5:2",
    "radial:2,1:1",
]


@pytest.mark.parametrize("order", [4, 7, 8])
@pytest.mark.parametrize("text", _CATALOG)
def test_catalog_metrics_and_einstein_data_match_the_jet_routes(text, order):
    # built without the catalog gate, so type3 and radial:2,1 are here too
    m = _assert_routes_agree(_raw_potential(parse_spec(text), order))
    if text == "product(hyp:1,flat:1)":
        # lam = -2 and L has no z2 term: only phi's |z2|^2 refutes Einstein
        assert m.einstein.lam == -2 and not m.einstein.is_einstein


@pytest.mark.parametrize("order", [4, 7, 8])
@pytest.mark.parametrize("build", [_bent, _sheared])
def test_pullback_metrics_and_einstein_data_match_the_jet_routes(build, order):
    m = build(parse_spec("hyp:2"), order)
    _assert_routes_agree(m.phi)


# ----------------------------------------------------------------------
# drawn potentials


def _unit(n, i, e=1):
    """The exponent vector e * e_i in n variables."""
    return tuple(e * int(k == i) for k in range(n))


def _exponents(slots, n):
    """(hol, anti) exponent vectors of the monomial with these slots."""
    counts = [slots.count(s) for s in range(2 * n)]
    return tuple(counts[:n]), tuple(counts[n:])


@st.composite
def potentials(draw, mirror=True, dims=st.integers(1, 3)):
    """|z|^2 plus drawn terms at order 2..12; each mixed term comes with
    its mirror at the same coefficient when ``mirror``, else at a drawn
    one.  Unless exact, the jet claims validity ``valid`` and the terms
    above it are noise."""
    n = draw(dims)
    order = draw(st.integers(2, 12))
    coefficient = st.builds(rat, st.integers(-6, 6), st.integers(1, 5))
    terms = {(_unit(n, i), _unit(n, i)): 1 for i in range(n)}
    for _ in range(draw(st.integers(0, 8))):
        slots = draw(st.lists(st.integers(0, 2 * n - 1), min_size=1, max_size=order))
        hol, anti = _exponents(slots, n)
        c = draw(coefficient)
        terms[(hol, anti)] = terms.get((hol, anti), 0) + c
        if any(hol) and any(anti) and hol != anti:
            mirrored = c if mirror else draw(coefficient)
            terms[(anti, hol)] = terms.get((anti, hol), 0) + mirrored
    phi = Jet(n, order, [(BiIndex(h, a), c) for (h, a), c in terms.items()])
    if draw(st.booleans()):
        phi = flagged(phi, draw(st.integers(2, order)), False)
    return phi


@seed(20201031)
@settings(max_examples=120, deadline=None)
@given(phi=potentials())
def test_drawn_metrics_and_einstein_data_match_the_jet_routes(phi):
    _assert_routes_agree(phi)


@seed(20201032)
@settings(max_examples=80, deadline=None)
@given(phi=potentials(mirror=False, dims=st.integers(1, 4)))
def test_hermitian_rule_names_the_entrywise_failure(phi):
    """The phi-key rule raises exactly when the entrywise test of g finds a
    non-Hermitian entry, and names the same first entry (i,j)."""
    got = _outcome(metric_from_potential, phi)
    want = _outcome(metric_by_derivatives, phi)
    assert _entries(got) == _entries(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hermitian_rule_names_each_entry_row_major(n):
    """One mirror pair off by one, at every (i,j) in turn: the error names
    (min, max) of the pair's variables."""
    base = [(BiIndex(_unit(n, i), _unit(n, i)), 1) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                hol, anti = _unit(n, i), _unit(n, j, 2)
                phi = Jet(n, 4, base + [(BiIndex(hol, anti), 1), (BiIndex(anti, hol), 2)])
                want = f"metric not Hermitian: entry ({min(i, j) + 1},{max(i, j) + 1})"
                for route in (metric_from_potential, metric_by_derivatives):
                    assert _outcome(route, phi) == ("DegenerateMetricError", want)


# ----------------------------------------------------------------------
# the fraction-free elimination


def _elimination(rows):
    """(inverse, all pivots positive, zero pivots) of the int route, as
    rationals, or its error."""
    try:
        q, n0, pivots = _eliminate(rows)
    except KahlapError as exc:
        return str(exc)
    inverse = [[rat(c, q) for c in row] for row in n0]
    return inverse, all(p > 0 for p in pivots), [p == 0 for p in pivots]


def _rational_elimination(rows):
    try:
        inverse, pivots = rational_eliminate(rows)
    except KahlapError as exc:
        return str(exc)
    return inverse, all(p > 0 for p in pivots), [p == 0 for p in pivots]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 1]],  # singular
        [[0, 0], [0, 0]],
        [[1, 2, 3], [2, 4, 6], [0, 1, 5]],
        [[1, 0], [0, -1]],  # indefinite
        [[-3]],
        [[0, 1], [1, 0]],  # zero leading entry: a row swap
        [[0, 2, 1], [2, 0, 0], [1, 0, 3]],
        [[4, 2], [2, 3]],
        [[6]],
    ],
)
def test_int_elimination_matches_the_rational_one(rows):
    assert _elimination(rows) == _rational_elimination(rows)


@seed(20201033)
@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3) | st.just(0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_drawn_int_elimination_matches_the_rational_one(rows):
    assert _elimination(rows) == _rational_elimination(rows)


# ----------------------------------------------------------------------
# gauge invariance


@seed(20201034)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("text", ["hyp:2", "type1:2,2", "radial:1,1/2:1"])
def test_gauge_terms_change_nothing_the_metric_determines(text, data):
    """phi + h + conj h, h holomorphic, has the metric, Einstein data and
    Laplacian powers of phi: the keyed routes read only mixed terms."""
    spec = parse_spec(text)
    n, order = spec.dim, 8
    phi = potential(spec, order)
    zero = (0,) * n
    gauge = []
    for _ in range(data.draw(st.integers(1, 5))):
        slots = data.draw(st.lists(st.integers(0, n - 1), max_size=order))
        hol = tuple(slots.count(s) for s in range(n))
        c = data.draw(st.builds(rat, st.integers(1, 9), st.integers(1, 7)))
        gauge += [(BiIndex(hol, zero), c), (BiIndex(zero, hol), c)]
    m = metric_from_potential(phi)
    gauged = metric_from_potential(phi + Jet(n, order, gauge))
    assert gauged.phi != phi
    assert _entries(gauged) == _entries(m)
    assert einstein_data(gauged) == einstein_data(m)
    family = build_test_family(n, 3)
    assert monomial_powers_at_origin(gauged, n, family.keys, 3) == monomial_powers_at_origin(
        m, n, family.keys, 3
    )
    # one test function that combines every row
    grades = {}
    for i, key in enumerate(family.keys):
        grades.setdefault(_digit_sum(key), {})[key] = i % 7 - 3 or 5
    combined = Jet._reduced(n, order, order, True, grades, 1)
    assert powers_at_origin(gauged, combined, 3) == powers_at_origin(m, combined, 3)


# ----------------------------------------------------------------------
# coordinate permutations


def _permuted(key, sigma):
    """The packed key of z^alpha zb^beta with the exponents of slot i moved
    to slot sigma[i], in both halves."""
    n = len(sigma)
    exps = _unpack(key, 2 * n)
    moved = [0] * (2 * n)
    for i, s in enumerate(sigma):
        moved[s], moved[n + s] = exps[i], exps[n + i]
    return _pack(moved)


@pytest.mark.parametrize(
    "text, sigma, symmetric",
    [
        ("type1:2,2", (1, 2, 0, 3), False),
        ("hyp:3", (1, 2, 0), True),
        ("polydisc:3", (1, 2, 0), True),
        ("product(flat:1,hyp:1)", (1, 0), False),
    ],
)
def test_coordinate_permutations_keep_every_row_value(text, sigma, symmetric):
    """z_i = w_sigma(i) is an isometry from the pullback of phi to phi, so
    on the pulled-back metric every family row, its slots moved by sigma,
    reads the Laplacian powers of the unmoved row on the metric of phi.
    No power of a 3-cycle is a symmetry of type1:2,2, so there a row moved
    by the inverse of sigma reads other values."""
    spec = parse_spec(text)
    n, order = spec.dim, 8
    phi = potential(spec, order)
    psi = pullback(phi, [Jet.variable(n, order, s + 1) for s in sigma])
    assert (psi == phi) == symmetric
    m, moved = metric_from_potential(phi), metric_from_potential(psi)
    keys = build_test_family(n, 3).keys
    den, levels = monomial_powers_at_origin(m, n, keys, 3)
    moved_den, moved_levels = monomial_powers_at_origin(
        moved, n, [_permuted(key, sigma) for key in keys], 3
    )
    for s, (level, moved_level) in enumerate(zip(levels, moved_levels), 1):
        assert any(level)
        assert [rat(v, moved_den**s) for v in moved_level] == [rat(v, den**s) for v in level]
    # lam reads g[0][0], so it moves with sigma unless the metric is Einstein
    e = einstein_data(m)
    assert e.is_einstein == (not isinstance(spec, Product))
    if e.is_einstein:
        e_moved = einstein_data(moved)
        assert (e_moved.lam, e_moved.is_einstein) == (e.lam, True)


def _rows(family, order):
    """Every family row as an exact jet at ``order``."""
    return [Jet(family.dim, order, [(family.index(pos), 1)]) for pos in range(len(family))]


@pytest.mark.parametrize("text", ["hyp:2", "polydisc:2", "type1:2,2"])
def test_a_map_tangent_to_the_identity_keeps_every_row_value(text):
    """F(w) = (w1 + w1 w2/3, w2 - w1^2/2, w3, ...) fixes the origin and is an
    isometry from the pullback of phi to phi, so Lap_{F*g}(mu o F)(0) =
    (Lap_g mu)(F(0)) = (Lap_g mu)(0) for every family row mu.  The map mixes
    the variables at degree 2, which no permutation or linear map does."""
    spec = parse_spec(text)
    n, order = spec.dim, 12
    phi = potential(spec, order)
    w = [Jet.variable(n, order, i) for i in range(1, n + 1)]
    f = [w[0] + (w[0] * w[1]).scale(rat(1, 3)), w[1] - (w[0] * w[0]).scale(rat(1, 2)), *w[2:]]
    m, pulled = metric_from_potential(phi), metric_from_potential(pullback(phi, f))
    values = []
    for mu in _rows(build_test_family(n, 3), order):
        mu_f = pullback(mu, f)
        assert mu_f.exact
        values.append(powers_at_origin(m, mu, 3))
        assert powers_at_origin(pulled, mu_f, 3) == values[-1]
    assert all(any(level) for level in zip(*values))


@pytest.mark.parametrize("text", ["hyp:2", "fs:2"])
def test_a_unitary_rotation_keeps_every_row_value(text):
    """U = [[3/5, -4/5], [4/5, 3/5]] is real orthogonal, hence unitary, and
    leaves the U(2)-invariant potential of ``text`` as it is, so every row
    rotated by U reads the Laplacian powers of the unrotated row."""
    order = 8
    phi = potential(parse_spec(text), order)
    w1, w2 = Jet.variable(2, order, 1), Jet.variable(2, order, 2)
    u = [w1.scale(rat(3, 5)) - w2.scale(rat(4, 5)), w1.scale(rat(4, 5)) + w2.scale(rat(3, 5))]
    assert pullback(phi, u) == phi
    m = metric_from_potential(phi)
    values = []
    for mu in _rows(build_test_family(2, 3), order):
        values.append(powers_at_origin(m, mu, 3))
        assert powers_at_origin(m, pullback(mu, u), 3) == values[-1]
    assert all(any(level) for level in zip(*values))


def test_einstein_data_needs_the_potential():
    m = metric_by_derivatives(potential(parse_spec("hyp:2"), 6))
    assert m.phi is None
    with pytest.raises(KahlapError, match="build the metric by metric_from_potential"):
        einstein_data(m)
