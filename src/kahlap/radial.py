"""Radial reduction for U(n)-invariant potentials.

A potential phi = F(t), t = |z|^2 = |z_1|^2 + ... + |z_n|^2, has the metric
g = F' I + F'' zb z^T, and its Laplacian maps a radial function u(t) to the
radial function

    Lap u = (n - 1) u' / F' + (t u')' / (t F')'

(at n = 1 only the second term is left).  This module computes
``Lap^s t^j (0)`` from that formula alone -- no jet, no matrix, no memo.
:func:`unitary_profile` decides, in one pass over the packed keys of a
potential, whether it is such an F(t) through a given degree and reads F
off it; :func:`power_table` runs the chains, and :func:`einstein` reads the
Einstein data off ``det g = F'^(n-1) (tF')'``.

On such a potential ``phi -> Lap^k phi(0)`` is a U(n)-invariant functional,
so it is ``p_k(Lapc) phi(0)`` for a monic p_k at every order.  Since
``Lapc^i t^j (0)`` is ``j! (n)_j`` at i = j ((n)_j the rising factorial)
and 0 otherwise, the coefficient a_j of X^j in p_k is ``Lap^k t^j (0) /
(j! (n)_j)``: that is how ``verify_property`` decides a U(n)-invariant spec,
with no metric and no test family.  Agreement with the multivariate engine
is enforced by tests, not at run time.

The chains run on ints.  Let D be the common denominator of f_0..f_kmax,
F = sum f_m t^m, with F'(0) = f_1 = 1 (g(0) = I).  Then 1/F' and 1/(tF')'
have the t^i coefficients p_i / D^i and q_i / D^i with int p_i and q_i, and
the t^i coefficient of ``Lap^s t^j`` is an int over D^(s+i-j): one step
maps the numerators w to

    w'_i = sum_{b <= i} (b + 1) ((n - 1) p_{i-b} + (b + 1) q_{i-b}) w_{b+1},

with no division.  After s steps only the degrees up to kmax - s can still
reach the origin, so each step drops the top one.
"""

from __future__ import annotations

import math

from .jets import KahlapError, _SHIFT, _digits
from .rationals import ZERO, rat


def unitary_profile(phi, kmax: int) -> list | None:
    """``[f_0, ..., f_kmax]`` when the terms of the potential jet ``phi``
    through degree 2 kmax are those of F(t) = sum f_m t^m, t = |z|^2, else
    None; ``Lap^k phi(0)`` for k <= kmax reads no other terms.  Exact, in
    one pass over the packed keys: only balanced terms z^a zb^a, each at
    ``f_m m! / a!`` with m = |a|, and every multi-index of each degree
    present (f_m is read at z_1^m zb_1^m, whose weight is 1)."""
    if phi._veff < 2 * kmax:
        return None
    n = phi.dim
    shift = _SHIFT * n
    low = (1 << shift) - 1
    fact = [math.factorial(e) for e in range(kmax + 1)]
    profile = []
    for d in range(2 * kmax + 1):
        bucket = phi._grades.get(d, {})
        if d % 2:
            if bucket:
                return None
            continue
        m = d // 2
        top = bucket.get(m | m << shift, 0)
        if len(bucket) != (math.comb(m + n - 1, m) if top else 0):
            return None
        weight = top * fact[m]
        for key, c in bucket.items():
            hol = key & low
            if key != hol | hol << shift:
                return None
            for _, e in _digits(hol):
                c *= fact[e]
            if c != weight:
                return None
        profile.append(rat(top, phi.den))
    return profile


def inverse_profiles(profile, kmax: int) -> tuple[int, list, list]:
    """``(D, p, q)`` with ``p[i] / D^i`` and ``q[i] / D^i`` the t^i
    coefficients of 1/F' and 1/(tF')', i < kmax, for F = sum profile[m]
    t^m (missing coefficients read 0); D is the common denominator of
    ``profile[:kmax + 1]``.  Raises KahlapError unless F'(0) = 1."""
    den, a, c = _derivatives(profile, kmax)
    return den, _reciprocal(a, den), _reciprocal(c, den)


def einstein(profile, n: int, top: int) -> tuple:
    """``(lam, is_einstein)`` for the metric of the potential F(|z|^2) in n
    variables, F = sum profile[m] t^m with F'(0) = 1, Einstein through
    degree 2 top - 2.  L = log det g = (n - 1) log F' + log (tF')' is a
    series in t whose every term is mixed, so Ric = -d dbar L = lam g
    through degree 2 top - 2 exactly when L_m + lam f_m = 0 for 1 <= m <=
    top; lam = -L_1, since g(0) = I.  L_m is an int over m D^m."""
    den, a, c = _derivatives(profile, top + 1)
    big = [
        rat((n - 1) * x + y, m * den**m)
        for m, x, y in zip(range(1, top + 1), _log(a, den)[1:], _log(c, den)[1:])
    ]
    lam = -big[0]
    f = [rat(x) for x in profile[1 : top + 1]]
    f += [ZERO] * (top - len(f))
    return lam, all(x + lam * y == 0 for x, y in zip(big, f))


def _derivatives(profile, kmax: int) -> tuple[int, list, list]:
    """``(D, a, c)``: the t^m coefficients, m < kmax, of D F' and D (tF')'
    as ints, for F = sum profile[m] t^m (missing coefficients read 0) and D
    the common denominator of ``profile[:kmax + 1]``; ``a[0] = c[0] = D``.
    Raises KahlapError unless F'(0) = 1."""
    f = [rat(c) for c in profile[: kmax + 1]]
    f += [ZERO] * (kmax + 1 - len(f))
    if kmax and f[1] != 1:
        raise KahlapError("radial profile needs F'(0) = 1")
    den = math.lcm(*(c.denominator for c in f))
    num = [c.numerator * (den // c.denominator) for c in f]
    # F' and (tF')' have the t^m coefficients (m+1) f_{m+1} and
    # (m+1)^2 f_{m+1}, and the constant term f_1 = 1
    return (
        den,
        [(m + 1) * num[m + 1] for m in range(kmax)],
        [(m + 1) ** 2 * num[m + 1] for m in range(kmax)],
    )


def _reciprocal(a: list, den: int) -> list:
    """c with ``c[i] / den^i`` the t^i coefficient of den / A(t), for
    A(t) = sum a[i] t^i with a[0] = den: from A c = den, term by term,
    ``c[i] = -sum_{1 <= m <= i} a[m] c[i-m] den^(m-1)``."""
    c = [1]
    for i in range(1, len(a)):
        c.append(-sum(a[m] * c[i - m] * den ** (m - 1) for m in range(1, i + 1)))
    return c


def _log(a: list, den: int) -> list:
    """g with ``g[m] / (m den^m)`` the t^m coefficient of log(A(t) / den),
    m >= 1, for A(t) = sum a[m] t^m with a[0] = den (g[0] = 0): from
    (log A)' A = A', term by term, ``g[m] = m a[m] den^(m-1) - sum_{1 <= i
    < m} g[i] a[m-i] den^(m-i-1)``."""
    g = [0]
    for m in range(1, len(a)):
        g.append(
            m * a[m] * den ** (m - 1)
            - sum(g[i] * a[m - i] * den ** (m - i - 1) for i in range(1, m))
        )
    return g


def power_table(profile, n: int, kmax: int) -> list[list]:
    """``table[j-1][s-1] = Lap^s t^j (0)``, j, s = 1..kmax, for the metric
    of the potential F(|z|^2) in n variables, F = sum profile[m] t^m with
    F'(0) = 1: one chain of kmax Laplacian steps per j, on int numerators,
    and one rational per entry (0 for s < j)."""
    den, p, q = inverse_profiles(profile, kmax)
    table = []
    for j in range(1, kmax + 1):
        w = [0] * (kmax + 1)
        w[j] = 1
        row = []
        for s in range(1, kmax + 1):
            w = [
                sum(
                    (b + 1) * ((n - 1) * p[i - b] + (b + 1) * q[i - b]) * w[b + 1]
                    for b in range(i + 1)
                )
                for i in range(len(w) - 1)
            ]
            row.append(rat(w[0], den ** (s - j)) if s >= j else ZERO)
        table.append(row)
    return table

