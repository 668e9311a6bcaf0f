"""Whole-jet oracles that the engine does not run: the tests check the
engine's origin values and its Jacobi-formula Ricci against them.

- :func:`kahler_laplacian` and :func:`euclidean_laplacian` apply the
  operators to a whole jet; iterating them and reading each result at 0 is
  the reference for the memoised origin recursion of
  :mod:`kahlap.laplacian`, and ``kahler_laplacian`` pins the transposition
  convention of ``g_inv`` (README, "Conventions").
- :func:`ricci_contracted` computes Ricci from the curvature-style
  contraction of metric derivatives, with no logarithm, against
  :func:`kahlap.geometry.ricci`.

All of them read the whole series inverse ``MetricJet.g_inv``.
"""

from kahlap.jets import _INF, DimensionMismatchError, Jet, _mul_capped


def mat_mul(a, b, cap: int):
    """Matrix product with every jet product capped at degree ``cap``.

    Entries come back at the ambient order of ``a``'s entries so they mix
    freely with uncapped jets; their validity is bounded by ``cap``.  A
    product with a zero factor has no terms and is skipped, but its
    validity and exactness still bound the entry's.
    """
    n = len(a)
    m = len(b[0])
    inner = len(b)
    dim = a[0][0].dim
    ambient = a[0][0].order
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            # flags of the skipped products, as _mul_capped would set them:
            # a zero product drops no degree, so it is exact when both are
            veff, exact = _INF, True
            for k in range(inner):
                x, y = a[i][k], b[k][j]
                if x.is_zero or y.is_zero:
                    if not (x.exact and y.exact):
                        veff, exact = min(veff, x._veff, y._veff, cap), False
                    continue
                p = _mul_capped(x, y, cap).lifted(ambient)
                acc = p if acc is None else acc + p
            if acc is None:
                acc = Jet._raw(dim, ambient, veff, exact, {})
            elif not exact:
                acc = acc._flagged(min(acc._veff, veff), False)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ricci_contracted(m, cap: int | None = None):
    """Ricci from the curvature-style contraction of metric derivatives:

        Ric[i][j] = sum_{a,b} X[a][b] * ( -d_b dbar_a g[i][j]
                    + sum_{c,d} X[c][d] * d_b g[i][c] * dbar_a g[d][j] )

    with X = g_inv.  It takes no logarithm, so it cross-checks Jacobi's
    formula in :func:`kahlap.geometry.ricci`; products are capped at
    ``cap`` when given (the comparison degree), which keeps the n^2 matrix
    products cheap.
    """
    n = m.dim
    cap = m.order if cap is None else cap
    x = m.g_inv
    da_g = [
        tuple(tuple(m.g[i][c].diff_hol(b + 1) for c in range(n)) for i in range(n))
        for b in range(n)
    ]
    db_g = [
        tuple(tuple(m.g[d][j].diff_anti(a + 1) for j in range(n)) for d in range(n))
        for a in range(n)
    ]
    #   P_b = (d_b g) X ;  Q_ab = P_b (dbar_a g)
    p = [mat_mul(da_g[b], x, cap) for b in range(n)]
    ambient = m.order
    acc = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            q = mat_mul(p[b], db_g[a], cap)
            hess = tuple(
                tuple(m.g[i][j].diff_hol(b + 1).diff_anti(a + 1) for j in range(n))
                for i in range(n)
            )
            for i in range(n):
                for j in range(n):
                    term = _mul_capped(x[a][b], q[i][j] - hess[i][j], cap)
                    term = term.lifted(ambient)
                    acc[i][j] = term if acc[i][j] is None else acc[i][j] + term
    return tuple(tuple(row) for row in acc)


def matrices_agree(a, b, through: int | None = None) -> bool:
    return all(
        ea.agrees(eb, through) for ra, rb in zip(a, b) for ea, eb in zip(ra, rb)
    )


def euclidean_laplacian(phi: Jet) -> Jet:
    """sum_i d^2 phi / dz_i dzb_i."""
    acc = None
    for i in range(1, phi.dim + 1):
        term = phi.diff_hol(i).diff_anti(i)
        acc = term if acc is None else acc + term
    return acc


def kahler_laplacian(m, phi: Jet) -> Jet:
    """sum_{a,b} g_inv[a][b] * d^2 phi / dz_b dzb_a.

    Result validity is min(metric valid, phi valid - 2).
    """
    if phi.dim != m.dim:
        raise DimensionMismatchError(
            f"metric dimension {m.dim} vs jet dimension {phi.dim}"
        )
    x = m.g_inv
    acc = None
    for a in range(m.dim):
        for b in range(m.dim):
            hess = phi.diff_hol(b + 1).diff_anti(a + 1)
            if hess.is_zero and acc is not None:
                continue
            term = _mul_capped(x[a][b], hess, phi.order)
            acc = term if acc is None else acc + term
    return acc
