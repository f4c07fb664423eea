"""Exact linear algebra over the rationals.

Everything in this module works on ``fractions.Fraction`` entries and makes
no floating point detours.  Matrices are plain lists of lists; vectors are
tuples.  This is the arithmetic substrate for all geometric predicates:
barycentric coordinates, affine independence and the strict-feasibility
test used to decide whether two open simplices meet.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]

F0 = Fraction(0)
F1 = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vcomb(coeffs: Sequence[Fraction], points: Sequence[Vec]) -> Vec:
    """Affine/linear combination sum(c_i * p_i)."""
    dim = len(points[0])
    out = [F0] * dim
    for c, p in zip(coeffs, points):
        for i in range(dim):
            out[i] += c * p[i]
    return tuple(out)


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank by fraction-free-ish Gaussian elimination (copies its input)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    col = 0
    while rank < nr and col < nc:
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, nc):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        col += 1
    return rank


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b exactly.

    Returns one solution, or None when the system is inconsistent.  For
    underdetermined systems the free variables are set to zero.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(nr):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        pivots.append((rank, col))
        rank += 1
        if rank == nr:
            break
    for i in range(rank, nr):
        if aug[i][nc] != 0:
            return None
    x = [F0] * nc
    for r, c in pivots:
        x[c] = aug[r][nc]
    return x


def affinely_independent(points: Sequence[Vec]) -> bool:
    if len(points) <= 1:
        return True
    rows = [list(vsub(p, points[0])) for p in points[1:]]
    return mat_rank(rows) == len(points) - 1


def barycentric_coords(points: Sequence[Vec], x: Vec) -> Optional[list[Fraction]]:
    """Coordinates of x in the affine basis `points`, or None if x is
    outside their affine hull.  `points` must be affinely independent."""
    # lambda_0..k with sum 1 and sum lambda_i p_i = x
    k = len(points)
    rows = [[points[j][i] for j in range(k)] for i in range(len(x))]
    rows.append([F1] * k)
    rhs = list(x) + [F1]
    sol = solve_linear(rows, rhs)
    return sol


# ---------------------------------------------------------------------------
# Exact LP: strict feasibility for open-simplex intersection.
# ---------------------------------------------------------------------------

def _simplex_max(cobj: list[Fraction], A: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Maximize cobj.x subject to A x = b, x >= 0, via two-phase simplex with
    Bland's rule.  Returns an optimal x, or None when infeasible.  The
    caller must ensure the objective is bounded (ours always is)."""
    m = len(A)
    n = len(A[0]) if m else 0
    # make rhs nonnegative
    A = [list(r) for r in A]
    b = list(b)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    # phase 1 tableau with artificials
    ncols = n + m
    T = [A[i] + [F1 if j == i else F0 for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-1 objective: minimize the sum of artificials; the entering test
    # below only ever looks at the original columns of zrow
    zrow = [F0] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            zrow[j] += T[i][j]

    def pivot(T, zrow, basis, r, c):
        pv = T[r][c]
        T[r] = [x / pv for x in T[r]]
        for i in range(len(T)):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [x - f * y for x, y in zip(T[i], T[r])]
        if zrow[c] != 0:
            f = zrow[c]
            for j in range(len(zrow)):
                zrow[j] -= f * T[r][j]
        basis[r] = c

    def run(T, zrow, basis, allowed):
        while True:
            enter = next((j for j in allowed if zrow[j] > 0), None)
            if enter is None:
                return
            ratios = [(T[i][ncols] / T[i][enter], basis[i], i)
                      for i in range(m) if T[i][enter] > 0]
            if not ratios:
                raise ArithmeticError("unbounded LP")
            _, _, r = min(ratios, key=lambda t: (t[0], t[1]))
            pivot(T, zrow, basis, r, enter)

    run(T, zrow, basis, list(range(n)))
    if zrow[ncols] != 0:
        return None  # infeasible
    # drive artificials out of basis when possible
    for i in range(m):
        if basis[i] >= n:
            c = next((j for j in range(n) if T[i][j] != 0), None)
            if c is not None:
                pivot(T, zrow, basis, i, c)
    # phase 2
    zrow2 = [F0] * (ncols + 1)
    for j in range(n):
        zrow2[j] = frac(cobj[j]) if j < len(cobj) else F0
    # express objective in terms of nonbasic vars
    for i in range(m):
        if basis[i] < n and zrow2[basis[i]] != 0:
            f = zrow2[basis[i]]
            for j in range(ncols + 1):
                zrow2[j] -= f * T[i][j]
    # forbid re-entering artificial columns
    while True:
        enter = next((j for j in range(n) if zrow2[j] > 0), None)
        if enter is None:
            break
        ratios = [(T[i][ncols] / T[i][enter], basis[i], i)
                  for i in range(m) if T[i][enter] > 0]
        if not ratios:
            raise ArithmeticError("unbounded LP")
        _, _, r = min(ratios, key=lambda t: (t[0], t[1]))
        pivot(T, zrow2, basis, r, enter)
    x = [F0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][ncols]
    return x


def convex_positions_intersect(pts_a: Sequence[Vec], pts_b: Sequence[Vec],
                               strict_a: bool = True, strict_b: bool = True) -> bool:
    """Exact test whether the two hulls meet.

    With strict flags set, the corresponding hull is taken relatively open
    (all barycentric weights > 0), i.e. the open simplex when the points are
    affinely independent.  The test maximizes the minimal strict weight t
    subject to the matching constraints; intersection holds iff the optimum
    is positive (or the system is feasible at all when nothing is strict).
    """
    ka, kb = len(pts_a), len(pts_b)
    dim = len(pts_a[0])
    nstrict = (ka if strict_a else 0) + (kb if strict_b else 0)
    # variables: lam (ka), mu (kb), t, slack per strict bound, slack for t<=1
    it = ka + kb
    nvar = ka + kb + 1 + nstrict + 1
    A: list[list[Fraction]] = []
    b: list[Fraction] = []

    def row() -> list[Fraction]:
        return [F0] * nvar

    for i in range(dim):
        r = row()
        for j in range(ka):
            r[j] = pts_a[j][i]
        for j in range(kb):
            r[ka + j] = -pts_b[j][i]
        A.append(r)
        b.append(F0)
    r = row()
    for j in range(ka):
        r[j] = F1
    A.append(r)
    b.append(F1)
    r = row()
    for j in range(kb):
        r[ka + j] = F1
    A.append(r)
    b.append(F1)
    strict_vars = (list(range(ka)) if strict_a else []) + \
                  (list(range(ka, ka + kb)) if strict_b else [])
    for s, j in enumerate(strict_vars):
        r = row()
        r[j] = F1
        r[it] = -F1
        r[it + 1 + s] = -F1
        A.append(r)
        b.append(F0)
    r = row()
    r[it] = F1
    r[it + 1 + nstrict] = F1
    A.append(r)
    b.append(F1)
    c = [F0] * nvar
    c[it] = F1
    sol = _simplex_max(c, A, b)
    if sol is None:
        return False
    if nstrict == 0:
        return True
    return sol[ka + kb] > 0
