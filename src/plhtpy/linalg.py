"""Exact linear algebra over the rationals.

Everything in this module works on ``fractions.Fraction`` entries and makes
no floating point detours.  Matrices are plain lists of lists; vectors are
tuples.  This is the arithmetic substrate for all geometric predicates:
barycentric coordinates, affine independence and the strict-feasibility
test used to decide whether two open simplices meet.

One exact elimination kernel, `eliminate` (fraction-free, over the
integers), serves coordinates, rank and volume: `AffineFrame` (one frame
per point list, kept per simplex by `Complex.frame`), `mat_rank` and
`subdivision.relative_volume`.  Only `solve_linear` and the LP eliminate
over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def integer_row(row) -> tuple[list[int], int]:
    """A rational row times the least common denominator L of its
    entries: integers, and L."""
    pairs = [q.as_integer_ratio() for q in row]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968) of the integer matrix m, in place, over its first
    `ncols` columns, skipping a column with no pivot.  Every division is
    exact: each entry stays a minor of the start matrix.  Returns the pivot
    columns and the last pivot, which is +-det(m) when m is square and
    every column pivots."""
    n = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(n):
            if i == r:
                continue
            a = m[i][c]
            if a:
                m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
            elif p != prev:             # a zero entry only rescales the row
                m[i] = [p * x // prev for x in m[i]]
        prev = p
        pivots.append(c)
    return pivots, prev


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank: the pivots of `eliminate` on the rows scaled to integers."""
    m = [integer_row(r)[0] for r in rows]
    return len(eliminate(m, len(m[0]) if m else 0)[0])


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


class AffineFrame:
    """Barycentric coordinates in one point list, eliminated once.

    Each row of the (d+1) x k system [p_j; 1] is scaled to integers and
    the system is reduced by `eliminate` alongside an identity block that
    records the row operations.  For affinely independent points this
    leaves, per coordinate, an integer row and a pivot with
    lambda_j = row . (x, 1) / pivot, and d+1-k integer left-null rows that
    vanish at (x, 1) exactly when x lies on the affine hull.  `coords`
    then needs only integer dot products.  An affinely dependent list
    keeps the Fraction solve of `solve_linear` (free coordinates 0).
    """

    __slots__ = ("points", "rows", "null")

    def __init__(self, points: Sequence[Vec]):
        self.points = list(points)
        k = len(self.points)
        d = len(self.points[0])
        n = d + 1
        scaled = [integer_row(c) for c in zip(*self.points)] + [([1] * k, 1)]
        m = [row + [int(i == j) for j in range(n)]
             for i, (row, _) in enumerate(scaled)]
        scale = [den for _, den in scaled]
        pivots, prev = eliminate(m, k)
        if len(pivots) < k:
            self.rows = self.null = None
            return
        # the identity block holds E with E [p_j; 1] = [prev I; 0]
        rows = []
        for j in range(k):
            row = [e * s for e, s in zip(m[j][k:], scale)]
            g = gcd(prev, *row)
            if prev < 0:
                g = -g
            rows.append(([x // g for x in row], prev // g))
        self.rows = rows
        self.null = []
        for i in range(k, n):
            row = [e * s for e, s in zip(m[i][k:], scale)]
            g = gcd(*row)
            self.null.append([x // g for x in row])

    def offsets(self, x: Vec) -> list[int]:
        """Left-null rows at (x, 1), times the positive common denominator
        of x: all zero exactly when x lies on the affine hull."""
        scaled = _integer_point(x)
        return [sum(a * b for a, b in zip(row, scaled)) for row in self.null]

    def coords(self, x: Vec) -> Optional[list[Fraction]]:
        """Barycentric coordinates of x, or None if x is off the hull."""
        if self.rows is None:
            # lambda_0..k with sum 1 and sum lambda_j p_j = x
            rows = [[p[i] for p in self.points] for i in range(len(x))]
            rows.append([F1] * len(self.points))
            return solve_linear(rows, list(x) + [F1])
        scaled = _integer_point(x)
        for row in self.null:
            if sum(a * b for a, b in zip(row, scaled)):
                return None
        den = scaled[-1]
        return [Fraction(sum(a * b for a, b in zip(row, scaled)), den * piv)
                for row, piv in self.rows]


def _integer_point(x: Vec) -> list[int]:
    """(x, 1) times the least common denominator L of x: integers X, L."""
    scaled, den = integer_row(x)
    return scaled + [den]


def barycentric_coords(points: Sequence[Vec], x: Vec) -> Optional[list[Fraction]]:
    """Coordinates of x in the affine basis `points`, or None if x is
    outside their affine hull; a one-off `AffineFrame`."""
    return AffineFrame(points).coords(x)


def _separates(frame: AffineFrame, other: Sequence[Vec]) -> bool:
    dim = len(frame.points[0])
    if len(frame.points) == dim + 1:
        # barycentric coordinate i vanishes on facet i and is positive on
        # the open simplex: `other` must sit on its closed negative side
        coords = [frame.coords(q) for q in other]
        return any(all(c[i] <= 0 for c in coords)
                   and any(c[i] < 0 for c in coords) for i in range(dim + 1))
    if len(frame.points) == dim:
        # the one left-null row vanishes exactly on the hull: `other` must
        # sit on one closed side, not all on the hull
        vals = [frame.offsets(q)[0] for q in other]
        return ((all(v >= 0 for v in vals) or all(v <= 0 for v in vals))
                and any(v != 0 for v in vals))
    return False


def hyperplane_separated(frame_a: AffineFrame, frame_b: AffineFrame) -> bool:
    """Exact sufficient test that the open simplices on two affinely
    independent point lists, given as their frames, are disjoint.

    The candidate hyperplanes are the facet hyperplanes of a
    full-dimensional simplex and the hull of a codimension-1 simplex; one
    separates when every vertex of the other simplex lies on one closed
    side of it (for a facet, the side away from the simplex) and at least
    one lies strictly off it.  False means undecided, not intersecting.
    """
    return (_separates(frame_a, frame_b.points)
            or _separates(frame_b, frame_a.points))


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


def convex_positions_intersect(pts_a: Sequence[Vec], pts_b: Sequence[Vec]) -> bool:
    """Exact test whether the relatively open hulls of the two point lists
    meet (all barycentric weights > 0 on both sides): the open simplices,
    when the points are affinely independent.

    The test maximizes the minimal weight t subject to the matching
    constraints; the hulls meet iff the optimum is positive.
    """
    ka, kb = len(pts_a), len(pts_b)
    dim = len(pts_a[0])
    # variables: lam (ka), mu (kb), t, slack per weight, slack for t<=1
    it = ka + kb
    nvar = 2 * it + 2
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
    for j in range(it):
        r = row()
        r[j] = F1
        r[it] = -F1
        r[it + 1 + j] = -F1
        A.append(r)
        b.append(F0)
    r = row()
    r[it] = F1
    r[nvar - 1] = F1
    A.append(r)
    b.append(F1)
    c = [F0] * nvar
    c[it] = F1
    sol = _simplex_max(c, A, b)
    return sol is not None and sol[it] > 0
