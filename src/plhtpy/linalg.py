"""Exact linear algebra over the rationals.

Points come in as ``fractions.Fraction`` tuples, with no floating point
detours, and each becomes one integer point (`integer_point`) that frames
are built from and asked in; matrices are plain lists of lists.  This is
the arithmetic substrate for all geometric predicates: barycentric
coordinates, affine independence and the strict-feasibility test used to
decide whether two open simplices meet.  That test is one phase-1 simplex
feasibility problem, `_feasible`: the open hulls of a_1..a_ka and
b_1..b_kb meet exactly when some lambda_i >= 1, mu_j >= 1 give
sum lambda_i (a_i, 1) = sum mu_j (b_j, 1), and closed a meets open b when
lambda_i >= 0 do.  It is the last screen of
`complexes.check_pairwise_disjoint` and decides `Complex.star` outside
the core; the one before it, `hyperplane_separated`, looks for a
separating hyperplane inside the affine hull of the two simplices' union,
read from the integer left-null rows of their frames.

Every elimination is over the integers, one fraction-free step `_pivot`
at a time: `eliminate` serves coordinates, rank and volume (`AffineFrame`,
one frame per point list, built on first use and kept per simplex by
`Complex.frame`; the rows of a maximal simplex's frame decide the affine
independence of its faces, `Complex.is_independent`; the signed
determinants of `subdivision`, whose signs give the facet sides; the rank
of the offsets a vertex union adds to a frame, the last case of
`hyperplane_separated`, and of those a whole complex adds to its largest
simplex, screen 0 of `complexes.check_pairwise_disjoint`), and the LP
pivots its integer tableau with the same step.  A frame answers with
`AffineFrame.weights`: integer numerators over one positive denominator,
so the sign tests and the relative volumes build no Fraction; `coords` is
the Fraction form of the same answer.  `solve_linear`,
`barycentric_coords`, `affinely_independent`, `vsub` and `mat_rank` are
on no path of the package; tests use them as references.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import Incompatible

Vec = tuple[Fraction, ...]

F0 = Fraction(0)


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


def centroid(points: Sequence[Vec]) -> Vec:
    """The average of the points: one exact Fraction per coordinate, for
    integer points too.  A coordinate's numerators are summed over the
    least common denominator D of its column, and one Fraction of that sum
    over n * D is normalised once, where a sum of Fractions normalises
    after every addition; both are the same reduced fraction."""
    n = len(points)
    out = []
    for col in zip(*points):
        den = lcm(*[q.denominator for q in col])
        out.append(Fraction(sum([q.numerator * (den // q.denominator)
                                 for q in col]), den * n))
    return tuple(out)


def integer_point(x) -> tuple[int, ...]:
    """The homogeneous integer point of a rational point x: (x, 1) times
    the least common denominator D of x, the integers (X, D)."""
    pairs = [q.as_integer_ratio() for q in x]
    den = lcm(*[d for _, d in pairs])
    return (*[n * (den // d) for n, d in pairs], den)


def _pivot(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968), in place: clear column c of all rows but r by the pivot
    p = m[r][c], moving them from the common denominator `prev` to p.  Each
    division is exact, as each entry stays a minor of the start matrix.
    Returns p, the next `prev`."""
    top = m[r]
    p = top[c]
    for i in range(len(m)):
        if i == r:
            continue
        a = m[i][c]
        if a:
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        elif p != prev:             # a zero entry only rescales the row
            m[i] = [p * x // prev for x in m[i]]
    return p


def eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix m by
    `_pivot`, in place, over its first `ncols` columns, skipping a column
    with no pivot.  A swap negates the row it moves down, so the last
    pivot, returned with the pivot columns, is det(m) when m is square and
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
        if piv != r:
            m[r], m[piv] = m[piv], [-x for x in m[r]]
        prev = _pivot(m, r, c, prev)
        pivots.append(c)
    return pivots, prev


def mat_rank(rows: list[list[Fraction]]) -> int:
    """Rank: the pivots of `eliminate` on the rows scaled to integers."""
    m = [integer_point(r)[:-1] for r in rows]
    return len(eliminate(m, len(m[0]) if m else 0)[0])


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b exactly: `eliminate` on the rows of [A | b] scaled to
    integers.

    Returns one solution, or None when the system is inconsistent.  For
    underdetermined systems the free variables are set to zero.
    """
    nc = len(rows[0]) if rows else 0
    m = [integer_point([*r, b])[:-1] for r, b in zip(rows, rhs)]
    pivots, _ = eliminate(m, nc)
    if any(row[nc] for row in m[len(pivots):]):
        return None
    x = [F0] * nc
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][nc], m[r][c])
    return x


def affinely_independent(points: Sequence[Vec]) -> bool:
    if len(points) <= 1:
        return True
    rows = [list(vsub(p, points[0])) for p in points[1:]]
    return mat_rank(rows) == len(points) - 1


class AffineFrame:
    """Barycentric coordinates in one point list, eliminated once.

    Built from and asked in the integer points of `integer_point`: the
    columns D_j (p_j, 1), kept as `points`, are reduced by `eliminate`
    alongside an identity block that records the row operations E, so
    E [D_j (p_j, 1)] = [prev I; 0].  For affinely independent points,
    lambda_j = D_j (E y)_j / (y_D prev) at y = y_D (x, 1): one integer row
    per coordinate over one positive denominator |prev|, and d+1-k
    integer left-null rows that vanish at y exactly when x lies on the
    affine hull.  `weights` and `offsets` need only integer dot products,
    which is all a sign test reads; `coords` is their Fraction edge.  An
    affinely dependent list has no barycentric coordinates, and its frame
    answers None to every question.
    """

    __slots__ = ("points", "rows", "den", "null")

    def __init__(self, points: Sequence[Sequence[int]]):
        self.points = list(points)
        k = len(self.points)
        n = len(self.points[0])
        m = [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(zip(*self.points))]
        pivots, prev = eliminate(m, k)
        if len(pivots) < k:
            self.rows = self.den = self.null = None
            return
        # the identity block holds E with E [D_j (p_j, 1)] = [prev I; 0]
        sign = 1 if prev > 0 else -1
        self.rows = [[sign * p[-1] * e for e in m[j][k:]]
                     for j, p in enumerate(self.points)]
        self.den = abs(prev)
        self.null = []
        for row in m[k:]:
            g = gcd(*row[k:])
            self.null.append([x // g for x in row[k:]])

    def _check_arity(self, y: Sequence[int]) -> None:
        n = len(self.points[0])
        if len(y) != n:
            raise Incompatible(f"point has {len(y) - 1} coordinates, but the "
                               f"frame's points have {n - 1}")

    def offsets(self, y: Sequence[int]) -> Optional[list[int]]:
        """Left-null rows at the integer point y, all zero exactly when y
        is on the affine hull; None on a dependent frame."""
        self._check_arity(y)
        if self.null is None:
            return None
        return [sum(map(mul, row, y)) for row in self.null]

    def weights(self, y: Sequence[int]) -> Optional[tuple[list[int], int]]:
        """Barycentric coordinates at the integer point y as integer
        numerators w over one positive denominator q, lambda_j = w_j / q,
        or None off the hull or on a dependent frame; a point of another
        arity than the frame's is Incompatible."""
        self._check_arity(y)
        if self.rows is None:
            return None
        for row in self.null:
            if sum(map(mul, row, y)):
                return None
        return [sum(map(mul, row, y)) for row in self.rows], y[-1] * self.den

    def coords(self, x: Vec) -> Optional[list[Fraction]]:
        """Barycentric coordinates of the rational point x as Fractions,
        the `weights` divided out, or None when `weights` is."""
        hit = self.weights(integer_point(x))
        if hit is None:
            return None
        w, q = hit
        return [Fraction(a, q) for a in w]


def barycentric_coords(points: Sequence[Vec], x: Vec) -> Optional[list[Fraction]]:
    """Coordinates of x in the affine basis `points`, or None if x is
    outside their affine hull; a one-off `AffineFrame`."""
    return AffineFrame([integer_point(p) for p in points]).coords(x)


def _separates(frame: AffineFrame, other: Sequence[Sequence[int]]) -> bool:
    if frame.rows is None:
        return False
    # points of `frame` have zero offsets: ask only those `other` adds
    added = [frame.offsets(q) for q in other if q not in frame.points]
    if not any(map(any, added)):
        # `other` lies on hull(frame), where barycentric coordinate j
        # vanishes on facet j and is positive on the open simplex: `other`
        # must sit on its closed negative side
        signs = [frame.weights(q)[0] for q in other]
        return any(all(w[j] <= 0 for w in signs)
                   and any(w[j] < 0 for w in signs)
                   for j in range(len(frame.points)))
    # offset i is, up to a positive factor, an affine function phi_i that
    # vanishes on hull(frame).  When no phi_i takes both signs on `other`,
    # psi = sum_i sign_i phi_i is >= 0 on it, 0 on hull(frame) and > 0 at
    # a vertex with a nonzero offset: psi = 0 is a hyperplane of the
    # union's hull through hull(frame), with `other` on one closed side
    # and not all on it
    if not any(min(col) < 0 < max(col) for col in zip(*added)):
        return True
    # the null rows have full row rank and vanish exactly on the span of
    # the frame's homogeneous points, so the union is affinely independent
    # exactly when the offsets of the points `other` adds are linearly
    # independent (two or more here, as a coordinate takes both signs;
    # more than there are coordinates never are).  Only the larger frame
    # is asked: it adds fewer rows
    if len(frame.points) < len(other):
        return False
    return (len(added) <= len(frame.null)
            and len(eliminate(added, len(frame.null))[0]) == len(added))


def hyperplane_separated(frame_a: AffineFrame, frame_b: AffineFrame) -> bool:
    """Exact sufficient test that the open simplices on two affinely
    independent point lists, given as their frames, are disjoint; each
    frame is asked in the integer points of the other.

    Each side is tried as `frame` against the other's vertices, inside the
    affine hull H of their union, read from the offsets of `frame`:
    - all offsets zero: H is hull(frame), in which the simplex is
      full-dimensional; a facet hyperplane separates when every vertex of
      the other simplex lies on its closed side away from the simplex and
      one lies strictly off it;
    - no offset coordinate takes both signs: a hyperplane of H through
      hull(frame) has every vertex of the other simplex on one closed
      side and one strictly off it.  This covers a codimension-1 simplex,
      and every case where the nonzero offsets are positive multiples of
      one vector, i.e. hull(frame) is a hyperplane of H;
    - `frame` has at least as many points as the other list, and the
      offsets of the points the other list adds are linearly independent
      under `eliminate`: the union is affinely independent, so the two
      are distinct faces of one simplex, and a hyperplane of H through
      hull(frame) has the added points strictly on one side;
    - anything else is undecided.
    False means undecided, not intersecting.  In
    `complexes.check_pairwise_disjoint` this runs after the box sweep and
    the skip of a union that is a simplex of K, and before the exact LP.
    """
    return (_separates(frame_a, frame_b.points)
            or _separates(frame_b, frame_a.points))


# ---------------------------------------------------------------------------
# Exact LP: one phase-1 feasibility problem for open-simplex intersection.
# ---------------------------------------------------------------------------

def _feasible(A: list[list[int]], b: list[int]) -> bool:
    """Is {x >= 0 : A x = b} nonempty?  Phase 1 of the simplex method on
    an integer tableau, pivoted by `_pivot`.

    After making b >= 0, one artificial per row starts as the basis; the
    last tableau row holds their sum in reduced form, and the system is
    feasible exactly when that sum reaches 0.  It is bounded below by 0,
    so no step is unbounded.  Bland's rule (Bland, Math. Oper. Res. 2,
    1977) -- the lowest improving column enters, ratio ties leave by the
    lowest basic index -- makes the method terminate.  Only original
    columns enter: an artificial that left the basis is 0 in every
    feasible point, so its column is never needed.  Every pivot is
    positive, so the common denominator stays positive and every sign and
    ratio is that of the Fraction tableau; only the ratio test builds
    Fractions.  No objective: positive weights scale to least weight 1.
    """
    m, n = len(A), len(A[0])
    T = [[x if r >= 0 else -x for x in row + [r]] for row, r in zip(A, b)]
    T.append([sum(col) for col in zip(*T)])
    basis = list(range(n, n + m))       # n + i: the artificial of row i
    prev = 1
    while T[m][n]:
        enter = next((j for j in range(n) if T[m][j] > 0), None)
        if enter is None:
            return False
        r = min((i for i in range(m) if T[i][enter] > 0),
                key=lambda i: (Fraction(T[i][n], T[i][enter]), basis[i]))
        prev = _pivot(T, r, enter, prev)
        basis[r] = enter
    return True


def convex_positions_intersect(pts_a: Sequence[Vec], pts_b: Sequence[Vec],
                               closed_a: bool = False) -> bool:
    """Exact test whether the relatively open hulls of the two point lists
    meet (all barycentric weights > 0 on both sides): the open simplices,
    when the points are affinely independent.  With `closed_a` the hull of
    pts_a is closed instead (weights >= 0).

    They meet exactly when some lambda_i >= 1, mu_j >= 1 give
    sum lambda_i (a_i, 1) = sum mu_j (b_j, 1): positive weights of a common
    point, divided by their least entry, are such lambda, mu, and lambda,
    mu divided by their common sum are positive weights of a common point.
    A positive multiple of a column (p, 1) keeps its weight's sign, so the
    columns are the integer points `integer_point(p)`.  With
    x = (lambda - 1, mu - 1) >= 0 this is one phase-1 problem of d + 1 rows
    and ka + kb columns: A x = -A 1 for A = [(a_i, 1) | -(b_j, 1)].  A
    closed a needs lambda >= 0 only (the last row keeps it nonzero), so
    x = (lambda, mu - 1) and the right-hand side sums b's columns alone.
    """
    cols = ([integer_point(p) for p in pts_a]
            + [[-x for x in integer_point(q)] for q in pts_b])
    A = [list(row) for row in zip(*cols)]
    skip = len(pts_a) if closed_a else 0
    return _feasible(A, [-sum(row[skip:]) for row in A])
