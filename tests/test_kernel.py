"""The one exact elimination step, `linalg._pivot`: `linalg.eliminate`
behind rank and volume against minors, `linalg.AffineFrame` against the
Fraction solve it replaces, the integer phase-1 LP against the Fraction
tableau it replaces, and the guard that every path eliminates each simplex
of a complex once and solves nothing over Fractions."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from plhtpy import cylinders as cy
from plhtpy import linalg
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import Complex, validate
from plhtpy.errors import Incompatible, OverlappingSimplices

from conftest import frame_on, make_perturbed_disk, make_rot


def fraction_solve(rows, rhs):
    """The Fraction Gauss-Jordan `linalg.solve_linear` ran before it went
    to integers: one solution of A x = b with the free variables 0, or
    None when the system is inconsistent."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
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
    if any(aug[i][nc] != 0 for i in range(rank, nr)):
        return None
    x = [F(0)] * nc
    for r, c in pivots:
        x[c] = aug[r][nc]
    return x


def solve_reference(points, x):
    """The Fraction Gauss-Jordan path `barycentric_coords` used to take,
    checked against `linalg.solve_linear` on the same system."""
    k = len(points)
    rows = [[points[j][i] for j in range(k)] for i in range(len(x))]
    rows.append([F(1)] * k)
    rhs = list(x) + [F(1)]
    sol = fraction_solve(rows, rhs)
    assert linalg.solve_linear(rows, rhs) == sol, (rows, rhs)
    return sol


def rational(rng, big):
    if big:
        return F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def combination(rng, points, signs):
    """Affine combination with weights of the given signs (+1, 0, -1)."""
    while True:
        w = [F(s * rng.randint(1, 9), rng.randint(1, 5)) for s in signs]
        if sum(w) != 0:
            total = sum(w)
            return linalg.vcomb([c / total for c in w], points), \
                [c / total for c in w]


def queries(rng, points, big):
    """Points inside, on a proper face of, outside and off the hull."""
    k, d = len(points), len(points[0])
    out = [combination(rng, points, [1] * k)[0]]
    if k > 1:
        face = [1] * k
        face[rng.randrange(k)] = 0
        out.append(combination(rng, points, face)[0])
        outside = [1] * k
        outside[rng.randrange(k)] = -1
        out.append(combination(rng, points, outside)[0])
    out += [tuple(rational(rng, big) for _ in range(d)) for _ in range(2)]
    out += list(points)
    return out


def random_points(rng, d, k, big):
    while True:
        pts = [tuple(rational(rng, big) for _ in range(d)) for _ in range(k)]
        if len(set(pts)) == k and (k == 1 or linalg.affinely_independent(pts)):
            return pts


@pytest.mark.parametrize("big", [False, True])
def test_frame_matches_the_fraction_solve(big):
    rng = random.Random(2024 + big)
    off = 0
    for d in range(4):
        for k in range(1, d + 2):
            for _ in range(25):
                pts = random_points(rng, d, k, big)
                frame = frame_on(pts)
                assert frame.rows is not None
                for x in queries(rng, pts, big):
                    got = frame.coords(x)
                    assert got == solve_reference(pts, x), (pts, x)
                    assert linalg.barycentric_coords(pts, x) == got
                    if got is None:
                        off += 1
                        continue
                    assert sum(got) == 1
                    assert linalg.vcomb(got, pts) == tuple(x)
    assert off


def test_a_dependent_frame_answers_none():
    """Affinely dependent points have no barycentric coordinates, so their
    frame answers None to every query, on the hull or off it."""
    rng = random.Random(77)
    for d in range(1, 4):
        for _ in range(30):
            base = random_points(rng, d, rng.randint(1, d + 1), False)
            extra, _ = combination(rng, base, [1] * len(base))
            # a repeated point, a point on the hull, or too many points
            pts = base + [rng.choice([base[0], extra])]
            while len(pts) <= d + 1 and rng.random() < 0.5:
                pts.append(tuple(rational(rng, False) for _ in range(d)))
            assert not linalg.affinely_independent(pts)
            frame = frame_on(pts)
            assert frame.rows is None
            for x in queries(rng, pts, False):
                y = linalg.integer_point(x)
                assert frame.weights(y) is None, (pts, x)
                assert frame.offsets(y) is None, (pts, x)
                assert frame.coords(x) is None, (pts, x)


def test_a_flat_triangle_answers_none_to_every_question():
    """Three points on a line: `weights`, `offsets` and `coords` all
    answer None, on the line and off it."""
    frame = frame_on([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])
    for x in ((F(1, 2), F(0)), (F(1), F(1))):
        y = linalg.integer_point(x)
        assert frame.weights(y) is None
        assert frame.offsets(y) is None
        assert frame.coords(x) is None


@pytest.mark.parametrize("big", [False, True])
def test_weights_are_the_coords_over_one_positive_denominator(big):
    rng = random.Random(1919 + big)
    dependent = off = 0
    for d in range(1, 4):
        for _ in range(40):
            pts = random_points(rng, d, rng.randint(1, d + 1), big)
            if rng.random() < 0.4:
                # a repeated point or a point on the hull
                extra, _ = combination(rng, pts, [1] * len(pts))
                pts.append(rng.choice([pts[0], extra]))
            frame = frame_on(pts)
            dependent += frame.rows is None
            for x in queries(rng, pts, big):
                hit = frame.weights(linalg.integer_point(x))
                coords = frame.coords(x)
                assert (hit is None) == (coords is None), (pts, x)
                if frame.rows is None:
                    assert hit is None, (pts, x)
                    continue
                assert coords == solve_reference(pts, x), (pts, x)
                if hit is None:
                    off += 1
                    continue
                w, q = hit
                assert type(q) is int and q > 0
                assert all(type(a) is int for a in w)
                assert [F(a, q) for a in w] == coords, (pts, x)
    assert dependent and off


def test_codimension_one_offsets_vanish_on_the_hull():
    frame = frame_on([(F(0), F(0), F(1)), (F(1), F(0), F(1)),
                      (F(0), F(1), F(1))])
    # (5/3, -7/2, 1) as the integer point (10, -21, 6, 6)
    assert frame.offsets((10, -21, 6, 6)) == [0]
    above, below = (frame.offsets(linalg.integer_point((F(1, 7), F(0), z)))[0]
                    for z in (F(2), F(1, 3)))
    assert above * below < 0


def test_a_point_of_another_arity_is_incompatible(disk, rot):
    """A longer or shorter point is refused, never zipped against the
    frame's rows: zipped, (1/4, 1/4, 7) reads as a point of the unit
    triangle with coordinates [13/2, 1/4, 1/4]."""
    unit = frame_on([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    flat = frame_on([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])
    assert flat.rows is None
    for x in ((F(1, 4), F(1, 4), F(7)), (F(1, 4),)):
        msg = f"point has {len(x)} coordinates, but the frame's points have 2"
        y = linalg.integer_point(x)
        for frame in (unit, flat):
            for query, point in ((frame.coords, x), (frame.weights, y),
                                 (frame.offsets, y)):
                with pytest.raises(Incompatible, match=msg):
                    query(point)
        with pytest.raises(Incompatible, match=msg):
            disk.star([x])
        with pytest.raises(Incompatible, match=msg):
            disk.locate(x)
    # an image of 3 coordinates in the 2-dimensional triangle boundary
    images = dict(rot.vertex_image)
    images["a"] = images["a"] + (F(1),)
    with pytest.raises(Incompatible, match="point has 3 coordinates"):
        pm.PLMap(rot.domain, rot.codomain, rot.dom_subdivision, images,
                 rot.target_carrier)


def leibniz_det(m):
    total = F(0)
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i, j in combinations(range(len(m)), 2))
        term = F(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(m):
    """The largest k with a nonzero k x k minor."""
    nr, nc = len(m), len(m[0])
    for k in range(min(nr, nc), 0, -1):
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                if leibniz_det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def random_matrix(rng, nr, nc, big):
    """Sparse rows, and often a row that combines two others or a zero
    column, so that pivots go missing and columns are skipped."""
    m = [[rational(rng, big) if rng.random() < 0.7 else F(0)
          for _ in range(nc)] for _ in range(nr)]
    if nr >= 3 and rng.random() < 0.4:
        i, j, k = rng.sample(range(nr), 3)
        a, b = rational(rng, big), rational(rng, big)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if rng.random() < 0.2:
        col = rng.randrange(nc)
        for row in m:
            row[col] = F(0)
    return m


@pytest.mark.parametrize("big", [False, True])
def test_integer_combination_is_the_fraction_combination(big):
    """The integer point `verify_certificate` evaluates from a point's
    weights and the integer points of the images is the integer point of
    the Fraction combination of the images by its coordinates, for points
    inside, on a face of and outside a simplex, and images of any
    dimension, repeated ones included."""
    rng = random.Random(4141 + big)
    for d in range(4):
        for k in range(1, d + 2):
            for _ in range(10):
                pts = random_points(rng, d, k, big)
                frame = frame_on(pts)
                e = rng.randint(1, 3)
                images = [tuple(rational(rng, big) for _ in range(e))
                          for _ in range(k)]
                images[-1] = rng.choice(images)
                for x in queries(rng, pts, big):
                    hit = frame.weights(linalg.integer_point(x))
                    if hit is None:
                        continue
                    want = linalg.integer_point(
                        linalg.vcomb(frame.coords(x), images))
                    assert linalg.integer_combination(hit[0], [
                        linalg.integer_point(y) for y in images]) == want


@pytest.mark.parametrize("big", [False, True])
def test_rank_and_volume_match_minors(big):
    rng = random.Random(606 + big)
    deficient = zero = 0
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), big)
        rank = minor_rank(m)
        assert linalg.mat_rank(m) == rank, m
        deficient += rank < min(len(m), len(m[0]))
        n = rng.randint(1, 4)
        sq = random_matrix(rng, n, n, big)
        det = leibniz_det(sq)
        rows = [(y[:-1], y[-1]) for y in map(linalg.integer_point, sq)]
        assert F(*sd.relative_volume(rows)) == det, sq
        zero += det == 0
    assert deficient and zero


def test_last_pivot_is_the_determinant():
    """A swap negates the row it moves down, so on a square matrix that
    pivots in every column the last pivot is det(m), sign included.  The
    first column of every matrix needs a swap."""
    rng = random.Random(5150)
    singular = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m[0][0] = 0
        m[rng.randrange(1, n)][0] = rng.choice([-3, -2, -1, 1, 2, 3])
        det = leibniz_det(m)
        pivots, last = linalg.eliminate([list(row) for row in m], n)
        if det:
            assert (pivots, last) == (list(range(n)), det), m
        else:
            singular += 1
            assert len(pivots) < n, m
    assert 0 < singular < 300


def test_eliminate_skips_a_zero_column():
    m = [[0, 2, 4, 1], [0, 1, 2, 3], [0, 3, 7, 0]]
    pivots, last = linalg.eliminate(m, 4)
    assert pivots == [1, 2, 3]
    assert abs(last) == 5     # the minor on columns 1-3
    assert linalg.eliminate([[1, 2], [2, 4]], 2) == ([0], 1)


def test_solve_linear_matches_the_fraction_solve():
    """Systems with dependent rows, zero columns and free variables, half
    of them consistent by construction."""
    rng = random.Random(4242)
    verdicts = Counter()
    for big in (False, True):
        for _ in range(300):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), big)
            if rng.random() < 0.5:
                x = [rational(rng, big) for _ in m[0]]
                rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
            else:
                rhs = [rational(rng, big) for _ in m]
            sol = fraction_solve(m, rhs)
            assert linalg.solve_linear(m, rhs) == sol, (m, rhs)
            verdicts[sol is None] += 1
    assert verdicts[True] and verdicts[False], verdicts


def fraction_tableau_meet(pts_a, pts_b):
    """The Fraction phase-1 tableau `linalg.convex_positions_intersect`
    ran before its tableau went to integers: the same problem on the
    columns (p, 1), the same artificial basis and Bland's rule, with every
    pivot row divided by its pivot."""
    cols = ([(*p, F(1)) for p in pts_a]
            + [(*(-x for x in q), F(-1)) for q in pts_b])
    A = [list(row) for row in zip(*cols)]
    m, n = len(A), len(A[0])
    T = [row + [-sum(row)] for row in A]
    T = [row if row[n] >= 0 else [-x for x in row] for row in T]
    T.append([sum(col) for col in zip(*T)])
    basis = list(range(n, n + m))
    while T[m][n]:
        enter = next((j for j in range(n) if T[m][j] > 0), None)
        if enter is None:
            return False
        r = min((i for i in range(m) if T[i][enter] > 0),
                key=lambda i: (T[i][n] / T[i][enter], basis[i]))
        pv = T[r][enter]
        T[r] = top = [x / pv for x in T[r]]
        for i, row in enumerate(T):
            f = row[enter]
            if i != r and f:
                T[i] = [x - f * y for x, y in zip(row, top)]
        basis[r] = enter
    return True


def grid_point(rng, d):
    """A point on a coarse grid with mixed denominators, so columns scale
    by different factors and shared planes are common."""
    return tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                 for _ in range(d))


def lp_pair(rng, d):
    """Two point lists of R^d.  B mixes fresh points, vertices of A and
    points of closed faces of A (on its hull), so shared vertices,
    touching faces and flat unions are common."""
    pa = list({grid_point(rng, d) for _ in range(rng.randint(1, d + 1))})
    pb = []
    for _ in range(rng.randint(1, d + 1)):
        kind = rng.randrange(3)
        if kind == 0:
            pb.append(rng.choice(pa))
        elif kind == 1:
            face = rng.sample(pa, rng.randint(1, len(pa)))
            pb.append(combination(rng, face, [1] * len(face))[0])
        else:
            pb.append(grid_point(rng, d))
    return pa, pb


def test_the_integer_lp_reads_what_the_fraction_tableau_read():
    rng = random.Random(1968)
    verdicts = Counter()
    for d in range(1, 5):
        for _ in range(500):
            pa, pb = lp_pair(rng, d)
            for x, y in ((pa, pb), (pb, pa)):
                meet = fraction_tableau_meet(x, y)
                assert linalg.convex_positions_intersect(x, y) is meet, (x, y)
                verdicts[d, meet] += 1
    assert sum(verdicts.values()) == 4000
    assert all(verdicts[d, meet] >= 50 for d in range(1, 5)
               for meet in (True, False)), verdicts


def closed_meets_by_faces(pts_a, pts_b):
    """Closed a meets open b by its definition: closed a is the union of
    the open hulls of the nonempty vertex subsets of a, so some subset f
    has open f meeting open b."""
    return any(linalg.convex_positions_intersect(list(f), pts_b)
               for k in range(1, len(pts_a) + 1)
               for f in combinations(pts_a, k))


def touching_pair(rng, d):
    """Two integer point lists of R^d: a on even coordinates, b mixing
    vertices of a, midpoints of two vertices of a and fresh points, so
    that hulls touch often."""
    pa = list({tuple(F(2 * rng.randint(-1, 1)) for _ in range(d))
               for _ in range(rng.randint(1, d + 1))})
    pb = []
    for _ in range(rng.randint(1, d + 1)):
        kind = rng.randrange(3)
        if kind == 0:
            pb.append(rng.choice(pa))
        elif kind == 1:
            p, q = rng.sample(pa, 2) if len(pa) > 1 else pa * 2
            pb.append(tuple((x + y) / 2 for x, y in zip(p, q)))
        else:
            pb.append(tuple(F(rng.randint(-2, 2)) for _ in range(d)))
    return pa, list(dict.fromkeys(pb))


def test_the_closed_side_lp_matches_its_definition():
    """`convex_positions_intersect(a, b, closed_a=True)` against the
    union of its open faces, on seeded integer pairs of R^2 and R^3 in
    both orders; touching pairs, where closed a meets open b and open a
    does not, are common."""
    rng = random.Random(1985)
    seen = Counter()
    for d in (2, 3):
        for _ in range(400):
            pa, pb = touching_pair(rng, d)
            for x, y in ((pa, pb), (pb, pa)):
                meet = closed_meets_by_faces(x, y)
                assert linalg.convex_positions_intersect(
                    x, y, closed_a=True) is meet, (x, y)
                seen[d, meet, linalg.convex_positions_intersect(x, y)] += 1
    assert not seen[2, False, True] and not seen[3, False, True]
    assert all(seen[d, closed, open_] >= 50 for d in (2, 3)
               for closed, open_ in ((True, True), (True, False),
                                     (False, False))), seen


def test_the_closed_side_lp_by_hand():
    """A triangle of R^3 whose vertex lies inside another triangle and
    which is otherwise above it, and a point on an edge and at a vertex:
    the closed side meets where the open side does not."""
    def pts(*ps):
        return [tuple(F(x) for x in p) for p in ps]
    floor = pts((0, 0, 0), (4, 0, 0), (0, 4, 0))
    tent = pts((1, 1, 0), (0, 0, 2), (2, 0, 2))
    assert linalg.convex_positions_intersect(tent, floor, closed_a=True)
    assert not linalg.convex_positions_intersect(tent, floor)
    assert not linalg.convex_positions_intersect(floor, tent, closed_a=True)
    triangle = pts((0, 0), (2, 0), (0, 2))
    edge, mid, corner = triangle[:2], pts((1, 0)), pts((0, 0))
    for a, b in ((triangle, mid), (triangle, corner), (edge, corner)):
        assert linalg.convex_positions_intersect(a, b, closed_a=True)
        assert not linalg.convex_positions_intersect(a, b)
        assert not linalg.convex_positions_intersect(b, a, closed_a=True)
    assert linalg.convex_positions_intersect(edge, mid)
    assert linalg.convex_positions_intersect(mid, edge, closed_a=True)


class Opaque(F):
    """A Fraction whose arithmetic raises: a point of these reaches an
    integer LP only through `as_integer_ratio`."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic on an LP input")

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __neg__ = _refuse


@pytest.fixture
def frame_builds(monkeypatch):
    """Count the frames built inside each `Complex.frame` call, by
    (complex, simplex), and make any Fraction solve raise."""
    built = Counter()
    made = [0]
    keep = []                     # keeps ids unique while counting

    class Counting(linalg.AffineFrame):
        __slots__ = ()

        def __init__(self, points):
            made[0] += 1
            super().__init__(points)

    original = Complex.frame

    def frame(self, s):
        before = made[0]
        result = original(self, s)
        if made[0] != before:
            built[(id(self), s)] += made[0] - before
            keep.append(self)
        return result

    def solve(*args):
        raise AssertionError("Fraction solve on a frame path")

    monkeypatch.setattr(linalg, "AffineFrame", Counting)
    monkeypatch.setattr(Complex, "frame", frame)
    monkeypatch.setattr(linalg, "solve_linear", solve)
    return built


def test_each_simplex_is_eliminated_once(frame_builds):
    corpus = {name: scx.load_corpus(name) for name in
              ("tri3", "disk", "cube1")}
    tri3 = corpus["tri3"][0]
    disk, subs = corpus["disk"]
    boundary = subs["boundary"]
    cube1 = corpus["cube1"][0]

    g, cert = pm.simplicial_approximation(make_rot(tri3))
    assert pm.verify_certificate(cert) == (True, [])
    f2 = pm.subdivide_map(make_perturbed_disk(disk))
    assert pm.verify_certificate(pm.straight_line_homotopy(f2, f2))[0]
    for K, fixed in ((disk, {("a",)}), (cube1, {("u0",)})):
        r = cy.cylinder_retraction(K, frozenset(fixed))
        assert r.map.fine.simplices
    for rounds in (1, 2):
        phi0 = sd.identity_homeo_on(
            sd.iterated_subdivision(boundary.as_complex(), rounds))
        assert sd.verify_normal(sd.extend_normal(disk, boundary, phi0)).normal

    assert frame_builds
    assert max(frame_builds.values()) == 1


def test_no_fraction_solve_in_validate_or_the_lp(frame_builds):
    """`validate` with disjointness on every corpus complex, and two
    crossing triangles that reach the LP, solve nothing over Fractions;
    the LP reads its points through integers only, meeting or not."""
    for name in scx.CORPUS_NAMES:
        K, _ = scx.load_corpus(name)
        assert K.simplices
    with pytest.raises(OverlappingSimplices,
                       match="^open simplices a-b-c and d-e-f intersect$"):
        validate(2, {"a": (0, 0), "b": (4, 0), "c": (2, 3),
                     "d": (0, 2), "e": (4, 2), "f": (2, -1)},
                 [["a", "b", "c"], ["d", "e", "f"]])

    def points(*pts):
        return [tuple(Opaque(x) for x in p) for p in pts]
    diagonal, antidiagonal = points((0, 0), (2, 2)), points((0, 2), (2, 0))
    floor, roof = points((0, 0), (F(1, 2), 0)), points((0, 1), (1, F(1, 3)))
    assert linalg.convex_positions_intersect(diagonal, antidiagonal)
    assert not linalg.convex_positions_intersect(floor, roof)
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        fraction_tableau_meet(diagonal, antidiagonal)


def test_a_fresh_complex_has_no_frames(disk):
    K = Complex(disk.ambient_dim, disk.vertices, disk.simplices)
    assert K._frames == {}
    s = max(K.simplices, key=len)
    assert K.frame(s) is K.frame(s)
    assert K.restrict([s])._frames == {}
