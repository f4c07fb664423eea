"""The one exact elimination kernel: `linalg.eliminate` behind rank and
volume against minors, `linalg.AffineFrame` against the Fraction solve it
replaces, and the guard that every path eliminates each simplex of a
complex once."""

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
from plhtpy.complexes import Complex
from plhtpy.errors import Incompatible

from conftest import make_perturbed_disk, make_rot


def solve_reference(points, x):
    """The Fraction Gauss-Jordan path `barycentric_coords` used to take."""
    k = len(points)
    rows = [[points[j][i] for j in range(k)] for i in range(len(x))]
    rows.append([F(1)] * k)
    return linalg.solve_linear(rows, list(x) + [F(1)])


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
                frame = linalg.AffineFrame(pts)
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


def test_frame_keeps_the_solve_on_dependent_points():
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
            frame = linalg.AffineFrame(pts)
            assert frame.rows is None
            for x in queries(rng, pts, False):
                assert frame.coords(x) == solve_reference(pts, x), (pts, x)


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
            frame = linalg.AffineFrame(pts)
            dependent += frame.rows is None
            for x in queries(rng, pts, big):
                hit, coords = frame.weights(x), frame.coords(x)
                assert (hit is None) == (coords is None), (pts, x)
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
    frame = linalg.AffineFrame([(F(0), F(0), F(1)), (F(1), F(0), F(1)),
                                (F(0), F(1), F(1))])
    assert frame.offsets((F(5, 3), F(-7, 2), F(1))) == [0]
    above, below = (frame.offsets((F(1, 7), F(0), z))[0]
                    for z in (F(2), F(1, 3)))
    assert above * below < 0


def test_a_point_of_another_arity_is_incompatible(disk, rot):
    """A longer or shorter point is refused, never zipped against the
    frame's rows: zipped, (1/4, 1/4, 7) reads as a point of the unit
    triangle with coordinates [13/2, 1/4, 1/4]."""
    unit = linalg.AffineFrame([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    flat = linalg.AffineFrame([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])
    assert flat.rows is None
    for x in ((F(1, 4), F(1, 4), F(7)), (F(1, 4),)):
        msg = f"point has {len(x)} coordinates, but the frame's points have 2"
        for query in (unit.coords, unit.offsets, flat.coords):
            with pytest.raises(Incompatible, match=msg):
                query(x)
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
        rows = [linalg.integer_row(r) for r in sq]
        assert sd.relative_volume(rows) == abs(det), sq
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


def test_a_fresh_complex_has_no_frames(disk):
    K = Complex(disk.ambient_dim, disk.vertices, disk.simplices)
    assert K._frames == {}
    s = max(K.simplices, key=len)
    assert K.frame(s) is K.frame(s)
    assert K.restrict([s])._frames == {}
