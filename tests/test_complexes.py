"""Geometric complex kernel: validation, closure, stars, cores, location."""

import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, islice

import pytest

from plhtpy import complexes, linalg, scx
from plhtpy import cylinders as cy
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.complexes import (Complex, check_pairwise_disjoint,
                              faces_with_self, proper_faces, simplex, sname,
                              validate)
from plhtpy.errors import (AffinelyDependent, DuplicateSimplex, NotSubcomplex,
                           OverlappingSimplices, PointOutsidePolyhedron)
from conftest import frame_on, random_closure
from test_kernel import combination, grid_point
from test_subdivision import closed_tetra

DISK_VERTS = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
DISK_SIMS = [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "c"],
             ["a", "b", "c"]]


def test_is_closed_reads_facets_only(corpus):
    # the all-proper-faces definition is the reference, on seeded subsets
    # of the r=1 corpus: as picked, closed, and closed less one simplex
    rng = random.Random(24)
    for name, (K, _) in sorted(corpus.items()):
        fine = sd.iterated_subdivision(K, 1).fine
        simplices = sorted(fine.simplices)
        for _ in range(10):
            picked = {s for s in simplices if rng.random() < 0.2}
            closed = {f for s in picked for f in faces_with_self(s)}
            dented = closed - {rng.choice(sorted(closed))} if closed else closed
            for members in (picked, closed, dented):
                expected = all(f in members for s in members
                               for f in proper_faces(s))
                assert fine.subcomplex(members).is_closed() == expected
                assert fine.restrict(members).is_closed() == expected


def kept_table_inputs(corpus):
    """The corpus at r=0..1, seeded subsets of it (as picked, and closed)
    on its whole vertex table, a vertex table with an unused vertex, and
    the empty complex."""
    rng = random.Random(27)
    for name, (K, _) in sorted(corpus.items()):
        for r in (0, 1):
            fine = sd.iterated_subdivision(K, r).fine
            yield fine
            simplices = sorted(fine.simplices)
            for _ in range(3):
                picked = {s for s in simplices if rng.random() < 0.3}
                closed = {f for s in picked for f in faces_with_self(s)}
                for members in (picked, closed):
                    yield Complex(fine.ambient_dim, fine.vertices, members)
    yield Complex(2, dict(DISK_VERTS, z=(5, 5)), map(tuple, DISK_SIMS))
    yield Complex(2, {}, [])


def test_kept_tables_match_their_definitions(corpus):
    for K in kept_table_inputs(corpus):
        S = K.simplices
        order = sorted(S, key=lambda s: (len(s), s))
        assert K.canonical_order() == order
        assert K.simplex_names() == [sname(s) for s in order]
        assert K.canonical_order() is K.canonical_order()
        assert K.simplex_names() is K.simplex_names()
        for d in range(-1, K.dim() + 2):
            assert K.by_dim(d) == sorted(s for s in S if len(s) == d + 1)
        assert K.vertex_ids() == sorted(s[0] for s in S if len(s) == 1)
        assert K.used_vertices() == {v for s in S for v in s}
        assert K.is_closed() == all(f in S for s in S
                                    for f in proper_faces(s))


def test_validate_disk():
    K = validate(2, DISK_VERTS, DISK_SIMS)
    assert len(K.simplices) == 7
    assert K.dim() == 2
    assert K.is_closed()


def test_validate_duplicate_simplex():
    with pytest.raises(DuplicateSimplex):
        validate(2, DISK_VERTS, DISK_SIMS + [["b", "a"]])


def test_validate_affinely_dependent():
    verts = {"a": (0, 0), "b": (1, 1), "c": (2, 2)}
    with pytest.raises(AffinelyDependent):
        validate(2, verts, [["a"], ["b"], ["c"], ["a", "b", "c"]])


def maximal_by_definition(K, least):
    """The simplices of K with at least `least` vertices that lie in no
    other simplex of K, by the definition."""
    return {s for s in K.simplices if len(s) >= least
            and not any(set(s) < set(t) for t in K.simplices)}


def test_validate_reads_independence_from_the_kept_frames(monkeypatch,
                                                         corpus):
    def no_rank_test(*args):
        raise AssertionError("affinely_independent called")
    monkeypatch.setattr(linalg, "affinely_independent", no_rank_test)
    # a face of an independent simplex is independent, so only maximal
    # simplices of three or more vertices build a frame; an edge compares
    # its two points
    for K, _ in corpus.values():
        text = scx.emit_scx(K)
        V = scx.load_complex(text, check_disjoint=False)[0]
        assert set(V._frames) == maximal_by_definition(V, 3)
    flat = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
    line = {"a": (0,), "b": (1,), "c": (2,)}
    for d, verts in ((2, flat), (1, line)):
        with pytest.raises(AffinelyDependent,
                           match="vertices of a-b-c are affinely dependent"):
            validate(d, verts, [["a"], ["b"], ["c"], ["a", "b", "c"]])


def independence_reference(ambient_dim, verts, sims):
    """`validate`'s independence check as a frame per simplex in input
    order, on a fresh Complex: the message naming the first dependent
    simplex, or None."""
    K = Complex(ambient_dim, {v: linalg.vec(p) for v, p in verts.items()},
                map(simplex, sims))
    for raw in sims:
        s = simplex(raw)
        if K.frame(s).rows is None:
            return f"vertices of {sname(s)} are affinely dependent"
    return None


def validate_reference(ambient_dim, verts, sims):
    """`validate`'s verdict before independence was read from the maximal
    simplices: the independence loop, then the disjointness check with
    every frame built.  The error's class and message, or None."""
    message = independence_reference(ambient_dim, verts, sims)
    if message is not None:
        return "AffinelyDependent", message
    K = build_frames(validate(ambient_dim, verts, sims, check_disjoint=False))
    try:
        check_pairwise_disjoint(K)
    except OverlappingSimplices as exc:
        return "OverlappingSimplices", str(exc)
    return None


def validate_verdict(ambient_dim, verts, sims):
    try:
        validate(ambient_dim, verts, sims)
    except (AffinelyDependent, OverlappingSimplices) as exc:
        return type(exc).__name__, str(exc)
    return None


PLACEMENTS = ("face of a listed simplex", "maximal",
              "face of a simplex left out", "unlisted face")


def dependent_case(rng, d, place, closed):
    """(vertices, simplices) in R^d with one affinely dependent vertex set
    D: a point q on the hull of 2..d+1 independent grid points, D those
    points and q.  S is D and one more grid point r, so S is dependent too.
    Where D sits: listed under the listed S; listed with no listed coface;
    listed with the other facets of S but not S; or left out under a
    listed S.  Random faces of the independent simplex on all 2..d+1
    grid points fill the rest, and the list is shuffled; closed lists
    every face of what it lists, otherwise a random share of the faces."""
    base = random_simplex(rng, d, rng.randint(2, d + 1))
    verts = {f"p{i}": p for i, p in enumerate(base)}
    whole = simplex(verts)
    on = rng.sample(sorted(verts), rng.randint(2, len(base)))
    while True:
        wts = [F(rng.randint(-2, 4), 2) for _ in on[1:]]
        wts.insert(0, 1 - sum(wts))
        q = linalg.vcomb(wts, [verts[v] for v in on])
        if q not in verts.values():
            break
    verts["q"] = q
    while True:
        r = tuple(F(rng.randint(0, 4), 2) for _ in range(d))
        if r not in verts.values():
            break
    verts["r"] = r
    D = simplex(on + ["q"])
    S = simplex(D + ("r",))
    listed = {"face of a listed simplex": [D, S], "maximal": [D],
              "face of a simplex left out":
                  [D] + [f for f in combinations(S, len(S) - 1)
                         if "r" in f],
              "unlisted face": [S]}[place]
    filler = [f for f in faces_with_self(whole) if rng.random() < 0.4]
    sims = set(listed) | set(filler)
    faces = {f for s in sims for f in faces_with_self(s)} - sims
    if place == "unlisted face":
        faces.discard(D)
    sims |= faces if closed else {f for f in sorted(faces)
                                  if rng.random() < 0.5}
    sims = sorted(sims)
    rng.shuffle(sims)
    return verts, [list(s) for s in sims]


def test_validate_matches_the_per_simplex_reference():
    """Seeded complexes in R^1..R^4, closed and not, with one dependent
    vertex set in each of four places: verdict and message of `validate`
    equal those of the frame per simplex, and so do those of the same
    lists without q: most pass independence and reach the disjointness
    check, some overlap, and some are dependent through r."""
    rng = random.Random(35)
    seen = Counter()
    for _ in range(240):
        d = rng.randint(1, 4)
        place = rng.choice(PLACEMENTS)
        closed = rng.random() < 0.5 and place != "unlisted face"
        verts, sims = dependent_case(rng, d, place, closed)
        expected = validate_reference(d, verts, sims)
        assert expected[0] == "AffinelyDependent", (verts, sims)
        assert validate_verdict(d, verts, sims) == expected, (verts, sims)
        seen[place, closed] += 1
        rest = [s for s in sims if "q" not in s]
        expected = validate_reference(d, verts, rest)
        assert validate_verdict(d, verts, rest) == expected, (verts, rest)
        seen[expected and expected[0]] += 1
    assert all(seen[p, c] >= 15 for p in PLACEMENTS for c in (False, True)
               if (p, c) != ("unlisted face", True)), seen
    assert seen[None] and seen["OverlappingSimplices"], seen


def test_validate_names_the_first_dependent_simplex_listed():
    verts = {"a": (0, 0, 0), "b": (1, 0, 0), "c": (2, 0, 0),
             "d": (0, 1, 0)}
    for sims, name in (([["a", "b", "c"], ["a", "b", "c", "d"]], "a-b-c"),
                       ([["a", "b", "c", "d"], ["a", "b", "c"]],
                        "a-b-c-d")):
        message = f"vertices of {name} are affinely dependent"
        assert independence_reference(3, verts, sims) == message
        with pytest.raises(AffinelyDependent, match=f"^{message}$"):
            validate(3, verts, sims)


def test_identity_witness_of_a_dependent_triangle_gets_the_full_check(
        monkeypatch):
    """The identity fast path of `verify_subdivision` asks
    `Complex.is_independent`: a flat triangle, or an edge on one point,
    is no subdivision of itself, and the partition pass says why."""
    calls = count_calls(monkeypatch, sd, "partition_violations")
    sims = list(faces_with_self(("a", "b", "c")))
    flat = Complex(2, {"a": (0, 0), "b": (1, 0), "c": (2, 0)}, sims)
    ok, violations = sd.verify_subdivision(sd.identity_witness(flat))
    assert not ok and len(calls) == 1
    assert (("a", "b", "c"), ("a", "b", "c"), "not inside carrier") \
        in violations
    pinched = Complex(2, {"a": (0, 0), "b": (0, 0)}, [("a",), ("b",),
                                                       ("a", "b")])
    assert not sd.verify_subdivision(sd.identity_witness(pinched))[0]
    assert len(calls) == 2
    disk = Complex(2, DISK_VERTS, sims)
    assert sd.verify_subdivision(sd.identity_witness(disk)) == (True, [])
    assert len(calls) == 2


def test_validate_overlapping_triangles():
    verts = {"a": (0, 0), "b": (2, 0), "c": (0, 2),
             "d": (1, 1), "e": (3, 0), "f": (1, -2)}
    sims = [[v] for v in verts] + [["a", "b", "c"], ["d", "e", "f"]]
    with pytest.raises(OverlappingSimplices):
        validate(2, verts, sims)


def random_simplex(rng, dim, k):
    """k affinely independent points with coordinates in {0, 1/2, ..., 2},
    a grid coarse enough that shared planes and touching faces are common."""
    while True:
        pts = [tuple(F(rng.randint(0, 4), 2) for _ in range(dim))
               for _ in range(k)]
        if len(set(pts)) == k and linalg.affinely_independent(pts):
            return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hyperplane_separation_is_sound(dim):
    rng = random.Random(1000 + dim)
    separated = undecided = 0
    for ka in range(1, dim + 2):
        for kb in range(1, dim + 2):
            for _ in range(15):
                pa = random_simplex(rng, dim, ka)
                pb = random_simplex(rng, dim, kb)
                if linalg.hyperplane_separated(frame_on(pa), frame_on(pb)):
                    separated += 1
                    assert not linalg.convex_positions_intersect(pa, pb), \
                        (pa, pb)
                else:
                    undecided += 1
    assert separated and undecided


def embedding(rng, m, d):
    """x -> M x + t: an integer affine map of full column rank, R^m -> R^d."""
    while True:
        M = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(d)]
        if linalg.mat_rank([[F(x) for x in row] for row in M]) == m:
            return M, [rng.randint(-2, 2) for _ in range(d)]


def embedded_pair(rng, m, d):
    """Two lattice simplices of R^m, often sharing vertices, mapped into
    R^d: their union spans at most an m-flat of R^d, so only tests
    inside the union's hull can separate them."""
    M, t = embedding(rng, m, d)
    ka, kb = rng.randint(1, m + 1), rng.randint(1, m + 1)
    qa = random_simplex(rng, m, ka)
    shared = rng.sample(qa, rng.randint(0, min(ka, kb) - 1))
    while True:
        qb = shared + random_simplex(rng, m, kb - len(shared))
        if len(set(qb)) == kb and linalg.affinely_independent(qb):
            break

    def embed(q):
        return tuple(sum(r * x for r, x in zip(row, q)) + c
                     for row, c in zip(M, t))
    return [embed(q) for q in qa], [embed(q) for q in qb]


def test_hull_relative_separation_is_sound():
    rng = random.Random(3000)
    separated = 0
    branches = Counter()
    for _ in range(3000):
        d = rng.randint(2, 4)
        pa, pb = embedded_pair(rng, rng.randint(1, d - 1), d)
        fa, fb = frame_on(pa), frame_on(pb)
        if not linalg.hyperplane_separated(fa, fb):
            continue
        separated += 1
        assert not linalg.convex_positions_intersect(pa, pb), (pa, pb)
        # which test separated: a facet inside hull(f) when the other
        # simplex lies on it, else a hyperplane through hull(f), with the
        # nonzero offsets on one ray or only in one closed orthant, else
        # independent offsets of the added vertices, whose union is then
        # affinely independent.  Every f here has codimension >= 1 in R^d,
        # and a ray is counted at codimension >= 2: facet and
        # codimension-1 tests in R^d miss all four
        for f, g in ((fa, fb), (fb, fa)):
            if linalg._separates(f, g.points):
                offsets = [f.offsets(q) for q in g.points]
                if not any(map(any, offsets)):
                    branches["facet"] += 1
                elif any(min(col) < 0 < max(col) for col in zip(*offsets)):
                    assert linalg.affinely_independent(
                        list(set(pa) | set(pb))), (pa, pb)
                    branches["independent"] += 1
                elif linalg.mat_rank([[F(x) for x in o]
                                      for o in offsets]) > 1:
                    branches["orthant"] += 1
                elif len(f.null) >= 2:
                    branches["ray"] += 1
    assert separated >= 2000
    assert all(branches[b] for b in ("facet", "ray", "orthant",
                                     "independent")), branches


def weights(rng, k):
    """k positive rationals summing to 1."""
    raw = [rng.randint(1, 4) for _ in range(k)]
    return [F(x, sum(raw)) for x in raw]


def meeting_pair(rng, dim, ka, kb):
    """Point lists whose open hulls share a strictly interior point z:
    z has positive weights in A, and the last vertex of B is solved for
    so that it has positive weights in B too."""
    pa = random_simplex(rng, dim, ka)
    z = linalg.vcomb(weights(rng, ka), pa)
    while True:
        head = random_simplex(rng, dim, kb - 1) if kb > 1 else []
        w = weights(rng, kb)
        rest = linalg.vsub(z, linalg.vcomb(w[:-1], head)) if head else z
        pb = head + [tuple(x / w[-1] for x in rest)]
        if linalg.affinely_independent(pb):
            return pa, pb


def separated_pair(rng, dim, ka, kb):
    """Point lists split by a hyperplane h = top: A on the closed side
    h <= top, touching it, and B on h >= top with a vertex above it, so
    the open hull of B lies in h > top and misses closed A."""
    while True:
        c = [rng.randint(-2, 2) for _ in range(dim)]
        if any(c):
            break

    def h(p):
        return sum(x * y for x, y in zip(c, p))

    pa = random_simplex(rng, dim, ka)
    top = max(h(p) for p in pa)
    pb = random_simplex(rng, dim, kb)
    # translate B along c until its lowest vertex sits on top, or above it
    shift = (top - min(h(q) for q in pb)) / sum(x * x for x in c)
    shift += F(rng.choice([0, 0, 1]), 2)
    if all(h(q) + shift * sum(x * x for x in c) == top for q in pb):
        shift += 1
    pb = [tuple(x + shift * y for x, y in zip(q, c)) for q in pb]
    return pa, pb


def face_pair(rng, dim, ka, kb):
    """Two distinct faces of one simplex, or None when none has these
    sizes: open faces of a simplex are disjoint."""
    if ka == kb == dim + 1:
        return None
    pts = random_simplex(rng, dim, dim + 1)
    fa = rng.sample(range(dim + 1), ka)
    while True:
        fb = rng.sample(range(dim + 1), kb)
        if set(fb) != set(fa):
            return [pts[i] for i in fa], [pts[i] for i in fb]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_open_hull_intersection_matches_ground_truth(dim):
    # answers known by construction, never from the LP itself
    rng = random.Random(2000 + dim)
    answers = {True: 0, False: 0}
    for ka in range(1, dim + 2):
        for kb in range(1, dim + 2):
            for _ in range(6):
                cases = [(meeting_pair(rng, dim, ka, kb), True),
                         (separated_pair(rng, dim, ka, kb), False)]
                faces = face_pair(rng, dim, ka, kb)
                if faces is not None:
                    cases.append((faces, False))
                for (pa, pb), meet in cases:
                    assert linalg.convex_positions_intersect(pa, pb) is meet, \
                        (pa, pb)
                    assert linalg.convex_positions_intersect(pb, pa) is meet, \
                        (pb, pa)
                    answers[meet] += 1
    assert answers[True] and answers[False]


@pytest.mark.parametrize("name", ["cube2", "disk", "s2"])
def test_validate_names_every_overlap_shape(name):
    # every shape the overlap tamper draws: a triangle on one edge of a
    # triangle of K, its third vertex strictly inside that triangle
    K, _ = scx.load_corpus(name)
    for tri in sorted(s for s in K.simplices if len(s) == 3):
        for wts in [(1, 1, 1), (1, 2, 4), (4, 1, 1)]:
            z = linalg.vcomb([F(x, sum(wts)) for x in wts], K.points(tri))
            coords = " ".join(scx.coord_str(q) for q in z)
            for u, v in [(tri[0], tri[1]), (tri[0], tri[2]),
                         (tri[1], tri[2])]:
                text = (scx.emit_scx(K) + f"vertex tamper {coords}\n"
                        f"simplex {u} {v} tamper\n")
                with pytest.raises(OverlappingSimplices) as exc:
                    scx.load_complex(text)
                message = str(exc.value)
                assert sname(tri) in message
                assert sname(simplex((u, v, "tamper"))) in message


def test_validate_rejects_collinear_segments_flat_on_the_sweep_axis():
    # every box has zero width on axis 0, so the sweep must keep boxes
    # whose ends only touch there
    verts = {"a": (1, 0), "b": (1, 2), "c": (1, 1), "e": (1, 3)}
    with pytest.raises(OverlappingSimplices,
                       match="^open simplices a-b and c-e intersect$"):
        validate(2, verts, [["a", "b"], ["c", "e"]])


def test_validate_names_the_first_overlapping_pair_in_sorted_order():
    # the sweep along axis 0 meets f-g and h-i first
    verts = {"a": (10,), "b": (13,), "c": (11,), "e": (14,),
             "f": (0,), "g": (3,), "h": (1,), "i": (4,)}
    with pytest.raises(OverlappingSimplices,
                       match="^open simplices a-b and c-e intersect$"):
        validate(1, verts, [["h", "i"], ["f", "g"], ["c", "e"], ["a", "b"]])


def perturbed_complexes(corpus, rng):
    """Small corpus complexes with one or two vertices moved on a rational
    grid, built without the disjointness check; a move that makes a
    simplex dependent or lands on another vertex is skipped."""
    bases = [sd.iterated_subdivision(corpus[name][0], r).fine
             for name, r in (("cube2", 0), ("wedge2", 1), ("s2", 1),
                             ("torus7", 0), ("disk", 1), ("cube2", 1))]
    bases.append(closed_tetra())
    while True:
        K = rng.choice(bases)
        verts = dict(K.vertices)
        for v in rng.sample(sorted(K.used_vertices()), rng.randint(1, 2)):
            verts[v] = tuple(x + F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                             for x in verts[v])
        try:
            yield validate(K.ambient_dim, verts, K.simplices,
                           check_disjoint=False)
        except (AffinelyDependent, OverlappingSimplices):
            continue


def test_pairwise_disjointness_matches_the_lp_alone(corpus):
    """Accept or reject, and the pair named, are those of the exact LP
    asked on every pair in sorted order, which no screen decides.  A
    failing case prints its SCX."""
    rng = random.Random(28)
    rejects = 0
    for K in islice(perturbed_complexes(corpus, rng), 60):
        meeting = next(((a, b) for a, b in combinations(sorted(K.simplices), 2)
                        if linalg.convex_positions_intersect(K.points(a),
                                                             K.points(b))),
                       None)
        expected = got = None
        if meeting is not None:
            rejects += 1
            expected = "open simplices {} and {} intersect".format(
                *map(sname, meeting))
        try:
            check_pairwise_disjoint(K)
        except OverlappingSimplices as exc:
            got = str(exc)
        assert got == expected, scx.emit_scx(K)
    assert rejects >= 15, rejects


def relabeled(K, rng):
    """K with its vertex ids shuffled among its points, so another simplex
    comes last in sorted order."""
    ids = sorted(K.vertices)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return validate(K.ambient_dim,
                    {new[v]: p for v, p in K.vertices.items()},
                    [[new[v] for v in s] for s in K.simplices],
                    check_disjoint=False)


def test_a_complex_on_one_simplex_visits_no_pair(monkeypatch, corpus):
    """Screen 0: the used vertices of torus7, rp6, s2, tri3 and the disk
    at r=0 are affinely independent, so every simplex is a face of one
    simplex and no pair reaches the hyperplane screen or the LP.  So it
    goes for seeded relabelings, and for the empty complex, which has no
    pair."""
    rng = random.Random(32)
    cases = [Complex(3, {}, [])]
    for name in ("torus7", "rp6", "s2", "tri3", "disk"):
        K = corpus[name][0]
        cases += [K] + [relabeled(K, rng) for _ in range(3)]

    def refuse(*args):
        raise AssertionError("a pair reached a screen")
    monkeypatch.setattr(linalg, "hyperplane_separated", refuse)
    monkeypatch.setattr(linalg, "convex_positions_intersect", refuse)
    for K in cases:
        check_pairwise_disjoint(K)


def lp_alone(K):
    """The reference of `test_pairwise_disjointness_matches_the_lp_alone`:
    the message naming the first pair in sorted order that the exact LP
    finds meeting, or None."""
    for a, b in combinations(sorted(K.simplices), 2):
        if linalg.convex_positions_intersect(K.points(a), K.points(b)):
            return f"open simplices {sname(a)} and {sname(b)} intersect"
    return None


def moved_onto_the_others(corpus, rng):
    """torus7, rp6 or s2 at r=0 with one vertex moved to a seeded affine
    combination of the others, so the used vertices span no simplex,
    built without the disjointness check; a move that makes a simplex
    dependent or lands on another vertex is skipped."""
    while True:
        K = corpus[rng.choice(("torus7", "rp6", "s2"))][0]
        v = rng.choice(sorted(K.vertices))
        others = [p for u, p in sorted(K.vertices.items()) if u != v]
        c = [rng.choice((-1, 0, 0, 1, 1, 2)) for _ in others]
        if not sum(c):
            continue
        verts = dict(K.vertices)
        verts[v] = linalg.vcomb([F(x, sum(c)) for x in c], others)
        try:
            yield validate(K.ambient_dim, verts, K.simplices,
                           check_disjoint=False)
        except (AffinelyDependent, OverlappingSimplices):
            continue


def test_a_dependent_vertex_set_falls_through_to_the_pairs(corpus):
    """When screen 0 does not decide, accept or reject and the pair named
    are those of the LP alone; the seeds give both."""
    rng = random.Random(32)
    rejects = 0
    for K in islice(moved_onto_the_others(corpus, rng), 30):
        expected = lp_alone(K)
        got = None
        try:
            check_pairwise_disjoint(K)
        except OverlappingSimplices as exc:
            got = str(exc)
        assert got == expected, scx.emit_scx(K)
        rejects += expected is not None
    assert 5 <= rejects <= 25, rejects


def build_frames(K):
    """K with the frame of every simplex built, so a later count of
    eliminations sees only those of the disjointness check."""
    for s in K.simplices:
        K.frame(s)
    return K


def forbid_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("linalg.eliminate called")
    monkeypatch.setattr(linalg, "eliminate", refuse)


def test_validate_ranks_a_union_missing_from_the_complex(monkeypatch):
    # collinear unions of d + 1 vertices that are no simplex of K: the
    # hyperplane screen must leave them to the LP, not skip them.  Each
    # adds one vertex to a-b, on its hull, so the facet case reads it and
    # nothing is eliminated
    verts = {"a": (0, 0), "b": (2, 0), "c": (1, 0)}
    cases = [([["a"], ["b"], ["c"], ["a", "b"]], "a-b and c"),
             ([["a", "b"], ["a", "c"]], "a-b and a-c")]
    for sims, names in cases:
        with pytest.raises(OverlappingSimplices,
                           match=f"^open simplices {names} intersect$"):
            validate(2, verts, sims)
    built = [(build_frames(validate(2, verts, sims, check_disjoint=False)),
              names) for sims, names in cases]
    forbid_elimination(monkeypatch)
    for K, names in built:
        with pytest.raises(OverlappingSimplices,
                           match=f"^open simplices {names} intersect$"):
            check_pairwise_disjoint(K)


def test_planar_disjointness_eliminates_nothing(monkeypatch, corpus):
    """In the plane the rank case of `hyperplane_separated` never
    eliminates: it needs two added points, so a frame of two or three,
    which leaves at most one offset coordinate for them."""
    fine = sd.iterated_subdivision(corpus["disk"][0], 2).fine
    K = build_frames(validate(2, fine.vertices, fine.simplices,
                              check_disjoint=False))
    forbid_elimination(monkeypatch)
    check_pairwise_disjoint(K)


def count_calls(monkeypatch, module, name):
    """A list that gains one entry per call of module.name from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_torus7_disjointness_runs_no_lp_and_few_eliminations(monkeypatch,
                                                            corpus):
    """With its frames built, torus7 r=1 (252 simplices in R^6) is decided
    by the hyperplane screen alone, and its rank case eliminates only
    where the signs of the offsets leave the pair open."""
    fine = sd.iterated_subdivision(corpus["torus7"][0], 1).fine
    K = build_frames(validate(6, fine.vertices, fine.simplices,
                              check_disjoint=False))
    lps = count_calls(monkeypatch, linalg, "convex_positions_intersect")
    eliminations = count_calls(monkeypatch, linalg, "eliminate")
    check_pairwise_disjoint(K)
    assert not lps and len(eliminations) <= 100, len(eliminations)


def test_union_screen_reads_the_union_rank():
    """`linalg.hyperplane_separated` separates every pair whose union of
    integer rows has full rank, in either order: seeded pairs of affinely
    independent lists in R^1..R^6 on a grid with mixed denominators,
    sharing 0-2 vertices, whose union has at most d + 1 points.  An added
    point is a fresh grid point or, for a dependent union, an affine
    combination of the points before it."""
    rng = random.Random(25)
    seen = Counter()
    for _ in range(2000):
        d = rng.randint(1, 6)
        e = rng.randint(1, min(3, (d + 1) // 2))        # points added
        shared = rng.randint(0, min(2, d + 1 - 2 * e))
        big = list({grid_point(rng, d)
                    for _ in range(rng.randint(shared + e, d + 1 - e))})
        if len(big) < shared + e or frame_on(big).rows is None:
            continue
        extra = []
        for _ in range(e):
            if rng.random() < 0.3:
                pts = big + extra
                extra.append(combination(rng, pts, [rng.choice((1, -1))
                                                    for _ in pts])[0])
            else:
                extra.append(grid_point(rng, d))
        small = rng.sample(big, shared) + extra
        if (len(set(big + extra)) < len(big) + e
                or frame_on(small).rows is None):
            continue
        union = [list(linalg.integer_point(p)) for p in big + extra]
        if len(linalg.eliminate(union, d + 1)[0]) < len(union):
            continue
        fb, fs = frame_on(big), frame_on(small)
        assert linalg.hyperplane_separated(fb, fs), (big, small)
        assert linalg.hyperplane_separated(fs, fb), (big, small)
        seen[e] += 1
    assert all(seen[e] >= 50 for e in (1, 2, 3)), seen


def test_validate_in_ambient_dimension_zero():
    K, _ = scx.load_complex("ambient 0\nvertex p\nsimplex p\n")
    assert K.simplices == {("p",)} and K.vertices == {"p": ()}


def test_validate_rejects_an_empty_simplex_and_a_negative_ambient():
    with pytest.raises(AffinelyDependent, match="empty simplex"):
        validate(1, {"a": (0,)}, [["a"], []])
    with pytest.raises(AffinelyDependent,
                       match="ambient dimension -1 is negative"):
        validate(-1, {}, [])


def test_subdivided_files_validate_without_the_lp(monkeypatch, corpus):
    def no_lp(*args, **kwargs):
        raise AssertionError("convex_positions_intersect called")
    monkeypatch.setattr(linalg, "convex_positions_intersect", no_lp)
    for name, rounds in (("s2", 1), ("disk", 3)):
        fine = sd.iterated_subdivision(corpus[name][0], rounds).fine
        K, _ = scx.load_complex(scx.emit_scx(fine))
        assert K == fine


@pytest.fixture
def lp_verdicts(monkeypatch):
    """The verdicts of every `linalg.convex_positions_intersect` call."""
    verdicts = []
    lp = linalg.convex_positions_intersect

    def counted(pts_a, pts_b):
        verdicts.append(lp(pts_a, pts_b))
        return verdicts[-1]
    monkeypatch.setattr(linalg, "convex_positions_intersect", counted)
    return verdicts


def test_validate_in_dimension_three(corpus, lp_verdicts):
    """3-dimensional frames, the hyperplane screen and the sweep: the
    subdivided closed tetrahedron and the prism complex over disk r=1
    pass, the prisms only after the LP, and two crossing tetrahedra are
    named by the LP."""
    fine = sd.barycentric_subdivide(closed_tetra()).fine
    assert len(fine) == 149
    assert validate(3, fine.vertices, fine.simplices) == fine
    disk1 = sd.iterated_subdivision(corpus["disk"][0], 1).fine
    prisms = cy.prism_triangulate(disk1).cylinder
    assert (prisms.ambient_dim, len(prisms)) == (3, 123)
    before = len(lp_verdicts)
    assert validate(3, prisms.vertices, prisms.simplices) == prisms
    assert len(lp_verdicts) - before == 12
    assert not any(lp_verdicts)
    verts = {"a": (0, 0, 0), "b": (4, 0, 0), "c": (0, 4, 0), "d": (0, 0, 4),
             "e": (1, 1, 1), "f": (3, 1, 1), "g": (1, 3, 1), "h": (1, 1, 3)}
    with pytest.raises(OverlappingSimplices,
                       match="^open simplices a-b-c-d and e-f-g-h intersect$"):
        validate(3, verts, [["a", "b", "c", "d"], ["e", "f", "g", "h"]])
    assert lp_verdicts[-1] is True


def test_validate_makes_each_vertex_integer_once(monkeypatch, corpus):
    """`validate` of the torus7 r=1 text converts each vertex to its
    integer point once, in `Complex.integer_point`, and every frame is
    built from those points: no frame query converts a point again."""
    text = scx.emit_scx(sd.iterated_subdivision(corpus["torus7"][0], 1).fine)
    calls = Counter()
    convert = linalg.integer_point

    def counted(x):
        assert sys._getframe(1).f_code is Complex.integer_point.__code__
        calls[tuple(x)] += 1
        return convert(x)
    monkeypatch.setattr(linalg, "integer_point", counted)
    K, _ = scx.load_complex(text)
    assert len(K.vertices) == 42
    assert calls == Counter(K.vertices.values())
    for s in K.simplices:
        assert all(p is K.integer_point(v)
                   for p, v in zip(K.frame(s).points, s))
    assert sum(calls.values()) == 42


def test_barycenter_of_integer_vertices_is_exact():
    K = Complex(2, DISK_VERTS, map(simplex, DISK_SIMS))
    for s in K.simplices:
        b = K.barycenter(s)
        assert all(type(q) is F for q in b), b
        assert b == linalg.vcomb([F(1, len(s))] * len(s), K.points(s))
    assert K.barycenter(("a", "b", "c")) == (F(1, 3), F(1, 3))


def test_validate_rejects_aliased_vertices():
    verts = {"a": (0, 0), "b": (1, 0), "bb": (1, 0)}
    with pytest.raises(Exception):
        validate(2, verts, [["a"], ["b"], ["bb"]])


def test_equality_needs_every_used_vertex_on_both_sides():
    with_a = Complex(1, {"a": (F(0),)}, [("a",)])
    without_a = Complex(1, {}, [("a",)])
    assert with_a != without_a
    assert without_a != with_a
    assert with_a == Complex(1, {"a": (F(0),), "b": (F(1),)}, [("a",)])


def test_closure_of_open_triangle():
    K = validate(2, DISK_VERTS, [["a", "b", "c"]], check_disjoint=False)
    assert not K.is_closed()
    closed = K.closure()
    assert len(closed.simplices) == 7
    assert closed.is_closed()
    assert closed.closure() == closed


def test_star_of_vertex_in_disk(disk):
    st = disk.star(disk.subcomplex([("a",)]))
    names = sorted(sname(s) for s in st.members)
    assert names == ["a", "a-b", "a-b-c", "a-c"]


def test_star_of_vertex_in_circle(tri3):
    st = tri3.star(tri3.subcomplex([("a",)]))
    names = sorted(sname(s) for s in st.members)
    assert names == ["a", "a-b", "a-c"]


def test_star_of_interior_point(disk):
    st = disk.star([(F(1, 3), F(1, 3))])
    assert set(st.members) == {("a", "b", "c")}


def test_star_of_points_converts_each_point_once(monkeypatch, corpus):
    """The star of 20 barycenters of disk r=2 converts each to its
    integer point once, not once per simplex, and is the union of the
    simplices whose closure holds one of them."""
    fine = sd.iterated_subdivision(corpus["disk"][0], 2).fine
    assert len(fine) == 121
    points = [fine.barycenter(s) for s in sorted(fine.simplices)
              if len(s) > 1][:20]
    expected = {s for s in fine.simplices for p in points
                if fine.point_in_closure(s, p)}
    calls = Counter()
    convert = linalg.integer_point

    def counted(x):
        calls[tuple(x)] += 1
        return convert(x)
    monkeypatch.setattr(linalg, "integer_point", counted)
    assert set(fine.star(points).members) == expected
    assert sum(calls[p] for p in points) == 20


def test_star_outside_polyhedron(disk):
    with pytest.raises(PointOutsidePolyhedron):
        disk.star([(F(5), F(5))])


class LPReference:
    """Stars by geometry alone: s is in the star when some face f of s, in
    K or not, has open f meeting an open member (or the point) by the
    exact LP.  Each LP answer is kept, keyed by coordinates."""

    def __init__(self):
        self.known = {}

    def meets(self, pts_a, pts_b):
        key = (tuple(pts_a), tuple(pts_b))
        if key not in self.known:
            self.known[key] = linalg.convex_positions_intersect(pts_a, pts_b)
        return self.known[key]

    def star(self, K, targets):
        """targets: point lists of open simplices or single points."""
        return {s for s in K.simplices
                if any(self.meets(K.points(f), pts)
                       for f in faces_with_self(s) for pts in targets)}

    def point_star(self, K, p):
        """None when no open simplex of K holds p."""
        if not any(self.meets(K.points(s), [p]) for s in K.simplices):
            return None
        return self.star(K, [[p]])


def star_cases(corpus):
    """Closed corpus complexes, non-closed restrictions of them, a
    triangle whose missing edge other simplices cover, a lone simplex of
    R^5 with a vertex on its missing edge, and a triangle without its
    vertex a, whose point an edge crosses and whose missing edge b-c is
    covered at its midpoint m."""
    cases = [corpus[name][0] for name in ("cube1", "cube2", "disk", "s2",
                                          "tri3", "wedge2")]
    disk, s2 = corpus["disk"][0], corpus["s2"][0]
    cases.append(disk.restrict([("a", "b", "c")]))         # open triangle
    cases.append(disk.restrict(disk.simplices - {("a",)}))
    edge = min(s for s in s2.simplices if len(s) == 2)
    cases.append(s2.restrict(s2.simplices - {edge}))
    # the missing edge a-b of the triangle is covered by a-m, m and m-b
    cases.append(validate(2, {"a": (0, 0), "b": (2, 0), "c": (0, 2),
                              "m": (1, 0)},
                          [["a", "b", "c"], ["a"], ["m"], ["b"], ["a", "m"],
                           ["m", "b"]]))
    lone = [f"v{i}" for i in range(6)]
    cases.append(validate(5, {"m": (F(1, 2), 0, 0, 0, 0), **{
        v: tuple(int(j == i - 1) for j in range(5))
        for i, v in enumerate(lone)}}, [lone, ["m"]]))
    cases.append(validate(2, {"a": (0, 0), "b": (2, 0), "c": (0, 2),
                              "m": (1, 1), "x": (-1, 1), "y": (1, -1)},
                          [["a", "b", "c"], ["b"], ["c"], ["m"], ["a", "b"],
                           ["a", "c"], ["b", "m"], ["m", "c"], ["x"], ["y"],
                           ["x", "y"]]))
    return cases


def test_star_matches_the_lp_reference(corpus):
    rng = random.Random(66)
    ref = LPReference()
    cases = star_cases(corpus)
    for K in cases:
        for t in sorted(K.simplices):
            assert set(K.star(K.subcomplex([t])).members) \
                == ref.star(K, [K.points(t)]), (sname(t), sorted(K.simplices))
        members = rng.sample(sorted(K.simplices), min(3, len(K.simplices)))
        assert set(K.star(K.subcomplex(members)).members) \
            == ref.star(K, [K.points(t) for t in members])
        points = [K.barycenter(s) for s in sorted(K.closure().simplices)]
        points.append(tuple(F(7) for _ in range(K.ambient_dim)))
        for p in points:
            expected = ref.point_star(K, p)
            if expected is None:
                with pytest.raises(PointOutsidePolyhedron):
                    K.star([p])
            else:
                assert set(K.star([p]).members) == expected, p
    K = cases[-1]
    assert ("a", "b", "c") in K.star(K.subcomplex([("m",)])).members


def test_closed_star_matches_the_proper_faces_definition(corpus):
    """On every star case, the closed star of each simplex and of a
    seeded triple of members is the LP reference's star with the proper
    faces of its members that lie in K."""
    rng = random.Random(38)
    ref = LPReference()
    for K in star_cases(corpus):
        order = sorted(K.simplices)
        targets = [[t] for t in order]
        targets.append(rng.sample(order, min(3, len(order))))
        for members in targets:
            star = ref.star(K, [K.points(t) for t in members])
            expected = star | {f for s in star for f in proper_faces(s)
                               if f in K.simplices}
            assert set(K.closed_star(K.subcomplex(members)).members) \
                == expected, (members, order)


def test_stars_never_list_faces(monkeypatch, corpus):
    """`star` and `closed_star` of every simplex of the star cases and of
    the r=1 corpus, and `urysohn` on disk r=2 about a vertex and about
    the boundary, give the same answers with `complexes.proper_faces`
    and `faces_with_self` raising."""
    cases = star_cases(corpus) + [sd.iterated_subdivision(K, 1).fine
                                  for K, _ in corpus.values()]
    disk, subs = corpus["disk"]
    w = sd.iterated_subdivision(disk, 2)
    rims = [w.fine.subcomplex([("a",)]), w.fine.subcomplex(
        pm.restrict_members(w, subs["boundary"].members))]

    def answers():
        out = []
        for K in cases:
            for t in sorted(K.simplices):
                target = K.subcomplex([t])
                out.append((K.star(target).members,
                            K.closed_star(target).members))
        for C in rims:
            out.append(pm.urysohn(w.fine, C, w.fine.closed_star(C)).values)
        return out

    before = answers()

    def enumerate_faces(s):
        raise AssertionError(f"the faces of {s} listed")
    for name in ("proper_faces", "faces_with_self"):
        monkeypatch.setattr(complexes, name, enumerate_faces)
    assert answers() == before


def test_star_rejects_a_foreign_target(disk, tri3):
    with pytest.raises(NotSubcomplex):
        tri3.star(disk.subcomplex([("a", "b", "c")]))


def test_core_of_closed_complex(disk):
    assert set(disk.core().members) == disk.simplices


def test_core_after_removing_vertex(disk):
    # oracle: brute force over all subcomplexes, keep the maximal closed one
    K = disk.restrict([s for s in disk.simplices if s != ("a",)])
    assert set(K.core().members) == {("b",), ("c",), ("b", "c")}


def test_core_of_lone_open_triangle():
    K = validate(2, DISK_VERTS, [["a", "b", "c"]], check_disjoint=False)
    assert len(K.core().members) == 0


def fixed_point_core(K):
    """Reference: drop simplices with a missing proper face until none
    is left."""
    surviving = set(K.simplices)
    changed = True
    while changed:
        changed = False
        for s in sorted(surviving, key=len, reverse=True):
            if any(f not in surviving for f in proper_faces(s)):
                surviving.discard(s)
                changed = True
    return surviving


@pytest.mark.parametrize("name,rounds", [("disk", 2), ("torus7", 1)])
def test_core_matches_the_fixed_point_definition(corpus, name, rounds):
    fine = sd.iterated_subdivision(corpus[name][0], rounds).fine
    rng = random.Random(7)
    order = sorted(fine.simplices)
    for k in (1, 3, 10, len(order) // 4):
        for _ in range(5):
            gone = set(rng.sample(order, k))
            K = fine.restrict([s for s in order if s not in gone])
            assert set(K.core().members) == fixed_point_core(K)


def test_core_matches_the_proper_faces_definition(corpus):
    """Seeded non-closed samples: the closure of random simplices of the
    r=1 corpus with random faces dropped.  The core read from facets is
    the set of simplices all of whose proper faces are in K."""
    rng = random.Random(53)
    for name in scx.CORPUS_NAMES:
        fine = sd.iterated_subdivision(corpus[name][0], 1).fine
        for _ in range(4):
            closed = sorted(random_closure(fine, rng))
            gone = set(rng.sample(closed, rng.randint(1, len(closed))))
            K = fine.restrict([s for s in closed if s not in gone])
            assert set(K.core().members) == {
                s for s in K.simplices
                if all(f in K.simplices for f in proper_faces(s))}, name


def measured(step):
    """step(), asserted to take under 1 s and a tracemalloc peak under
    5 MB."""
    tracemalloc.start()
    start = time.perf_counter()
    got = step()
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1 and peak < 5_000_000, (elapsed, peak)
    return got


def test_one_big_simplex_is_read_by_facets(monkeypatch):
    """One 24-vertex simplex and nothing else: validating it, taking its
    core and checking a relabelled copy as its subdivision ask its
    facets, never its 2**24 faces.  Its star and closed star, alone and
    with a vertex m on its missing edge v0-v1, read vertex sets and run
    at most one LP each."""
    n = 24
    s = simplex(f"v{i}" for i in range(n))
    text = f"ambient {n - 1}\n" + "".join(
        f"vertex v{i} " + " ".join("1" if j == i - 1 else "0"
                                   for j in range(n - 1)) + "\n"
        for i in range(n)) + "simplex " + " ".join(s) + "\n"
    K, _ = measured(lambda: scx.load_complex(text))
    assert K.simplices == {s}
    assert measured(lambda: K.core().members) == frozenset()
    fine = Complex(K.ambient_dim,
                   {"w" + v: p for v, p in K.vertices.items()},
                   [tuple("w" + v for v in s)])
    w = sd.SubdivisionWitness(fine, K, {t: s for t in fine.simplices})
    assert measured(lambda: sd.verify_subdivision(w)) == (True, [])
    K_m, _ = scx.load_complex(
        text + "vertex m 1/2" + " 0" * (n - 2) + "\nsimplex m\n")
    lps = count_calls(monkeypatch, linalg, "convex_positions_intersect")
    for L, t, star in ((K, s, {s}), (K_m, s, {s}),
                       (K_m, ("m",), {s, ("m",)})):
        for ask in (L.star, L.closed_star):
            before = len(lps)
            assert measured(lambda: ask(L.subcomplex([t])).members) == star
            assert len(lps) - before <= 1, (ask.__name__, t)
    assert len(lps) == 2


def test_locate_oracles(disk):
    s, coords = disk.locate((F(1, 3), F(1, 3)))
    assert s == ("a", "b", "c") and coords == (F(1, 3), F(1, 3), F(1, 3))
    s, coords = disk.locate((F(0), F(0)))
    assert s == ("a",) and coords == (F(1),)
    s, coords = disk.locate((F(1, 2), F(0)))
    assert s == ("a", "b") and coords == (F(1, 2), F(1, 2))
    with pytest.raises(PointOutsidePolyhedron):
        disk.locate((F(2), F(2)))


def test_locate_is_unique_partition(disk):
    # every sampled rational point lies in exactly one open simplex
    pts = [(F(i, 7), F(j, 7)) for i in range(8) for j in range(8)
           if i + j <= 7]
    for p in pts:
        s, coords = disk.locate(p)
        assert all(c > 0 for c in coords) and sum(coords) == 1
        others = [t for t in disk.simplices
                  if t != s and disk.try_locate(p) is not None
                  and disk.point_in_closure(t, p)
                  and len(t) - 1 == 0]
        # open containment is unique by construction of locate
        assert disk.try_locate(p)[0] == s


def test_skeleton(disk, tri3):
    names = {sname(s) for s in disk.skeleton(1).members}
    assert names == {"a", "b", "c", "a-b", "b-c", "a-c"}
    assert len(disk.skeleton(0).members) == 3
    boundary = disk.subcomplex([s for s in disk.simplices if len(s) <= 2])
    sk = disk.subcomplex(disk.skeleton(1).members | boundary.members)
    assert len(sk.members) == 6


def test_simplex_helpers():
    s = simplex(["c", "a", "b"])
    assert s == ("a", "b", "c")
    assert sname(s) == "a-b-c"
    assert set(proper_faces(s)) == {("a",), ("b",), ("c",),
                                    ("a", "b"), ("a", "c"), ("b", "c")}


def test_empty_complex_operations():
    K = validate(2, {}, [])
    assert K.is_closed()
    assert len(K.core().members) == 0
    assert len(K.skeleton(1).members) == 0
