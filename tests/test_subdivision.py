"""Barycentric subdivision, normality checking, and normal extension."""

import random
import re
from fractions import Fraction as F
from itertools import combinations

import pytest

from plhtpy import certio, complexes, cylinders, linalg
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy import scx
from plhtpy.complexes import (Complex, WeightRows, facets, proper_faces,
                              simplex, sname, validate)
from plhtpy.errors import (Incompatible, NotClosed, NotNormal, NotNormalInput,
                           NotSubcomplex, PlhtpyError)
from plhtpy.homology import euler_characteristic
from test_scx_cli import golden_containers, run_cli

TETRA_VERTS = {"p": (0, 0, 0), "q": (1, 0, 0), "r": (0, 1, 0),
               "s": (0, 0, 1)}


def closed_tetra():
    K = validate(3, TETRA_VERTS, [["p", "q", "r", "s"]],
                 check_disjoint=False)
    return K.closure()


def test_bary_counts_disk(disk):
    w = sd.barycentric_subdivide(disk)
    assert len(w.fine.by_dim(2)) == 6
    assert len(w.fine.by_dim(1)) == 12
    assert len(w.fine.by_dim(0)) == 7
    assert euler_characteristic(w.fine) == 1
    assert w.fine.is_closed()


def test_bary_counts_tri3(tri3):
    w = sd.barycentric_subdivide(tri3)
    assert len(w.fine.by_dim(1)) == 6
    assert len(w.fine.by_dim(0)) == 6


def test_bary_factorial_top_count():
    w = sd.barycentric_subdivide(closed_tetra())
    assert len(w.fine.by_dim(3)) == 24  # (3+1)!


def test_centroid_matches_the_fraction_sum():
    # one Fraction over the common denominator of each column, against a
    # sum that normalises after every addition
    rng = random.Random(7)
    for _ in range(300):
        n, d = rng.randint(1, 5), rng.randint(0, 4)
        points = [tuple(rng.choice((rng.randint(-9, 9),
                                    F(rng.randint(-30, 30),
                                      rng.randint(1, 12))))
                        for _ in range(d)) for _ in range(n)]
        ref = tuple(F(sum(col), n) for col in zip(*points))
        got = linalg.centroid(points)
        assert got == ref and all(type(q) is F for q in got), points
        assert [(q.numerator, q.denominator) for q in got] == \
            [(q.numerator, q.denominator) for q in ref]
    assert linalg.centroid([(3, F(-5, 2))]) == (F(3), F(-5, 2))
    assert linalg.centroid([(F(-1, 3), 1), (1, F(-1, 6))]) == \
        (F(1, 3), F(5, 12))
    assert linalg.centroid([]) == ()


class CountingSet(frozenset):
    """A frozenset that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        CountingSet.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("name", ["disk", "torus7"])
def test_bary_reads_faces_instead_of_scanning_the_complex(corpus, name):
    K = sd.barycentric_subdivide(corpus[name][0]).fine
    expected = sd.barycentric_subdivide(K)
    K.simplices = CountingSet(K.simplices)
    CountingSet.iterations = 0
    w = sd.barycentric_subdivide(K)
    # a constant number of passes over K, whatever its size (disk r=1 has
    # 25 simplices, torus7 r=1 has 252)
    assert CountingSet.iterations <= 4
    assert w.fine == expected.fine and w.carrier == expected.carrier


def test_bary_requires_closed():
    K = validate(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                 [["a", "b", "c"]], check_disjoint=False)
    with pytest.raises(NotClosed):
        sd.barycentric_subdivide(K)


@pytest.mark.parametrize("text, name", [
    # the barycenter of a-b and the user vertex were merged at 5
    ("ambient 1\nvertex a 0\nvertex b 1\nvertex a.b^bary 5\nsimplex a\n"
     "simplex b\nsimplex a.b^bary\nsimplex a b\n", "a.b^bary"),
    # the barycenters of a-b.c and a.b-c share one generated name
    ("ambient 1\nvertex a 0\nvertex b.c 1\nvertex a.b 2\nvertex c 3\n"
     "simplex a\nsimplex b.c\nsimplex a.b\nsimplex c\nsimplex a b.c\n"
     "simplex a.b c\n", "a.b.c^bary"),
])
def test_bary_refuses_a_vertex_id_that_spells_a_barycenter(text, name):
    K, _ = scx.load_complex(text)
    with pytest.raises(Incompatible, match=re.escape(name)):
        sd.barycentric_subdivide(K)


def test_bary_preserves_euler_and_closedness(corpus):
    for name, (K, _) in corpus.items():
        w = sd.barycentric_subdivide(K)
        assert w.fine.is_closed(), name
        assert euler_characteristic(w.fine) == euler_characteristic(K), name


def test_bary_fullness_property(disk):
    # a simplex of the closure with all vertices in the subdivision is
    # itself a subdivision simplex
    fine = sd.barycentric_subdivide(disk).fine
    present = {v for s in fine.simplices for v in s}
    for s in fine.closure().simplices:
        if set(s) <= present:
            assert s in fine.simplices


def test_verify_subdivision(disk):
    w = sd.barycentric_subdivide(disk)
    ok, violations = sd.verify_subdivision(w)
    assert ok and not violations
    ok, violations = sd.verify_subdivision(sd.identity_witness(disk))
    assert ok


def test_verify_subdivision_flags_swapped_carrier(disk):
    w = sd.barycentric_subdivide(disk)
    carrier = dict(w.carrier)
    inner = next(t for t, c in carrier.items() if len(c) == 3 and len(t) == 3)
    carrier[inner] = ("a", "b")
    bad = sd.SubdivisionWitness(w.fine, w.coarse, carrier)
    ok, violations = sd.verify_subdivision(bad)
    assert not ok and violations


# the family of the benchmark's forged_partition tamper (bench/tamper.py):
# the corner x the two triangles share, and the parameter t of p on xz
FORGED = [(x, t) for x in "abc"
          for t in (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))]


def forged_witness(disk, closed, x, t):
    """The standard triangle abc "refined" by (x, y, p) and (x, z, q), y < z
    the other corners, with p = x + t(z - x) on xz and q = x + (1 - t)(y - x)
    on xy: relative volumes t + (1 - t), overlapping near x and leaving a
    gap along yz.  Open: only the two triangles are added.  Closed: every
    face is declared and carried."""
    y, z = sorted({"a", "b", "c"} - {x})
    X, Y, Z = (disk.vertices[n] for n in (x, y, z))
    whole = ("a", "b", "c")
    verts = dict(disk.vertices)
    verts["p"] = linalg.vcomb([1 - t, t], [X, Z])
    verts["q"] = linalg.vcomb([t, 1 - t], [X, Y])
    carrier = {s: s for s in disk.simplices if s != whole}
    carrier[simplex((x, y, "p"))] = whole
    carrier[simplex((x, z, "q"))] = whole
    if closed:
        xy, xz = simplex((x, y)), simplex((x, z))
        carrier.update({("p",): xz, simplex((x, "p")): xz,
                        ("q",): xy, simplex((x, "q")): xy,
                        simplex((y, "p")): whole, simplex((z, "q")): whole})
    fine = Complex(2, verts, carrier)
    assert fine.is_closed() == closed
    return sd.SubdivisionWitness(fine, disk, carrier)


def first_forged_violation(x, closed):
    """The first violation `verify_subdivision` names for the forged
    partition at corner x.  Open: the first facet of the first piece
    (x, y, p) is missing.  Closed: the interior edge yp has one top
    coface."""
    y = min({"a", "b", "c"} - {x})
    whole = ("a", "b", "c")
    if closed:
        return (simplex((y, "p")), whole, "interior facet with 1 top cofaces")
    piece = simplex((x, y, "p"))
    return (facets(piece)[0], whole, f"face of {sname(piece)} missing")


def test_forged_partition_open_is_not_closed(disk):
    for x, t in FORGED:
        ok, violations = sd.verify_subdivision(forged_witness(disk, False,
                                                              x, t))
        assert not ok, (x, t)
        first = first_forged_violation(x, False)
        assert violations[0] == first, (x, t)
        # the piece's other facet through x is missing too
        assert (simplex((x, "p")), *first[1:]) in violations, (x, t)


def test_forged_partition_closed_fails_the_facet_rule(disk):
    for x, t in FORGED:
        ok, violations = sd.verify_subdivision(forged_witness(disk, True,
                                                              x, t))
        assert not ok, (x, t)
        assert violations[0] == first_forged_violation(x, True), (x, t)
        # the gap along yz: its edge has no top coface inside abc
        assert (simplex(set("abc") - {x}), ("a", "b", "c"),
                "boundary facet with 0 top cofaces") in violations, (x, t)


@pytest.mark.parametrize("closed", [False, True])
def test_cli_verify_cert_rejects_forged_partition(tmp_path, disk, closed):
    f = pm.identity_map(disk)
    path = tmp_path / "forged.json"
    for x, t in FORGED:
        ref = forged_witness(disk, closed, x, t)
        step = pm.HomotopyStep(f, f, ref, ref.carrier)
        cert = pm.HomotopyCertificate([step], disk.subcomplex(()))
        certio.save(str(path), certio.cert_to_obj(cert))
        code, out = run_cli("verify-cert", str(path))
        assert code == 1, (x, t)
        assert "check_cert_valid: fail" in out, (x, t)
        first = first_forged_violation(x, closed)
        assert (f"witness_cert_valid: step 0 simplex -: bad refinement: "
                f"[{first!r}") in out, (x, t)


def test_verify_normal_rejects_folded_images(disk):
    # move one interior vertex's image across an interior edge of its link:
    # the two top images on that edge then lie on one side of it
    w = sd.iterated_subdivision(disk, 2)
    phi = sd.identity_homeo_on(w)
    whole = ("a", "b", "c")
    v = "a.b.c^bary"
    x, y = next(e for e in sorted(w.fine.by_dim(1))
                if w.carrier[e] == whole and v not in e
                and simplex(e + (v,)) in w.fine.simplices)
    mid = linalg.vcomb([F(1, 2)] * 2, [w.fine.vertices[x], w.fine.vertices[y]])
    phi.vertex_image[v] = linalg.vcomb([F(3, 2), F(-1, 2)],
                                       [mid, w.fine.vertices[v]])
    report = sd.verify_normal(phi)
    assert report.is_subdivision and report.carrier_respecting
    assert not report.partitions_simplices and not report.normal
    assert ((x, y), whole, "image top cofaces on one side") \
        in report.violations


def side_by_coordinates(coarse, point, c, f, t1, u1, u2):
    """The facet side test before it moved to determinants: the apex u2
    of one top coface gets its barycentric coordinates in a one-off
    `barycentric_coords` frame of the other, t1, and the two lie on one
    side when the coordinate at t1's apex u1 is not negative."""
    lam = linalg.barycentric_coords([point[v] for v in t1], point[u2])
    return lam[t1.index(u1)] >= 0


def side_by_two_eliminations(coarse, point, c, f, t1, u1, u2):
    """The facet side test before the sides were read off the top pieces'
    volumes: the rows of (f..., u1) and of (f..., u2) in c are eliminated
    once more each, and the two lie on one side when the determinants'
    product is not negative."""
    frame = coarse.frame(c)
    dets = [linalg.eliminate(
        [frame.weights(linalg.integer_point(point[v]))[0] for v in f + (u,)],
        len(c))[1] for u in (u1, u2)]
    return dets[0] * dets[1] >= 0


def partition_reference(coarse, pieces, point, carrier, what="",
                        one_side=side_by_coordinates):
    """`partition_violations` by first principles, with the facet side
    test `one_side` of an interior facet f of c and its two top cofaces
    t1, t2 with apexes u1, u2.  Messages start with `what`."""
    violations = []
    by_coarse = {c: [] for c in coarse.simplices}
    for t in sorted(pieces):
        c = carrier.get(t)
        if c is None or c not in coarse.simplices:
            violations.append((t, c, what + "carrier missing"))
        elif coarse.support(c, [point[v] for v in t]) != c:
            violations.append((t, c, what + "not inside carrier"))
        else:
            by_coarse[c].append(t)
    for c in sorted(coarse.simplices, key=lambda c: (-len(c), c)):
        mine = by_coarse[c]
        for t in mine:
            for f in facets(t):
                if f not in pieces and coarse.support(
                        c, [point[v] for v in f]) in coarse.simplices:
                    violations.append((f, c, f"{what}face of {sname(t)} "
                                             "missing"))
        total = F(0)
        faces, cofaces = set(), {}
        for t in mine:
            if len(t) != len(c):
                continue
            vol = abs(sd.relative_volume([coarse.frame(c).weights(
                linalg.integer_point(point[v])) for v in t]))
            if vol == 0:
                violations.append((t, c, what + "degenerate"))
                continue
            total += vol
            faces.update(proper_faces(t))
            for f in facets(t):
                cofaces.setdefault(f, []).append(t)
        for t in mine:
            if len(t) < len(c) and t not in faces:
                violations.append((t, c, what + "not a face of a top piece"))
        for f, tops in sorted(cofaces.items()):
            if f not in pieces:
                continue
            if carrier.get(f) != c:
                if len(tops) != 1:
                    violations.append((f, c, f"{what}boundary facet with "
                                             f"{len(tops)} top cofaces"))
            elif len(tops) != 2:
                violations.append((f, c, f"{what}interior facet with "
                                         f"{len(tops)} top cofaces"))
            else:
                t1, t2 = tops
                (u1,), (u2,) = set(t1) - set(f), set(t2) - set(f)
                if one_side(coarse, point, c, f, t1, u1, u2):
                    violations.append((f, c, f"{what}top cofaces on one "
                                             "side"))
        for e in facets(c):
            for f in by_coarse.get(e, ()):
                if len(f) == len(e) and f not in cofaces:
                    violations.append((f, c, f"{what}boundary facet with "
                                             "0 top cofaces"))
        if total != 1:
            violations.append((None, c, f"{what}coverage {total} != 1"))
    return violations


def partition_forgeries(w, rng):
    """Point tables and carriers of w: an interior vertex of a top piece
    moved across the facet of that piece opposite it, and the carriers of
    two pieces swapped."""
    point, carrier = dict(w.fine.vertices), w.carrier
    t = rng.choice([t for t in sorted(w.fine.simplices)
                    if len(t) == len(w.carrier[t]) == w.coarse.dim() + 1
                    and any(w.carrier[(v,)] == w.carrier[t] for v in t)])
    v = rng.choice([v for v in t if w.carrier[(v,)] == w.carrier[t]])
    across = tuple(u for u in t if u != v)
    s = F(rng.randint(1, 8), 4)
    moved = dict(point)
    moved[v] = linalg.vcomb([1 + s, -s], [w.fine.barycenter(across),
                                          point[v]])
    swapped = dict(carrier)
    a, b = rng.sample(sorted(carrier), 2)
    swapped[a], swapped[b] = carrier[b], carrier[a]
    return [(moved, carrier), (point, swapped)]


def image_perturbations(w, rng):
    """Point tables of w: a cone point moved onto a vertex of its carrier,
    as the benchmark's image_shift tamper moves its image, and moved
    across the facet opposite it in a top piece, which folds two top
    pieces onto one side of a facet."""
    top = w.coarse.dim() + 1
    cones = sorted(v for (v,) in w.fine.by_dim(0)
                   if len(w.carrier[(v,)]) == top)
    v = rng.choice(cones)
    shifted = dict(w.fine.vertices)
    shifted[v] = w.coarse.vertices[rng.choice(w.carrier[(v,)])]
    t = rng.choice([t for t in sorted(w.fine.simplices)
                    if len(t) == top and v in t])
    s = F(rng.randint(1, 8), 4)
    folded = dict(w.fine.vertices)
    folded[v] = linalg.vcomb([1 + s, -s], [
        w.fine.barycenter(tuple(u for u in t if u != v)), folded[v]])
    return [shifted, folded]


def test_partition_sides_match_the_reference(disk):
    """Seeded forgeries of disk r=1..2 and the closed tetrahedron r=1,
    images moved as the benchmark's image_shift tamper moves them or
    folded across a facet, and the forged partitions of the triangle
    (the benchmark's whole family, open and closed):
    the violation lists, in order, are those of the reference under
    either side test, and some put two top cofaces on one side."""
    tetra = closed_tetra()
    rng = random.Random(2121)
    moves = random.Random(3535)
    cases = []
    for closed in (False, True):
        for x, t in FORGED:
            ref = forged_witness(disk, closed, x, t)
            cases.append((disk, ref.fine.vertices, ref.fine.simplices,
                          ref.carrier, ""))
    for K, r in ((disk, 1), (disk, 2), (tetra, 1)):
        w = sd.iterated_subdivision(K, r)
        cases.append((K, w.fine.vertices, w.fine.simplices, w.carrier, ""))
        for _ in range(12):
            cases += [(K, point, w.fine.simplices, carrier, "")
                      for point, carrier in partition_forgeries(w, rng)]
        for _ in range(6):
            cases += [(K, point, w.fine.simplices, w.carrier, "image ")
                      for point in image_perturbations(w, moves)]
    seen = set()
    for K, point, pieces, carrier, what in cases:
        got = sd.partition_violations(WeightRows(K, point), pieces, carrier,
                                      what)
        for one_side in (side_by_coordinates, side_by_two_eliminations):
            assert got == partition_reference(K, pieces, point, carrier,
                                              what, one_side)
        seen.update(m[len(what):] for _, _, m in got)
    assert {"top cofaces on one side", "degenerate",
            "boundary facet with 0 top cofaces"} <= seen, seen


def stray_pieces(w, rng):
    """(points, pieces, carriers) of w with one stray lower piece added
    inside a top coarse simplex c: a new vertex z at the barycenter of a
    top piece t, an edge from z to a vertex of t, or an edge joining two
    vertices inside c that no piece joins."""
    top = w.coarse.dim() + 1
    t = rng.choice([t for t in sorted(w.fine.simplices)
                    if len(t) == len(w.carrier[t]) == top])
    c = w.carrier[t]
    point = dict(w.fine.vertices)
    point["z"] = w.fine.barycenter(t)
    inner = [v for (v,) in w.fine.by_dim(0) if w.carrier[(v,)] == c]
    joins = [e for e in combinations(sorted(inner), 2)
             if e not in w.fine.simplices]
    strays = [("z",), simplex(("z", rng.choice(t)))] \
        + rng.sample(joins, min(1, len(joins)))
    return [(point, w.fine.simplices | {e}, w.carrier | {e: c})
            for e in strays]


def test_lower_pieces_match_the_face_set_rule(disk):
    """A lower piece is a face of a top piece exactly when its vertices
    lie in a nondegenerate top piece through its first vertex: the
    violation lists are those of the reference, which lists every face
    of every top piece, on the forged partitions of the triangle and on
    seeded refinements given a stray lower piece."""
    rng = random.Random(4747)
    cases = []
    for closed in (False, True):
        for x, t in FORGED:
            ref = forged_witness(disk, closed, x, t)
            cases.append((disk, ref.fine.vertices, ref.fine.simplices,
                          ref.carrier))
    for K, r in ((disk, 1), (disk, 2), (closed_tetra(), 1)):
        w = sd.iterated_subdivision(K, r)
        for _ in range(4):
            cases += [(K, *case) for case in stray_pieces(w, rng)]
    seen = set()
    for K, point, pieces, carrier in cases:
        got = sd.partition_violations(WeightRows(K, point), pieces, carrier)
        assert got == partition_reference(K, pieces, point, carrier)
        seen.update(m for _, _, m in got)
    assert "not a face of a top piece" in seen, seen


def test_trust_anchors_never_enumerate_faces(monkeypatch, corpus, rot,
                                             perturbed_disk, disk,
                                             disk_boundary):
    """validate, verify_certificate and verify_normal on the corpus, the
    saved certificate and homeo artifacts and the forged partitions give
    the same verdicts and first violations with every binding of
    `proper_faces` and `faces_with_self` raising."""
    bad_scx = [
        "ambient 2\nvertex a 0 0\nvertex b 1 1\nvertex c 2 2\n"
        "simplex a b c\n",
        "ambient 3\nvertex a 0 0 0\nvertex b 1 0 0\nvertex c 2 0 0\n"
        "vertex d 0 1 0\nsimplex a b c d\nsimplex a b c\n",
        "ambient 1\nvertex a 0\nvertex b 2\nvertex c 1\n"
        "simplex a b\nsimplex c\n"]
    texts = [scx.corpus_text(name) for name in scx.CORPUS_NAMES] + bad_scx
    homeos = [certio.homeo_to_obj(sd.identity_homeo_on(
        sd.barycentric_subdivide(K))) for K, _ in corpus.values()]
    objs = golden_containers(rot, perturbed_disk, disk, disk_boundary)
    certs = [objs["approximate rot"],
             objs["simplicialize_rel perturbed_disk"]]
    homeos.append(objs["extend-normal disk r=2"])
    f = pm.identity_map(disk)
    for closed in (False, True):
        for x, t in FORGED:
            ref = forged_witness(disk, closed, x, t)
            certs.append(certio.cert_to_obj(pm.HomotopyCertificate(
                [pm.HomotopyStep(f, f, ref, ref.carrier)],
                disk.subcomplex(()))))
            homeos.append(certio.homeo_to_obj(
                sd.PLHomeo(ref, ref.fine.vertices, ref.carrier)))

    def verdicts():
        out = []
        for text in texts:
            try:
                K, _ = scx.load_complex(text)
                out.append((scx.complex_digest(K), sorted(K.core().members)))
            except PlhtpyError as exc:
                out.append((type(exc).__name__, str(exc)))
        for obj in certs:
            ok, problems = pm.verify_certificate(certio.cert_from_obj(obj))
            out.append((ok, problems[:1]))
        for obj in homeos:
            rep = sd.verify_normal(certio.homeo_from_obj(obj))
            out.append((rep.partitions_simplices, rep.is_subdivision,
                        rep.carrier_respecting, rep.violations[:1]))
        return out

    before = verdicts()
    assert sum(v[0] is False for v in before) == 2 * 2 * len(FORGED)

    def enumerate_faces(s):
        raise AssertionError(f"the faces of {s} listed")
    for module in (complexes, sd, cylinders):
        for name in ("proper_faces", "faces_with_self"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, enumerate_faces)
    assert verdicts() == before


def test_partition_checks_never_call_the_lp(monkeypatch, disk,
                                            disk_boundary):
    def no_lp(*args, **kwargs):
        raise AssertionError("convex_positions_intersect called")
    monkeypatch.setattr(linalg, "convex_positions_intersect", no_lp)
    boundary = disk_boundary.as_complex()
    for r in (1, 2, 3):
        w = sd.iterated_subdivision(disk, r)
        assert sd.verify_subdivision(w)[0]
        assert sd.verify_normal(sd.identity_homeo_on(w)).normal
        phi0 = sd.identity_homeo_on(sd.iterated_subdivision(boundary, r))
        phi = sd.extend_normal(disk, disk_boundary, phi0)
        assert sd.verify_normal(phi).normal
    tetra = closed_tetra()
    faces = tetra.subcomplex([s for s in tetra.simplices if len(s) <= 3])
    phi0 = sd.identity_homeo_on(sd.barycentric_subdivide(faces.as_complex()))
    assert sd.verify_normal(sd.extend_normal(tetra, faces, phi0)).normal


def test_subdivision_of_an_open_complex():
    # closedness is relative to the coarse complex: faces on coarse
    # simplices it leaves out are not required
    K = validate(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                 [["a", "b", "c"], ["a", "b"]], check_disjoint=False)
    assert sd.verify_subdivision(sd.identity_witness(K)) == (True, [])


def test_iterated_subdivision(tri3):
    w = sd.iterated_subdivision(tri3, 2)
    assert len(w.fine.by_dim(1)) == 12
    ok, _ = sd.verify_subdivision(w)
    assert ok


def test_verify_normal_identity(disk):
    assert sd.verify_normal(sd.identity_homeo(disk)).normal
    w = sd.barycentric_subdivide(disk)
    assert sd.verify_normal(sd.identity_homeo_on(w)).normal


def test_verify_normal_flags_moved_vertex(disk):
    # displace the interior barycenter image onto the boundary: the image
    # of the interior fine simplices leaves their carrier
    w = sd.barycentric_subdivide(disk)
    phi = sd.identity_homeo_on(w)
    phi.vertex_image["a.b.c^bary"] = (F(1, 2), F(0))
    report = sd.verify_normal(phi)
    assert not report.normal
    assert not report.carrier_respecting
    assert report.violations


def boundary_slide_homeo(tri3):
    """Normal homeomorphism of the circle sliding each edge midpoint to
    the 1/3 point of its edge."""
    w = sd.barycentric_subdivide(tri3)
    image = {v: w.fine.vertices[v] for s in w.fine.simplices for v in s}
    for e in tri3.by_dim(1):
        u, v = e
        p, q = tri3.vertices[u], tri3.vertices[v]
        image[sd.bary_name(e)] = tuple(a + (b - a) / 3
                                       for a, b in zip(p, q))
    return sd.PLHomeo(w, image, dict(w.carrier))


def check_extension(K, K_Z, phi0):
    phi = sd.extend_normal(K, K_Z, phi0)
    assert sd.verify_normal(phi).normal
    assert phi0.witness.fine.simplices <= phi.witness.fine.simplices
    for v, p in phi0.vertex_image.items():
        assert phi.vertex_image[v] == p
    return phi


def test_extend_normal_disk_identity(disk, disk_boundary):
    phi0 = sd.identity_homeo_on(
        sd.barycentric_subdivide(disk_boundary.as_complex()))
    phi = check_extension(disk, disk_boundary, phi0)
    # cones from the triangle barycenter over the 6 subdivided edges
    assert len(phi.witness.fine.by_dim(2)) == 6


def test_extend_normal_disk_slide(disk, disk_boundary, tri3):
    phi0 = boundary_slide_homeo(tri3)
    # rebase the witness onto the subcomplex view of the boundary
    phi = check_extension(disk, disk_boundary, phi0)
    third = phi.evaluate((F(1, 2), F(0)))
    assert third == (F(1, 3), F(0))


def test_extend_normal_closed_edge():
    K = validate(1, {"a": (0,), "b": (1,)}, [["a"], ["b"], ["a", "b"]])
    K_Z = K.subcomplex([("a",), ("b",)])
    phi0 = sd.identity_homeo_on(sd.identity_witness(K_Z.as_complex()))
    phi = check_extension(K, K_Z, phi0)
    assert phi.witness.fine.simplices == K.simplices  # kept whole


def test_extend_normal_tetra_boundary():
    K = closed_tetra()
    boundary = K.subcomplex([s for s in K.simplices if len(s) <= 3])
    phi0 = sd.identity_homeo_on(
        sd.barycentric_subdivide(boundary.as_complex()))
    phi = check_extension(K, boundary, phi0)
    assert any(len(t) == 4 for t in phi.witness.fine.simplices)


def test_extend_normal_refuses_a_vertex_id_that_spells_a_barycenter():
    # the user vertex at (7, 7) was overwritten by the cone point
    K = validate(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1),
                     "a.b.c^bary": (7, 7)},
                 [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"], ["a", "c"],
                  ["a", "b", "c"], ["a.b.c^bary"]])
    boundary = K.subcomplex([s for s in K.simplices
                             if len(s) <= 2 and s != ("a.b.c^bary",)])
    phi0 = sd.identity_homeo_on(
        sd.barycentric_subdivide(boundary.as_complex()))
    with pytest.raises(Incompatible, match=r"a\.b\.c\^bary"):
        sd.extend_normal(K, boundary, phi0)


def test_extend_normal_rejects_bad_input(disk, disk_boundary, tri3):
    w = sd.barycentric_subdivide(disk_boundary.as_complex())
    phi0 = sd.identity_homeo_on(w)
    phi0.vertex_image[sd.bary_name(("a", "b"))] = tri3.vertices["c"]
    with pytest.raises(NotNormalInput):
        sd.extend_normal(disk, disk_boundary, phi0)
    not_closed = disk.subcomplex([("a", "b", "c")])
    with pytest.raises(NotSubcomplex):
        sd.extend_normal(disk, not_closed,
                         sd.identity_homeo(not_closed.as_complex()))


def test_canonical_homotopy_identity(disk):
    cert = sd.canonical_homotopy(sd.identity_homeo(disk))
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems
    x = (F(1, 4), F(1, 4))
    assert cert.evaluate(x, F(1, 2)) == x


def test_canonical_homotopy_extension(disk, disk_boundary):
    phi0 = sd.identity_homeo_on(
        sd.barycentric_subdivide(disk_boundary.as_complex()))
    phi = sd.extend_normal(disk, disk_boundary, phi0)
    cert = sd.canonical_homotopy(phi)
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems
    # straight segments [x, phi(x)] stay inside the polyhedron
    for x in [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(0), F(1, 2))]:
        for s in (F(1, 4), F(1, 2), F(3, 4)):
            disk.locate(cert.evaluate(x, s))


def extended_identity(corpus, name, r):
    """extend_normal of the identity of the boundary of a corpus complex,
    presented on its r-th barycentric subdivision."""
    K, subs = corpus[name]
    boundary = subs["boundary"]
    phi0 = sd.identity_homeo_on(
        sd.iterated_subdivision(boundary.as_complex(), r))
    return sd.extend_normal(K, boundary, phi0)


def test_homeos_are_self_maps(disk, disk_boundary, tri3):
    w = sd.barycentric_subdivide(disk)
    image = {v: w.fine.vertices[v] for s in w.fine.simplices for v in s}
    slide = sd.extend_normal(disk, disk_boundary, boundary_slide_homeo(tri3))
    for phi in (sd.PLHomeo(w, image, dict(w.carrier)),
                sd.identity_homeo_on(w), sd.identity_homeo(disk), slide,
                certio.homeo_from_obj(certio.homeo_to_obj(slide))):
        assert isinstance(phi, pm.PLMap)
        assert phi.witness is phi.dom_subdivision
        assert phi.domain is phi.codomain is phi.witness.coarse


@pytest.mark.parametrize("r", [1, 2])
def test_homeo_evaluate_matches_evaluate_in(corpus, r):
    phi = extended_identity(corpus, "disk", r)
    for t in sorted(phi.fine.simplices):
        for v in t:
            x = phi.fine.vertices[v]
            assert phi.evaluate(x) == phi.evaluate_in(t, x) \
                == phi.vertex_image[v], (t, v)


@pytest.mark.parametrize("name, r", [("disk", 1), ("disk", 2),
                                     ("cube2", 1)])
def test_homeo_container_round_trip(corpus, name, r):
    obj = certio.homeo_to_obj(extended_identity(corpus, name, r))
    assert certio.homeo_to_obj(certio.homeo_from_obj(obj)) == obj


def test_canonical_homotopy_rejects_non_normal(disk):
    w = sd.barycentric_subdivide(disk)
    phi = sd.identity_homeo_on(w)
    phi.vertex_image["a.b.c^bary"] = (F(1, 2), F(0))
    with pytest.raises(NotNormal):
        sd.canonical_homotopy(phi)
