"""PL maps: evaluation, approximation, certificates, and the rel pipeline."""

import random
from fractions import Fraction as F

import pytest

from plhtpy import linalg
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import Complex, faces_with_self, simplex
from plhtpy.errors import (CarrierClash, FixedSetMismatch, Incompatible,
                           NotClosed, NotFull, NotSimplicial,
                           PointOutsidePolyhedron, RoundsExhausted,
                           ValueOutOfRange)
from plhtpy.homology import induced_map

from conftest import fresh, make_hexagon


def test_evaluate_identity(disk):
    f = pm.identity_map(disk)
    x = (F(1, 3), F(1, 3))
    assert f.evaluate(x) == x
    with pytest.raises(PointOutsidePolyhedron):
        f.evaluate((F(3), F(3)))


def test_evaluate_deg2(deg2, tri3):
    assert deg2.evaluate(deg2.domain.vertices["h1"]) == tri3.vertices["b"]
    h0, h1 = deg2.domain.vertices["h0"], deg2.domain.vertices["h1"]
    mid = tuple((p + q) / 2 for p, q in zip(h0, h1))
    a, b = tri3.vertices["a"], tri3.vertices["b"]
    assert deg2.evaluate(mid) == tuple((p + q) / 2 for p, q in zip(a, b))


def test_evaluate_continuous_across_faces(rot):
    # shared faces receive the same image from both incident pieces: the
    # map is determined by vertex images, checked per shared vertex
    fine = rot.fine
    for s in fine.simplices:
        for v in s:
            assert rot.evaluate(fine.vertices[v]) == rot.vertex_image[v]


def star_center(f, v):
    return pm.check_star_condition(f, v, pm.incident_simplices(f.fine)[v])


def test_star_condition_identity(tri3):
    f = pm.identity_map(tri3)
    for v in tri3.vertex_ids():
        assert star_center(f, v) == v


def test_star_condition_deg2(deg2):
    assert star_center(deg2, "h0") == "a"
    assert star_center(deg2, "h1") == "b"


def test_star_condition_none_for_disjoint_carriers(tri3):
    # an inconsistent witness whose declared carriers share no vertex
    # admits no center; valid maps always do, since closures of
    # vertex-disjoint simplices cannot both contain the vertex image
    w = sd.identity_witness(tri3)
    verts = {v: tri3.vertices[v] for v in tri3.vertex_ids()}
    carriers = {s: s for s in tri3.simplices}
    carriers[("a",)] = ("b", "c")
    f = pm.PLMap(tri3, tri3, w, verts, carriers, check=False)
    assert star_center(f, "a") is None


def test_star_condition_reads_the_incidence_index(perturbed_disk):
    # disk r=2: the perturbed disk's domain subdivided once more
    f = pm.subdivide_map(perturbed_disk)
    incident = pm.incident_simplices(f.fine)
    verts = f.fine.vertex_ids()
    assert len(verts) == len(incident) == 25
    for v in verts:
        scanned = [t for t in f.fine.simplices if v in t]
        assert sorted(incident[v]) == sorted(scanned)
        assert (pm.check_star_condition(f, v, incident[v])
                == pm.check_star_condition(f, v, scanned))


def test_approximation_of_simplicial_map_is_itself(deg2):
    g, cert = pm.simplicial_approximation(deg2)
    assert g.simplicial_vertex_map() == deg2.simplicial_vertex_map()
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems


def test_approximation_rot(rot):
    g, cert = pm.simplicial_approximation(rot, max_rounds=2)
    assert g.is_simplicial()
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems
    assert induced_map(g, 1).is_identity()


def test_approximation_deg2_induced(deg2):
    g, _ = pm.simplicial_approximation(deg2)
    assert abs(induced_map(g, 1).matrix[0][0]) == 2


def test_approximation_rounds_exhausted(rot):
    with pytest.raises(RoundsExhausted):
        # the same inconsistent-witness construction can never stabilize
        tri3 = rot.codomain
        w = sd.identity_witness(tri3)
        verts = {v: tri3.vertices[v] for v in tri3.vertex_ids()}
        carriers = {s: s for s in tri3.simplices}
        carriers[("a",)] = ("b", "c")
        bad = pm.PLMap(tri3, tri3, w, verts, carriers, check=False)
        pm.simplicial_approximation(bad, max_rounds=1)


def test_negative_round_counts_are_refused(rot, tri3):
    with pytest.raises(ValueOutOfRange, match="negative round count -1"):
        sd.iterated_subdivision(tri3, -1)
    with pytest.raises(ValueOutOfRange, match="negative round count -1"):
        pm.simplicial_approximation(rot, -1)
    with pytest.raises(ValueOutOfRange, match="negative round count -1"):
        pm.simplicialize_rel(rot, None, -1)


def test_homotopy_times_outside_the_unit_interval_are_refused(tri3):
    f = pm.identity_map(tri3)
    step = pm.HomotopyStep(f, f, sd.identity_witness(tri3),
                           {s: s for s in tri3.simplices})
    cert = pm.HomotopyCertificate([step, step], tri3.subcomplex(()))
    x = tri3.vertices["a"]
    for s in (F(0), F(1, 2), F(1)):
        assert cert.evaluate(x, s) == x and step.evaluate(x, s) == x
    for s in (F(-1, 2), F(3, 2)):
        with pytest.raises(ValueOutOfRange, match="outside \\[0, 1\\]"):
            cert.evaluate(x, s)
        with pytest.raises(ValueOutOfRange, match="outside \\[0, 1\\]"):
            step.evaluate(x, s)


def test_straight_line_same_map(deg2):
    cert = pm.straight_line_homotopy(deg2, deg2)
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems


def test_straight_line_identity_to_constant(tri3, disk):
    # on the hollow triangle the far edge's images share no simplex
    with pytest.raises(CarrierClash):
        pm.straight_line_homotopy(pm.identity_map(tri3),
                                  pm.constant_map(tri3, tri3,
                                                  tri3.vertices["a"]))
    # with the solid triangle as codomain the straight line is valid:
    # every segment stays inside the closed 2-simplex
    ident = pm.identity_map(disk)
    const = pm.constant_map(disk, disk, disk.vertices["a"])
    cert = pm.straight_line_homotopy(ident, const)
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems


def test_straight_line_fixed_set_mismatch(disk):
    ident = pm.identity_map(disk)
    const = pm.constant_map(disk, disk, disk.vertices["a"])
    fixed = disk.subcomplex([("b",)])
    with pytest.raises(FixedSetMismatch, match="maps differ at b on"):
        pm.straight_line_homotopy(ident, const, fixed=fixed)
    # sorted, each vertex once, however many simplices hold it
    assert pm.moved_vertices(ident, const, disk.simplices) == ["b", "c"]
    assert pm.moved_vertices(const, const, disk.simplices) == []


def test_certificate_mutation_detected(rot):
    g, cert = pm.simplicial_approximation(rot)
    step = cert.steps[0]
    victim = sorted(step.carriers)[0]
    step.carriers[victim] = ("a",)
    ok, problems = pm.verify_certificate(cert)
    assert not ok
    assert any(t == victim for _, t, _ in problems if t)


def test_certificate_without_steps_fails(disk):
    cert = pm.HomotopyCertificate([], disk.subcomplex(()))
    assert pm.verify_certificate(cert) == (
        False, [(0, None, "certificate has no steps")])


def test_certificate_into_a_non_closed_codomain_fails():
    """L is the triangle abc without its edges; f sends the segment pq to
    (1, 0), the midpoint of the missing edge ab, which is not a point of
    |L| although it lies in the closed hull of abc."""
    L = Complex(2, {"a": (0, 0), "b": (2, 0), "c": (0, 2)},
                [("a",), ("b",), ("c",), ("a", "b", "c")])
    K = Complex(1, {"p": (0,), "q": (1,)}, [("p",), ("q",), ("p", "q")])
    mid = (F(1), F(0))
    carriers = {t: ("a", "b", "c") for t in K.simplices}
    w = sd.identity_witness(K)
    f = pm.PLMap(K, L, w, {"p": mid, "q": mid}, carriers, check=False)
    g = pm.PLMap(K, L, w, {"p": mid, "q": L.vertices["a"]}, carriers,
                 check=False)
    with pytest.raises(NotClosed):
        pm.PLMap(K, L, w, f.vertex_image, carriers)
    cert = pm.HomotopyCertificate([pm.HomotopyStep(f, g, w, carriers)],
                                  K.subcomplex(()))
    assert pm.verify_certificate(cert) == (
        False, [(0, None, "codomain is not closed")])


ROT_AB = ("a", "a.b^bary")


@pytest.mark.parametrize("name, t, c, bad", [
    # vertex a: both images lie in the carrier a-b of ("a",), checked
    # first, and outside the carrier a of ROT_AB
    ("rot", ROT_AB, ("a",), [ROT_AB, ROT_AB]),
    ("perturbed_disk", ("a.b.c^bary",), ("a", "b"), [("a.b.c^bary",)]),
], ids=["rot", "perturbed_disk"])
def test_repeated_vertex_violation_is_reported_per_simplex(request, name, t,
                                                           c, bad):
    _, cert = pm.simplicial_approximation(request.getfixturevalue(name))
    cert.steps[0].carriers[t] = c
    assert pm.verify_certificate(cert) == (
        False, [(0, s, "image outside carrier") for s in bad])


@pytest.mark.parametrize("name, s, t, bad", [
    ("rot", ("a.b^bary",), ("a.c^bary",), [("a.b^bary",), ("a.c^bary",)]),
    ("rot", ROT_AB, ("b.c^bary", "c"),
     [ROT_AB, ROT_AB, ("b.c^bary", "c"), ("b.c^bary", "c")]),
    ("perturbed_disk", ("a",), ("b", "b.c^bary"),
     [("a",), ("b", "b.c^bary"), ("b", "b.c^bary")]),
], ids=["rot-vertices", "rot-edges", "perturbed_disk"])
def test_carrier_swap_problem_lists(request, name, s, t, bad):
    # one problem per refinement simplex and vertex with an image outside
    _, cert = pm.simplicial_approximation(request.getfixturevalue(name))
    carriers = cert.steps[0].carriers
    carriers[s], carriers[t] = carriers[t], carriers[s]
    assert pm.verify_certificate(cert) == (
        False, [(0, x, "image outside carrier") for x in bad])


OPEN_ON_BC = [("b", "m"), ("c", "m"), ("m",)]


def open_domain_certificate():
    """The domain leaves out the edge b-c of the triangle a-b-c and covers
    it by b-m, m, m-c instead.  The refinement cuts a-b-c along a-m, so the
    vertex m lies on the missing face of that host, where the affine
    extension over a-b-c gives (b + c) / 2 on the edge b-c of the codomain,
    while the map sends m itself to a, off that edge."""
    pts = {"a": (1, 2), "b": (0, 0), "c": (2, 0), "m": (1, 0)}
    edges = [("a", "b"), ("a", "c"), ("b", "m"), ("c", "m")]
    K = Complex(2, pts, [("a", "b", "c"), ("a",), ("b",), ("c",), ("m",)]
                + edges)
    L = Complex(2, {"A": (1, 2), "B": (0, 0), "C": (2, 0)},
                faces_with_self(("A", "B", "C")))
    up = {"a": "A", "b": "B", "c": "C", "m": "A"}
    images = {v: L.vertices[up[v]] for v in pts}
    f = pm.PLMap(K, L, sd.identity_witness(K), images,
                 {t: simplex({up[v] for v in t}) for t in K.simplices})
    cuts = [("a", "b", "m"), ("a", "c", "m"), ("a", "m")]
    fine = Complex(2, pts, set(K.simplices) - {("a", "b", "c")} | set(cuts))
    ref = sd.SubdivisionWitness(fine, K, {t: ("a", "b", "c") if t in cuts
                                          else t for t in fine.simplices})
    carriers = {t: ("B", "C") if t in OPEN_ON_BC else ("A", "B", "C")
                for t in fine.simplices}
    return pm.HomotopyCertificate([pm.HomotopyStep(f, f, ref, carriers)],
                                  K.subcomplex(()))


def test_open_domain_images_are_read_per_host():
    assert pm.verify_certificate(open_domain_certificate()) == (
        False, [(0, t, "image outside carrier") for t in OPEN_ON_BC])


def test_urysohn_vertex_star(disk):
    fine = sd.barycentric_subdivide(disk).fine
    c_ref = fine.subcomplex([("a",)])
    lam = pm.urysohn(fine, c_ref, fine.closed_star(c_ref))
    assert lam.values["a"] == 0
    assert all(lam.values[v] == 1 for v in lam.values if v != "a")
    # strictly positive on the open edges at a
    x = tuple((p + q) / 3 for p, q in zip(fine.vertices["a"],
                                          fine.vertices["a.b^bary"]))
    assert 0 < lam.evaluate(x) < 1


def test_stars_on_closed_complexes_run_no_lp(monkeypatch, corpus,
                                             perturbed_disk, disk_boundary):
    def no_lp(*args):
        raise AssertionError("convex_positions_intersect called")
    monkeypatch.setattr(linalg, "convex_positions_intersect", no_lp)
    for name in scx.CORPUS_NAMES:
        K = corpus[name][0]
        for t in K.simplices:
            K.closed_star(K.subcomplex([t]))
    # the star of a vertex of the disk at r=3 (673 simplices)
    disk = corpus["disk"][0]
    fine = sd.iterated_subdivision(disk, 3).fine
    assert len(fine.star(fine.subcomplex([("a",)])).members) == 18
    a = fine.subcomplex([("a",)])
    lam = pm.urysohn(fine, a, fine.closed_star(a))
    assert lam.values["a"] == 0
    g, cert = pm.simplicialize_rel(perturbed_disk, disk_boundary)
    assert pm.verify_certificate(cert)[0]


def test_urysohn_not_full(tri3):
    c = tri3.subcomplex([("a",), ("b",)])
    e = tri3.subcomplex(tri3.simplices)
    with pytest.raises(NotFull):
        pm.urysohn(tri3, c, e)


def test_simplicialize_rel_empty_fixed(rot):
    g, cert = pm.simplicialize_rel(rot, None)
    assert g.is_simplicial()
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems
    assert induced_map(g, 1).is_identity()


def test_simplicialize_rel_perturbed_disk(perturbed_disk, disk,
                                          disk_boundary):
    f = perturbed_disk
    g, cert = pm.simplicialize_rel(f, disk_boundary)
    ok, problems = pm.verify_certificate(cert)
    assert ok, problems
    assert cert.fixed_set.members == disk_boundary.members
    # result equals the input (the identity) on the boundary exactly
    for x in [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 4), F(3, 4)),
              (F(0), F(2, 3))]:
        assert g.evaluate(x) == x
    # the certificate is constant on the boundary at all times
    for x in [(F(1, 2), F(0)), (F(0), F(1, 3))]:
        for s in (F(0), F(1, 3), F(1, 2), F(1)):
            assert cert.evaluate(x, s) == x
    # simplicial outside the barrier: pieces not touching the boundary
    # region have vertex images at codomain vertices
    vmap = g.simplicial_vertex_map()
    coords = {tuple(p) for p in disk.vertices.values()}
    if vmap is None:
        interior = [t for t in g.fine.simplices
                    if all(g.vertex_image[v] in coords or
                           g.dom_subdivision.carrier[t] == ("a", "b", "c")
                           for v in t)]
        assert interior  # blended zone is confined near the boundary


def test_simplicialize_blend_endpoints(perturbed_disk, disk_boundary):
    f = perturbed_disk
    g, cert = pm.simplicialize_rel(f, disk_boundary)
    # H(x, 0) = f(x) for sampled interior points
    for x in [(F(1, 4), F(1, 4)), (F(1, 8), F(1, 2))]:
        assert cert.evaluate(x, F(0)) == cert.initial.evaluate(x)
        assert cert.evaluate(x, F(1)) == cert.final.evaluate(x)


# ---------------------------------------------------------------------------
# Carrier proofs by vertex equality and one weight row per (carrier, vertex)
# ---------------------------------------------------------------------------

def test_simplicial_maps_build_no_codomain_frame(tri3, disk):
    hexagon = make_hexagon()
    L = fresh(tri3)
    pm.simplicial_map(hexagon, L, {"h0": "a", "h1": "b", "h2": "c",
                                   "h3": "a", "h4": "b", "h5": "c"})
    assert L._frames == {}
    K = fresh(disk)
    pm.identity_map(K)
    assert K._frames == {}


def vertex_images(K, **moved):
    images = {v: K.vertices[v] for v in K.vertex_ids()}
    images.update(moved)
    return images


@pytest.mark.parametrize("image, error, named", [
    # a codomain vertex, but not one of the carrier's
    ((F(0), F(1)), CarrierClash, "vertex a outside carrier a"),
    # no vertex at all, outside the carrier
    ((F(1, 2), F(0)), CarrierClash, "vertex a outside carrier a"),
    ((F(0), F(0), F(0)), Incompatible, "3 coordinates"),
])
def test_carrier_proofs_still_reject_a_bad_image(tri3, image, error, named):
    with pytest.raises(error, match=named):
        pm.PLMap(tri3, tri3, sd.identity_witness(tri3),
                 vertex_images(tri3, a=image),
                 {s: s for s in tri3.simplices})


def test_a_missing_vertex_image_names_the_vertex(tri3):
    images = vertex_images(tri3)
    del images["c"]
    with pytest.raises(CarrierClash, match="no image for vertex c"):
        pm.PLMap(tri3, tri3, sd.identity_witness(tri3), images,
                 {s: s for s in tri3.simplices})
    with pytest.raises(NotSimplicial, match="no image for vertex c"):
        pm.simplicial_map(tri3, tri3, {"a": "a", "b": "b"})


def circle_rotation(tri3, r):
    """tri3 presented at depth r, every fine vertex moved one fine vertex
    along the circle."""
    w = sd.iterated_subdivision(tri3, r)
    nbrs = {}
    for e in w.fine.simplices:
        if len(e) == 2:
            nbrs.setdefault(e[0], []).append(e[1])
            nbrs.setdefault(e[1], []).append(e[0])
    order = ["a", min(nbrs["a"])]
    while len(order) < len(nbrs):
        order.append(next(u for u in nbrs[order[-1]] if u != order[-2]))
    images = {v: w.fine.vertices[order[(i + 1) % len(order)]]
              for i, v in enumerate(order)}
    carrier = {t: pm.minimal_carrier(tri3, [images[v] for v in t])
               for t in w.fine.simplices}
    return pm.PLMap(tri3, tri3, w, images, carrier)


def scrambled_disk(disk):
    """disk at depth 1, every vertex interior to the triangle moved halfway
    to the point with weights 1/6, 2/6, 3/6; carriers are minimal faces."""
    w = sd.barycentric_subdivide(disk)
    abc = ("a", "b", "c")
    target = linalg.vcomb([F(1, 6), F(2, 6), F(3, 6)], disk.points(abc))
    images = {}
    for t, c in w.carrier.items():
        if len(t) == 1:
            p = w.fine.vertices[t[0]]
            images[t[0]] = (p if c != abc else
                            linalg.vcomb([F(1, 2), F(1, 2)], [p, target]))
    carrier = {t: pm.carrier_face(disk, w.carrier[t],
                                  [images[v] for v in t])
               for t in w.fine.simplices}
    return pm.PLMap(disk, disk, w, images, carrier)


def seeded_scramble(base, rng):
    """Map base_1 -> base with every vertex of the subdivision sent to a
    seeded point of its own closed carrier, some weights zero.  Any such
    image lies in the closed carrier of every piece through the vertex, so
    the map passes `PLMap._check`.  A piece's target carrier is, by a
    seeded coin, its minimal face or the whole coarse carrier."""
    step = sd.barycentric_subdivide(base)
    images = {}
    for t, c in sorted(step.carrier.items()):
        if len(t) == 1:
            wts = [rng.choice((0, 0, 1, 2, 5)) for _ in c]
            wts[rng.randrange(len(c))] += 1
            images[t[0]] = linalg.vcomb([F(x, sum(wts)) for x in wts],
                                        base.points(c))
    carrier = {t: (c if rng.random() < 0.5 else
                   pm.carrier_face(base, c, [images[v] for v in t]))
               for t, c in sorted(step.carrier.items())}
    return pm.PLMap(base, base, step, images, carrier)


@pytest.mark.parametrize("name", scx.CORPUS_NAMES)
def test_subdivide_map_carriers_match_the_per_piece_route(corpus, name):
    # each piece's carrier is read off its chain's top simplex; the
    # reference reads it from the piece's own images
    rng = random.Random(f"subdivide_map:{name}")
    for r in (0, 1):
        base = sd.iterated_subdivision(fresh(corpus[name][0]), r).fine
        f = seeded_scramble(base, rng)
        g = pm.subdivide_map(f)
        step = sd.barycentric_subdivide(f.fine)
        assert g.target_carrier.keys() == step.fine.simplices
        for t in step.fine.simplices:
            ref = pm.carrier_face(base, f.target_carrier[step.carrier[t]],
                                  [g.vertex_image[v] for v in t])
            assert ref is not None and g.target_carrier[t] == ref, (r, t)


def test_subdivide_map_keeps_the_parent_where_an_image_leaves_it(disk):
    # a's image 2a - b leaves every carrier, the whole triangle: each piece
    # over a simplex through a keeps the triangle, though the piece route
    # would give the barycenter of a-b the carrier a (its image is a)
    abc = ("a", "b", "c")
    images = dict(disk.vertices, a=(F(-1), F(0)))
    f = pm.PLMap(disk, disk, sd.identity_witness(disk), images,
                 dict.fromkeys(disk.simplices, abc), check=False)
    g = pm.subdivide_map(f)
    step = sd.barycentric_subdivide(disk)
    mid = sd.bary_name(("a", "b"))
    assert g.vertex_image[mid] == disk.vertices["a"]
    assert pm.carrier_face(disk, abc, [g.vertex_image[mid]]) == ("a",)
    for t in step.fine.simplices:
        s = step.carrier[t]
        assert g.target_carrier[t] == (abc if "a" in s else s), t


@pytest.fixture(params=["rot0", "rot1", "rot2", "scrambled_disk"])
def producer_map(request, tri3, disk):
    if request.param == "scrambled_disk":
        return scrambled_disk(fresh(disk))
    return circle_rotation(fresh(tri3), int(request.param[-1]))


def test_subdivide_map_reads_one_row_per_carrier_and_vertex(monkeypatch,
                                                            producer_map):
    f = producer_map
    calls = []
    weights = linalg.AffineFrame.weights

    def counted(frame, x):
        calls.append(x)
        return weights(frame, x)

    monkeypatch.setattr(linalg.AffineFrame, "weights", counted)
    g = pm.subdivide_map(f)
    monkeypatch.undo()
    step = sd.barycentric_subdivide(f.fine)
    assert g.fine.simplices == step.fine.simplices
    for t in step.fine.simplices:
        parent = f.target_carrier[step.carrier[t]]
        ref = pm.carrier_face(f.codomain, parent,
                              [g.vertex_image[v] for v in t])
        assert g.target_carrier[t] == (ref if ref is not None else parent)
    # rows are read at the old vertices, once per (carrier, vertex) pair
    pairs = {(f.target_carrier[s], v) for s in f.fine.simplices for v in s}
    assert 0 < len(calls) <= len(pairs)
