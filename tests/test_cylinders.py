"""Prism triangulations, cylinder retractions, and homotopy extension."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from plhtpy import certio
from plhtpy import cylinders as cy
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import Complex, proper_faces, simplex, validate
from plhtpy.errors import Incompatible, NotClosed, NotSubcomplex

from conftest import random_closure


def barycenter(K, s):
    pts = [K.vertices[v] for v in s]
    return tuple(sum(c) / len(pts) for c in zip(*pts))


def test_lift_round_trip():
    assert cy.unlift(cy.lift("a", 1)) == ("a", 1)
    assert cy.unlift("a.b^bary~0") == ("a.b^bary", 0)


def test_prism_counts_disk(disk):
    P = cy.prism_triangulate(disk)
    # one staircase tetrahedron per vertex of each top simplex
    assert len(P.cylinder.by_dim(3)) == 3
    assert len(P.cylinder.by_dim(0)) == 6
    assert P.cylinder.is_closed()
    assert len(P.bottom_members()) == len(disk.simplices)


def test_prism_counts_tri3(tri3):
    P = cy.prism_triangulate(tri3)
    assert len(P.cylinder.by_dim(2)) == 6  # two triangles per edge prism
    assert len(P.cylinder.by_dim(0)) == 6


def test_prism_requires_closed():
    K = validate(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                 [["a", "b", "c"]], check_disjoint=False)
    with pytest.raises(NotClosed):
        cy.prism_triangulate(K)


def test_prism_projection_and_levels(tri3):
    P = cy.prism_triangulate(tri3)
    for t, s in P.projection.items():
        assert s in tri3.simplices
        assert {cy.unlift(v)[0] for v in t} == set(s)
    assert P.over([("a", "b")]) <= P.cylinder.simplices


RETRACTION_SIZES = {
    # frozen oracles for the collapse-based retraction witness
    ("cube1", ("u0",)): 19,
    ("tri3", ("a",)): 72,
}


def check_retraction(K, members):
    r = cy.cylinder_retraction(K, members)
    ok, violations = sd.verify_subdivision(r.map.dom_subdivision)
    assert ok, violations
    # identity on the target, checked pointwise at barycenters
    for t in r.target.members:
        p = barycenter(r.prism.cylinder, t)
        assert r.map.evaluate(p) == p
    # the image of every piece lands in the closure of a target simplex
    for s, c in r.map.target_carrier.items():
        assert c in r.target.members
    return r


def test_retraction_cube1(corpus):
    cube1 = corpus["cube1"][0]
    r = check_retraction(cube1, frozenset({("u0",)}))
    assert len(r.map.fine.simplices) == RETRACTION_SIZES[("cube1", ("u0",))]
    # the free end slides down to the floor
    assert r.map.evaluate((F(1), F(1))) in {(F(0), F(0)), (F(1), F(0))}
    top = r.map.evaluate((F(1), F(1)))
    assert top[-1] == 0  # lands on the bottom


def test_retraction_tri3_vertex(tri3):
    r = check_retraction(tri3, frozenset({("a",)}))
    assert len(r.map.fine.simplices) == RETRACTION_SIZES[("tri3", ("a",))]


def test_retraction_disk_boundary(disk, disk_boundary):
    r = check_retraction(disk, disk_boundary.members)
    assert len(r.map.fine.simplices) == 559


def test_retraction_empty_is_vertical_projection(tri3):
    r = cy.cylinder_retraction(tri3, None)
    for x in [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 4), F(3, 4))]:
        for t in (F(0), F(1, 3), F(1)):
            assert r.map.evaluate(x + (t,)) == x + (F(0),)


def test_retraction_rejects_open_subcomplex(disk):
    with pytest.raises(NotSubcomplex):
        cy.cylinder_retraction(disk, frozenset({("a", "b", "c")}))


def wall_homotopy(K, P, Z, images):
    """PLMap on the subcylinder over the vertex-set keys of images."""
    members = {t for t in P.cylinder.simplices
               if {cy.unlift(v)[0] for v in t} <= set(images)}
    dom = Complex(P.cylinder.ambient_dim,
                  {v: P.cylinder.vertices[v]
                   for t in members for v in t},
                  members)
    vimg = {}
    for t in members:
        for v in t:
            base, lv = cy.unlift(v)
            vimg[v] = images[base][lv]
    car = {}
    for t in members:
        pts = {vimg[v] for v in t}
        car[t] = next(c for c in sorted(Z.simplices)
                      if all(Z.point_in_closure(c, p) for p in pts))
    return pm.PLMap(dom, Z, sd.identity_witness(dom), vimg, car)


def test_extend_homotopy_edge_slide(corpus):
    cube1 = corpus["cube1"][0]
    r = cy.cylinder_retraction(cube1, frozenset({("u0",)}))
    f = pm.identity_map(cube1)
    H = wall_homotopy(cube1, r.prism, cube1,
                      {"u0": {0: (F(0),), 1: (F(1),)}})
    G = cy.extend_homotopy(f, H, r)
    # bottom agrees with f
    for x in (F(0), F(1, 3), F(1)):
        assert G.evaluate((x, F(0))) == (x,)
    # wall agrees with H: the fixed end slides across the edge
    assert G.evaluate((F(0), F(1))) == (F(1),)
    assert G.evaluate((F(0), F(1, 2))) == (F(1, 2),)


def test_extend_homotopy_constant(tri3):
    r = cy.cylinder_retraction(tri3, frozenset({("a",)}))
    a = tri3.vertices["a"]
    f = pm.constant_map(tri3, tri3, a)
    H = wall_homotopy(tri3, r.prism, tri3, {"a": {0: a, 1: a}})
    G = cy.extend_homotopy(f, H, r)
    for x in [(F(0), F(0)), (F(1, 2), F(1, 2))]:
        for t in (F(0), F(1, 2), F(1)):
            assert G.evaluate(x + (t,)) == a


def test_extend_homotopy_empty_wall(tri3):
    r = cy.cylinder_retraction(tri3, None)
    f = pm.identity_map(tri3)
    empty = Complex(r.prism.cylinder.ambient_dim, {}, [])
    H = pm.PLMap(empty, tri3, sd.identity_witness(empty), {}, {})
    G = cy.extend_homotopy(f, H, r)
    for x in [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 4), F(3, 4))]:
        for t in (F(0), F(2, 3), F(1)):
            assert G.evaluate(x + (t,)) == x


def test_extend_homotopy_disk_to_tri3(disk, tri3):
    r = cy.cylinder_retraction(disk, frozenset({("a",)}))
    f = pm.constant_map(disk, tri3, tri3.vertices["a"])
    H = wall_homotopy(disk, r.prism, tri3,
                      {"a": {0: tri3.vertices["a"], 1: tri3.vertices["b"]}})
    G = cy.extend_homotopy(f, H, r)
    assert G.evaluate((F(0), F(0), F(1))) == tri3.vertices["b"]
    assert G.evaluate((F(1, 4), F(1, 4), F(0))) == tri3.vertices["a"]


def test_extend_homotopy_incompatible(corpus, tri3):
    cube1 = corpus["cube1"][0]
    r = cy.cylinder_retraction(cube1, frozenset({("u0",)}))
    f = pm.identity_map(cube1)
    # H(., 0) != f at u0
    H = wall_homotopy(cube1, r.prism, cube1,
                      {"u0": {0: (F(1),), 1: (F(1),)}})
    with pytest.raises(Incompatible):
        cy.extend_homotopy(f, H, r)
    # mismatched codomains
    H2 = wall_homotopy(cube1, r.prism, cube1,
                       {"u0": {0: (F(0),), 1: (F(1),)}})
    g = pm.constant_map(cube1, tri3, tri3.vertices["a"])
    with pytest.raises(Incompatible):
        cy.extend_homotopy(g, H2, r)


def test_extend_homotopy_rejects_a_moved_wall(corpus):
    # same simplex names as the wall over u0, coordinates moved to x=5
    cube1 = corpus["cube1"][0]
    r = cy.cylinder_retraction(cube1, frozenset({("u0",)}))
    f = pm.identity_map(cube1)
    H = wall_homotopy(cube1, r.prism, cube1,
                      {"u0": {0: (F(0),), 1: (F(1),)}})
    moved = Complex(H.domain.ambient_dim,
                    {v: (F(5),) + p[1:] for v, p in H.domain.vertices.items()},
                    H.domain.simplices)
    H5 = pm.PLMap(moved, cube1, sd.identity_witness(moved), H.vertex_image,
                  H.target_carrier)
    with pytest.raises(Incompatible, match="subcylinder"):
        cy.extend_homotopy(f, H5, r)


class RescanComposite(cy._Composite):
    """Reference: the composite that rescans and re-sorts the whole fine
    complex for every cut and every collapse."""

    def split_edge(self, u, v, lam):
        z = tuple((1 - lam) * a + lam * b
                  for a, b in zip(self.verts[u], self.verts[v]))
        z_name = cy._point_name(z)
        self.verts[z_name] = z
        self.image[z_name] = tuple((1 - lam) * a + lam * b for a, b
                                   in zip(self.image[u], self.image[v]))
        for t in [t for t in self.simplices if u in t and v in t]:
            self.simplices.discard(t)
            dc, rc = self.domcar.pop(t), self.carrier.pop(t)
            rest = tuple(x for x in t if x not in (u, v))
            for child in (simplex(rest + (u, z_name)),
                          simplex(rest + (v, z_name)),
                          simplex(rest + (z_name,))):
                if child not in self.simplices:
                    self.simplices.add(child)
                    self.domcar[child] = dc
                    self.carrier[child] = rc

    def bary_in(self, c, v):
        return self.cylinder.frame(c).coords(self.image[v])

    def cut_region(self, c, tau):
        idx = [c.index(u) for u in tau]
        for (i, j) in [(i, j) for i in idx for j in idx if i < j]:
            while True:
                cut = None
                for t in sorted(s for s in self.simplices
                                if self.carrier.get(s) == c):
                    vals = {}
                    for v in t:
                        b = self.bary_in(c, v)
                        vals[v] = b[i] - b[j]
                    mixed = [(x, y) for x in t for y in t
                             if vals[x] > 0 > vals[y]]
                    if mixed:
                        cut = (mixed[0], vals)
                        break
                if cut is None:
                    break
                (x, y), vals = cut
                self.split_edge(x, y, vals[x] / (vals[x] - vals[y]))

    def apply_collapse(self, tau, s, w):
        for c in (s, tau):
            self.cut_region(c, tau)
        m = len(tau)
        new_image, new_carrier = {}, {}
        for t in sorted(self.simplices):
            c = self.carrier.get(t)
            if c not in (s, tau):
                continue
            idx = {u: c.index(u) for u in tau}
            widx = c.index(w) if w in c else None
            barys = {v: self.bary_in(c, v) for v in t}
            u_min = next(u for u in tau
                         if all(barys[v][idx[u]] <= barys[v][idx[u2]]
                                for v in t for u2 in tau))
            wpt = self.cylinder.vertices[w]
            for v in t:
                b = barys[v]
                au = b[idx[u_min]]
                img = [F(0)] * len(wpt)
                for u in tau:
                    if u == u_min:
                        continue
                    up = self.cylinder.vertices[u]
                    for k in range(len(img)):
                        img[k] += (b[idx[u]] - au) * up[k]
                wcoef = m * au + (b[widx] if widx is not None else F(0))
                for k in range(len(img)):
                    img[k] += wcoef * wpt[k]
                new_image[v] = tuple(img)
            new_carrier[t] = simplex(set(c) - {u_min} | {w})
        self.image.update(new_image)
        self.carrier.update(new_carrier)


def retraction_input(corpus, name, sub):
    """The prism over a corpus complex and the retraction's target over
    its subcomplex `sub`, or over the vertex `sub`."""
    K, subs = corpus[name]
    P = cy.prism_triangulate(K)
    members = subs[sub].members if sub in subs else [(sub,)]
    return P, P.over(members) | P.bottom_members()


@pytest.mark.parametrize("name,sub", [("cube1", "u0"), ("tri3", "a"),
                                      ("disk", "boundary"),
                                      ("cube2", "boundary")])
def test_composite_matches_the_rescanning_reference(corpus, name, sub):
    P, target = retraction_input(corpus, name, sub)
    comp, ref = cy._Composite(P.cylinder), RescanComposite(P.cylinder)
    for tau, s, w in cy._collapses(P.cylinder, target):
        comp.apply_collapse(tau, s, w)
        ref.apply_collapse(tau, s, w)
    assert len(comp.simplices) > len(P.cylinder.simplices)
    for attr in ("verts", "simplices", "domcar", "image", "carrier"):
        assert getattr(comp, attr) == getattr(ref, attr), attr
    # the incidence indexes match the complex and its carriers
    by_vertex, by_carrier = {}, {}
    for t in comp.simplices:
        for v in t:
            by_vertex.setdefault(v, set()).add(t)
        by_carrier.setdefault(comp.carrier[t], set()).add(t)
    assert {v: ts for v, ts in comp.by_vertex.items() if ts} == by_vertex
    assert {c: ts for c, ts in comp.by_carrier.items() if ts} == by_carrier


class CountingSet(set):
    """A set that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        CountingSet.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("name,sub,digest", [
    ("disk", "boundary",
     "7bb6750b1563ed71e72623e47f1d8e6d2ab4babed5590a53e7d846c459533777"),
    ("cube2", "boundary",
     "7826589459e2fd0bbf2ccc95406cb4441fe4992c072628cb76feff2b24004e5a"),
    ("cube1", "ends",
     "5d2ecb968e3484910547294731277c1366ec624ca86b20d105f08dc5a506b119")])
def test_retraction_container_is_pinned(corpus, name, sub, digest):
    """sha256 of the written retraction onto a subcomplex of the base: the
    cuts, their order and every exact coordinate of the composite."""
    K, subs = corpus[name]
    r = cy.cylinder_retraction(K, subs[sub].members)
    text = certio.dumps(certio.map_to_obj(r.map))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cut_region_reads_indexes_instead_of_scanning(corpus):
    P, target = retraction_input(corpus, "disk", "boundary")
    comp = cy._Composite(P.cylinder)
    tau, s, w = next(cy._collapses(P.cylinder, target))
    comp.simplices = CountingSet(comp.simplices)
    CountingSet.iterations = 0
    before = len(comp.simplices)
    comp.cut_region(s, tau)
    # the rescanning cut iterates the complex once per cut, plus once
    assert len(comp.simplices) > before
    assert CountingSet.iterations <= 2


def extension_disk_to_tri3(corpus):
    disk, tri3 = corpus["disk"][0], corpus["tri3"][0]
    r = cy.cylinder_retraction(disk, frozenset({("a",)}))
    f = pm.constant_map(disk, tri3, tri3.vertices["a"])
    H = wall_homotopy(disk, r.prism, tri3,
                      {"a": {0: tri3.vertices["a"], 1: tri3.vertices["b"]}})
    return f, H, r


def extension_edge_slide(corpus):
    cube1 = corpus["cube1"][0]
    r = cy.cylinder_retraction(cube1, frozenset({("u0",)}))
    H = wall_homotopy(cube1, r.prism, cube1,
                      {"u0": {0: (F(0),), 1: (F(1),)}})
    return pm.identity_map(cube1), H, r


def extension_constant(corpus):
    tri3 = corpus["tri3"][0]
    r = cy.cylinder_retraction(tri3, frozenset({("a",)}))
    a = tri3.vertices["a"]
    H = wall_homotopy(tri3, r.prism, tri3, {"a": {0: a, 1: a}})
    return pm.constant_map(tri3, tri3, a), H, r


def extension_empty_wall(corpus):
    tri3 = corpus["tri3"][0]
    r = cy.cylinder_retraction(tri3, None)
    empty = Complex(r.prism.cylinder.ambient_dim, {}, [])
    H = pm.PLMap(empty, tri3, sd.identity_witness(empty), {}, {})
    return pm.identity_map(tri3), H, r


@pytest.mark.parametrize("inputs,digest", [
    (extension_edge_slide,
     "e944bc7ce8b264db73f860da4514ddcecb978664c2dc711d56a617f05fd5c098"),
    (extension_constant,
     "be1cdf73e9bea744cf6784eaa13399da5c03cf934c199252f22f6cf8c6310365"),
    (extension_empty_wall,
     "7cef27c9134aa4f9b7e1e205551ad71a631c0d42630d58fc22aeb9b0360609b0"),
    (extension_disk_to_tri3,
     "1f717e43e1d68b372d9b1f4651236eb2e38daa6eb630bd85f99afaf4fdb190da")],
    ids=["edge_slide", "constant", "empty_wall", "disk_to_tri3"])
def test_extension_container_is_pinned(corpus, inputs, digest):
    """sha256 of the written extension G = H' o r for the inputs of the
    extend_homotopy tests above: H' reads H on its domain and f elsewhere,
    and G takes the retraction's cuts and carriers."""
    G = cy.extend_homotopy(*inputs(corpus))
    text = certio.dumps(certio.map_to_obj(G))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def rebuilding_free_pairs(live, keep):
    """The free pairs (tau, s) of the live set outside keep, from a coface
    table built afresh over the live set."""
    cofaces = {t: [] for t in live}
    for s in live:
        for f in proper_faces(s):
            if f in live:
                cofaces[f].append(s)
    out = []
    for tau in live:
        if tau in keep:
            continue
        cf = cofaces[tau]
        if len(cf) == 1:
            s = cf[0]
            if s not in keep and len(s) == len(tau) + 1 and not cofaces[s]:
                out.append((tau, s))
    return out


def rebuilding_collapses(cylinder, target):
    """Reference: the greedy collapse sequence that rebuilds the coface
    table of the whole live set for every collapse."""
    live = set(cylinder.simplices)
    while live != target:
        pairs = rebuilding_free_pairs(live, target)
        if not pairs:
            raise Incompatible("cylinder does not collapse onto the target")
        tau, s = max(pairs, key=lambda p: (len(p[1]), p[1], p[0]))
        (w,) = set(s) - set(tau)
        yield tau, s, w
        live.discard(s)
        live.discard(tau)


def run_collapses(collapses):
    """The steps a collapse sequence yields, and whether it then raises
    Incompatible."""
    steps = []
    try:
        for step in collapses:
            steps.append(step)
    except Incompatible:
        return steps, True
    return steps, False


COLLAPSE_INPUTS = ([(name, 0) for name in scx.CORPUS_NAMES]
                   + [(name, 1) for name in ("cube1", "cube2", "disk",
                                             "tri3", "wedge2")])


def test_collapses_match_the_rebuilding_reference(corpus):
    """Three seeded random closed subcomplexes K_A of each input: the
    collapse sequence onto (|K_A| x I) u (|K| x 0) is the reference's."""
    rng = random.Random(29)
    for name, rounds in COLLAPSE_INPUTS:
        K = sd.iterated_subdivision(corpus[name][0], rounds).fine
        P = cy.prism_triangulate(K)
        for _ in range(3):
            members = random_closure(K, rng)
            target = P.over(members) | P.bottom_members()
            assert run_collapses(cy._collapses(P.cylinder, target)) == \
                run_collapses(rebuilding_collapses(P.cylinder, target)), \
                (name, rounds, sorted(members))


def all_cofaces_collapses(cylinder, target):
    """Reference: the greedy collapse sequence from a table of the
    cofaces of every dimension, built once; a collapse drops s and tau
    from it."""
    live = set(cylinder.simplices)
    cofaces = {t: set() for t in live}
    for s in live:
        for f in proper_faces(s):
            cofaces[f].add(s)
    while live != target:
        pairs = [(tau, s) for tau in live - target if len(cofaces[tau]) == 1
                 for s in cofaces[tau]
                 if s not in target and len(s) == len(tau) + 1
                 and not cofaces[s]]
        if not pairs:
            raise Incompatible("cylinder does not collapse onto the target")
        tau, s = max(pairs, key=lambda p: (len(p[1]), p[1], p[0]))
        (w,) = set(s) - set(tau)
        yield tau, s, w
        for t in (s, tau):
            live.discard(t)
            for f in proper_faces(t):
                cofaces[f].discard(t)


@pytest.mark.parametrize("name,rounds", [("disk", 0), ("disk", 1),
                                         ("disk", 2), ("cube2", 0),
                                         ("cube2", 1)],
                         ids=["disk", "disk-1", "disk-2", "cube2",
                              "cube2-1"])
def test_one_up_cofaces_give_the_all_dimension_sequence(corpus, name,
                                                        rounds):
    """The cylinder over the r-th subdivision onto its boundary wall and
    bottom: the collapse sequence from one-up cofaces is the one from
    cofaces of every dimension."""
    K, subs = corpus[name]
    w = sd.iterated_subdivision(K, rounds)
    P = cy.prism_triangulate(w.fine)
    members = [t for t in w.fine.simplices
               if w.carrier[t] in subs["boundary"].members]
    target = P.over(members) | P.bottom_members()
    steps = list(cy._collapses(P.cylinder, target))
    assert steps and steps == list(all_cofaces_collapses(P.cylinder, target))


def test_collapse_sequence_of_disk_r2_is_pinned(corpus):
    """sha256 of the repr of the collapse sequence of the cylinder over
    disk r=2 onto its boundary wall and its bottom."""
    K, subs = corpus["disk"]
    w = sd.iterated_subdivision(K, 2)
    P = cy.prism_triangulate(w.fine)
    members = [t for t in w.fine.simplices
               if w.carrier[t] in subs["boundary"].members]
    steps = list(cy._collapses(P.cylinder,
                               P.over(members) | P.bottom_members()))
    assert (len(P.cylinder.simplices), len(steps)) == (627, 217)
    assert hashlib.sha256(repr(steps).encode()).hexdigest() == (
        "21cbb9ada4f06cc1b0ae96d2bb8cb3dca2e13a765c68df740d59ecc13813aae2")
