"""Piecewise-linear maps, simplicial approximation, and certified
homotopies.

A PLMap is stored as a subdivision of its domain together with exact image
points for the fine vertices and, per fine simplex, a closed codomain
simplex containing the image of its closure.  A homotopy between two such
maps is certified per simplex: if both images of a simplex closure lie in
one closed codomain simplex, the straight-line segment between them stays
inside the polyhedron by convexity.  Certificates carry these witnesses so
they can be re-verified independently of how they were produced.

The pipelines evaluate through the witnesses in hand, never by searching a
complex: `PLMap.evaluate_in` takes a fine simplex whose closure holds the
point.  Every containment question, a producer's minimal carrier inside a
known one as much as a verifier's proof or `PLMap._check`, is one rule:
the support of barycentric rows that one `complexes.WeightRows` computes
once per (named image point, carrier); `map_rows` names the images of
several maps apart.
`PLMap.evaluate`, for a point with no witness, locates it in the small
coarse complex of the domain subdivision and tests only the fine simplices
that coarse simplex carries (`SubdivisionWitness.locate_piece`), never
every fine simplex.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from . import linalg, subdivision
from .complexes import (Complex, SubcomplexRef, Simplex, WeightRows,
                        simplex, sname)
from .errors import (CarrierClash, FixedSetMismatch, Incompatible,
                     NotClosed, NotSimplicial, NotSubcomplex,
                     PointOutsidePolyhedron, RoundsExhausted, ValueOutOfRange)
from .subdivision import (SubdivisionWitness, barycentric_subdivide,
                          identity_witness)


def minimal_carrier(L: Complex, points) -> Simplex | None:
    """Smallest closed simplex of L containing all the points, or None."""
    for s in L.canonical_order():
        if all(L.point_in_closure(s, p) for p in points):
            return s
    return None


def carrier_face(L: Complex, sigma: Simplex, points) -> Simplex | None:
    """Smallest face of closed sigma containing the points, or None if one
    lies outside it; the unique minimal closed carrier.  Kept for callers
    outside the package with raw points in hand; the package's own paths
    ask `WeightRows.support` of named images (`map_rows`)."""
    return L.support(sigma, points)


def closed_coords(K: Complex, t: Simplex, x) -> list[Fraction]:
    """Barycentric coordinates of a point x of the closed simplex t of K."""
    coords = K.frame(t).coords(x)
    if coords is None or min(coords) < 0:
        raise PointOutsidePolyhedron(f"point {x} is not in closed {sname(t)}")
    return coords


class PLMap:
    """PL map |K| -> |L| with exact per-simplex carrier witnesses."""

    def __init__(self, domain: Complex, codomain: Complex,
                 dom_subdivision: SubdivisionWitness, vertex_image: dict,
                 target_carrier: dict[Simplex, Simplex], check: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.dom_subdivision = dom_subdivision
        self.vertex_image = {v: linalg.vec(p) for v, p in vertex_image.items()}
        self.target_carrier = {tuple(k): tuple(v)
                               for k, v in target_carrier.items()}
        if check:
            self._check()

    @property
    def fine(self) -> Complex:
        return self.dom_subdivision.fine

    @property
    def witness(self) -> SubdivisionWitness:
        """`dom_subdivision`, by the name of a homeomorphism's witness."""
        return self.dom_subdivision

    def _check(self):
        """Every fine simplex has a target carrier in the closed codomain,
        and the image of each of its vertices lies in that closed carrier.

        An image equal, as an exact tuple, to a vertex of the carrier is a
        point of the closed carrier, so vertex equality proves it with no
        frame: a simplicial map builds no codomain frame.  Any other image
        is proved by the support of its `WeightRows` row, once per
        (carrier, vertex) pair.  A missing carrier or image is a
        CarrierClash naming it."""
        L = self.codomain
        if not L.is_closed():
            raise NotClosed("codomain must be closed")
        proved = set()   # (carrier, vertex) pairs, each checked once
        rows = WeightRows(L, self.vertex_image)
        for t in sorted(self.fine.simplices):
            c = self.target_carrier.get(t)
            if c is None or c not in L.simplices:
                raise CarrierClash(f"no target carrier for {sname(t)}")
            for v in t:
                if (c, v) in proved:
                    continue
                y = self.vertex_image.get(v)
                if y is None:
                    raise CarrierClash(f"no image for vertex {v}")
                if not (any(L.vertices[u] == y for u in c)
                        or rows.support((v,), c) is not None):
                    raise CarrierClash(
                        f"image of vertex {v} outside carrier {sname(c)}")
                proved.add((c, v))

    def image_points(self, t: Simplex):
        return [self.vertex_image[v] for v in t]

    def missing_image(self) -> str | None:
        """The least vertex of a fine simplex with no image, or None.  Only
        an unchecked map (`check=False`, `subdivision.PLHomeo`) has one."""
        missing = self.fine.vertices.keys() - self.vertex_image.keys()
        if missing:
            missing &= self.fine.used_vertices()
        return min(missing, default=None)

    def evaluate(self, x):
        """Value at a point x of the domain, read on the fine simplex that
        `SubdivisionWitness.locate_piece` finds."""
        x = linalg.vec(x)
        return self.evaluate_in(self.dom_subdivision.locate_piece(x), x)

    def evaluate_in(self, t: Simplex, x):
        """Value at a point x of the closed fine simplex t."""
        return linalg.vcomb(closed_coords(self.fine, t, x),
                            self.image_points(t))

    def simplicial_vertex_map(self) -> dict | None:
        """Vertex-to-vertex map if the map is simplicial, else None."""
        coord_to_vertex = {self.codomain.vertices[v]: v
                           for v in self.codomain.vertex_ids()}
        vmap = {}
        for v in sorted(self.fine.used_vertices()):
            w = coord_to_vertex.get(self.vertex_image[v])
            if w is None:
                return None
            vmap[v] = w
        for t in self.fine.simplices:
            img = simplex(set(vmap[v] for v in t))
            if img not in self.codomain.simplices:
                return None
        return vmap

    def is_simplicial(self) -> bool:
        return self.simplicial_vertex_map() is not None


def identity_map_on(w: SubdivisionWitness) -> PLMap:
    verts = {v: w.fine.vertices[v] for v in w.fine.used_vertices()}
    return PLMap(w.coarse, w.coarse, w, verts, dict(w.carrier))


def identity_map(K: Complex) -> PLMap:
    return identity_map_on(identity_witness(K))


def constant_map(K: Complex, L: Complex, point) -> PLMap:
    point = linalg.vec(point)
    c, _ = L.locate(point)
    w = identity_witness(K)
    verts = dict.fromkeys(K.used_vertices(), point)
    return PLMap(K, L, w, verts, {s: c for s in K.simplices})


def simplicial_map(K: Complex, L: Complex, vmap: dict[str, str]) -> PLMap:
    """Affine extension of a vertex-to-vertex assignment."""
    w = identity_witness(K)
    return simplicial_map_on(w, L, vmap)


def simplicial_map_on(w: SubdivisionWitness, L: Complex,
                      vmap: dict[str, str]) -> PLMap:
    """Affine extension of vmap on w.fine.  Each image is a vertex of its
    carrier, so the loop proves all `PLMap._check` would but a closed L."""
    used = sorted(w.fine.used_vertices())
    missing = [v for v in used if v not in vmap]
    if missing:
        raise NotSimplicial(f"no image for vertex {missing[0]}")
    carrier = {}
    for t in sorted(w.fine.simplices):
        img = simplex(set(vmap[v] for v in t))
        if img not in L.simplices:
            raise NotSimplicial(
                f"image {sname(img)} of {sname(t)} is not a simplex")
        carrier[t] = img
    if not L.is_closed():
        raise NotClosed("codomain must be closed")
    verts = {v: L.vertices[vmap[v]] for v in used}
    return PLMap(w.coarse, L, w, verts, carrier, check=False)


def subdivide_map(f: PLMap) -> PLMap:
    """Same map on the once-more barycentrically subdivided domain.  A new
    vertex is the barycenter of its carrier, so its image is the average
    of that simplex's vertex images.

    Each new piece t gets the minimal face of its parent carrier, as
    `carrier_face` finds it on t's images, read once per old fine simplex
    s = `step.carrier[t]` from s's own images: one `WeightRows` row per
    (parent carrier, old vertex) pair.  Precondition: every image lies in
    its closed carrier, as `PLMap._check` proves.  Then the face is the
    same.  t is the chain of barycenters of faces of s topped by s, and a
    barycentric row is affine in the point, so the row of a centroid is
    the average of its constituents' rows.  On nonnegative rows the
    positive entries of an average are the union of theirs; t's top vertex
    averages all of s's images, and every other vertex of t averages some
    of them, so support(t) = support(s).  A parent carrier that does not
    hold s's images (an unchecked map) is kept as every piece's carrier."""
    step = barycentric_subdivide(f.fine)
    w = f.dom_subdivision.compose(step)
    verts = {}
    for t, s in step.carrier.items():
        if len(t) == 1:
            verts[t[0]] = linalg.centroid(f.image_points(s))
    rows = WeightRows(f.codomain, f.vertex_image)
    face = {}
    for s in f.fine.simplices:
        parent = f.target_carrier[s]
        c = rows.support(s, parent)
        face[s] = c if c is not None else parent
    carrier = {t: face[s] for t, s in step.carrier.items()}
    return PLMap(f.domain, f.codomain, w, verts, carrier, check=False)


def map_rows(L: Complex, *maps: PLMap) -> WeightRows:
    """One `WeightRows` of L over the vertex images of the maps, the image
    of vertex v under maps[i] named (i, v), as `verify_certificate` names
    the images of a step's two maps."""
    return WeightRows(L, {(i, v): y for i, h in enumerate(maps)
                          for v, y in h.vertex_image.items()})


def incident_simplices(K: Complex) -> dict[str, list[Simplex]]:
    """Vertex -> the simplices of K containing it, in one pass over K."""
    incident = defaultdict(list)
    for t in K.simplices:
        for v in t:
            incident[v].append(t)
    return incident


def check_star_condition(f: PLMap, v: str,
                         incident: list[Simplex]) -> str | None:
    """A codomain vertex w whose closed star absorbs the image of the open
    star of fine vertex v, tested carrier-wise; prefers w = f(v) when f(v)
    is itself a vertex.  `incident` lists the fine simplices containing v,
    as `incident_simplices` indexes them."""
    candidates = None
    for t in incident:
        verts = set(f.target_carrier[t])
        candidates = verts if candidates is None else candidates & verts
    if not candidates:
        return None
    fv = f.vertex_image[v]
    for w in sorted(candidates):
        if f.codomain.vertices[w] == fv:
            return w
    return min(candidates)


def simplicial_approximation(f: PLMap, max_rounds: int = 8):
    """(g, certificate): simplicial g homotopic to f by one straight-line
    step, found by iterated barycentric subdivision of the domain."""
    if max_rounds < 0:
        raise ValueOutOfRange(f"negative round count {max_rounds}")
    cur = f
    for _ in range(max_rounds + 1):
        assignment = {}
        failing = []
        incident = incident_simplices(cur.fine)
        for v in cur.fine.vertex_ids():
            w = check_star_condition(cur, v, incident[v])
            if w is None:
                failing.append(v)
            else:
                assignment[v] = w
        if not failing:
            g = simplicial_map_on(cur.dom_subdivision, cur.codomain, assignment)
            fixed = cur.domain.subcomplex(())
            step = HomotopyStep(cur, g, identity_witness(cur.fine),
                                dict(cur.target_carrier))
            return g, HomotopyCertificate([step], fixed)
        cur = subdivide_map(cur)
    raise RoundsExhausted(
        f"no simplicial approximation within {max_rounds} rounds",
        failing)


# ---------------------------------------------------------------------------
# Homotopy certificates
# ---------------------------------------------------------------------------

def moved_vertices(f: PLMap, g: PLMap, simplices) -> list[str]:
    """Sorted vertices of `simplices` where g's image differs from f's,
    a missing image differing from any image: empty exactly when the two
    maps agree over them.
    Precondition: f.fine == g.fine, coordinates included, as vertices are
    matched by name."""
    return sorted(v for v in {v for t in simplices for v in t}
                  if g.vertex_image.get(v) != f.vertex_image.get(v))


def unit_time(s) -> Fraction:
    s = linalg.frac(s)
    if not 0 <= s <= 1:
        raise ValueOutOfRange(f"homotopy time {s} outside [0, 1]")
    return s


class HomotopyStep:
    """One straight-line homotopy (1-s)*frm + s*to with per-simplex
    common-carrier witnesses over a refinement of the shared domain."""

    def __init__(self, frm: PLMap, to: PLMap,
                 refinement: SubdivisionWitness,
                 carriers: dict[Simplex, Simplex]):
        self.frm = frm
        self.to = to
        self.refinement = refinement
        self.carriers = {tuple(k): tuple(v) for k, v in carriers.items()}

    def evaluate(self, x, s: Fraction):
        s = unit_time(s)
        a = self.frm.evaluate(x)
        b = self.to.evaluate(x)
        return tuple((1 - s) * p + s * q for p, q in zip(a, b))


class HomotopyCertificate:
    def __init__(self, steps, fixed_set: SubcomplexRef):
        self.steps = list(steps)
        self.fixed_set = fixed_set

    @property
    def initial(self) -> PLMap:
        return self.steps[0].frm

    @property
    def final(self) -> PLMap:
        return self.steps[-1].to

    def evaluate(self, x, s: Fraction):
        """Evaluate the concatenated homotopy, steps in equal time shares."""
        s = unit_time(s)
        n = len(self.steps)
        k = min(int(s * n), n - 1)
        return self.steps[k].evaluate(x, s * n - k)


def verify_certificate(cert: HomotopyCertificate):
    """Independent re-check of every witness in a certificate.

    Returns (ok, problems).  A certificate needs a step.  A step whose map
    lacks the image of a fine vertex gets one problem per such map, naming
    its least such vertex, and no other check.  Checks per step: a
    shared closed codomain (so closed carriers lie in the polyhedron),
    both maps live on a genuine subdivision of the domain, the refinement
    covers the shared fine domain, each refinement simplex has a common
    closed carrier containing both images of its closure, consecutive steps
    chain, and every step is constant on the fixed set.  Images are
    evaluated through the proved refinement carriers, never by searching
    the domain.

    The image check runs after `verify_subdivision` has proved both
    domain subdivisions and the refinement, so each refinement simplex
    lies in its host (refinement carrier), where both maps are affine.  A
    refinement vertex at the point of a host vertex u takes u's images,
    unevaluated; it is matched by point equality against the at most d+1
    host vertices, never by name, so a relabelled refinement reads no
    other vertex's image, and an identity refinement evaluates nothing.
    Any other vertex is evaluated once per (vertex, host) by
    `closed_coords`.  Both images are proved in the closed carrier through
    one `WeightRows` of the codomain, and a failure is reported for every
    refinement simplex and vertex it concerns.

    Consecutive steps chain when the maps between them share their fine
    complex, coordinates included, and agree at every vertex
    (`moved_vertices`, one problem per moved vertex in vertex order); the
    fixed set the same way, named by vertices, so only as a subcomplex of
    each step's domain (an equal copy will do).  A certificate from
    `certio.cert_from_obj` shares one Complex between identical block
    lines, so those fine complexes compare by identity; a block spelled
    differently is its own Complex and compares equal by value.
    """
    if not cert.steps:
        return False, [(0, None, "certificate has no steps")]
    problems = []
    proved = {}   # domain subdivision -> its violations, checked once

    def domain_violations(w):
        key = (w.coarse, w.fine, frozenset(w.carrier.items()))
        if key not in proved:
            proved[key] = subdivision.verify_subdivision(w)[1]
        return proved[key]

    for i, step in enumerate(cert.steps):
        f, g = step.frm, step.to
        ref = step.refinement
        lost = [(i, (v,), f"{side} map has no image of vertex {v}")
                for side, v in (("from", f.missing_image()),
                                ("to", g.missing_image()))
                if v is not None]
        if lost:
            problems += lost
            continue
        if f.codomain != g.codomain:
            problems.append((i, None, "codomain mismatch"))
            continue
        if not f.codomain.is_closed():
            problems.append((i, None, "codomain is not closed"))
            continue
        if f.fine != g.fine:
            problems.append((i, None, "domain subdivision mismatch"))
            continue
        viol = (domain_violations(f.dom_subdivision)
                or domain_violations(g.dom_subdivision))
        if viol:
            problems.append((i, None, f"bad domain subdivision: {viol[:3]}"))
            continue
        if ref.coarse != f.fine:
            problems.append((i, None, "refinement base mismatch"))
            continue
        ok_sub, viol = subdivision.verify_subdivision(ref)
        if not ok_sub:
            problems.append((i, None, f"bad refinement: {viol[:3]}"))
            continue
        L, hosts = f.codomain, ref.coarse
        image = {}   # (0 for f or 1 for g, name) -> image point
        rows = WeightRows(L, image)
        for t in sorted(ref.fine.simplices):
            c = step.carriers.get(t)
            if c is None or c not in L.simplices:
                problems.append((i, t, "missing carrier"))
                continue
            host = ref.carrier[t]
            for v in t:
                x = ref.fine.vertices[v]
                u = next((u for u in host if hosts.vertices[u] == x), None)
                name = (v, host) if u is None else u
                if (0, name) not in image:
                    if u is None:
                        coords = closed_coords(hosts, host, x)
                        ys = [linalg.vcomb(coords, h.image_points(host))
                              for h in (f, g)]
                    else:
                        ys = [h.vertex_image[u] for h in (f, g)]
                    image[0, name], image[1, name] = ys
                if rows.support([(0, name), (1, name)], c) is None:
                    problems.append((i, t, "image outside carrier"))
        if i > 0:
            prev = cert.steps[i - 1].to
            if prev.fine != f.fine:
                problems.append((i, None, "steps do not chain"))
            else:
                problems += [(i, (v,), "steps disagree") for v in
                             moved_vertices(prev, f, f.fine.simplices)]
        if f.dom_subdivision.coarse != cert.fixed_set.parent:
            problems.append((i, None, "fixed set is not on the domain"))
            continue
        fixed = restrict_members(f.dom_subdivision, cert.fixed_set.members)
        problems += [(i, (v,), "not constant on fixed set")
                     for v in moved_vertices(f, g, fixed)]
    return (not problems), problems


def straight_line_homotopy(f: PLMap, g: PLMap,
                           fixed: SubcomplexRef | None = None) -> HomotopyCertificate:
    """Certificate for (1-s)f + sg; the two maps must share their domain
    subdivision (build both against a common refinement first)."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise Incompatible("maps must share domain and codomain")
    if f.fine != g.fine:
        raise Incompatible("maps must share their domain subdivision")
    L = f.codomain
    rows = map_rows(L, f, g)
    carriers = {}
    for t in sorted(f.fine.simplices):
        faces = [rows.support([(i, v) for v in t], h.target_carrier[t])
                 for i, h in enumerate((f, g))]
        c = None if None in faces else simplex(set(faces[0]) | set(faces[1]))
        if c not in L.simplices:
            raise CarrierClash(
                f"no common carrier for images of {sname(t)}")
        carriers[t] = c
    if fixed is None:
        fixed = f.domain.subcomplex(())
    moved = moved_vertices(f, g, restrict_members(f.dom_subdivision,
                                                  fixed.members))
    if moved:
        raise FixedSetMismatch(f"maps differ at {moved[0]} on the fixed set")
    step = HomotopyStep(f, g, identity_witness(f.fine), carriers)
    return HomotopyCertificate([step], fixed)


# ---------------------------------------------------------------------------
# The rel-subcomplex pipeline
# ---------------------------------------------------------------------------

def restrict_members(w: SubdivisionWitness, coarse_members) -> frozenset:
    """Fine simplices lying over a set of coarse simplices."""
    coarse_members = frozenset(tuple(s) for s in coarse_members)
    return frozenset(t for t in w.fine.simplices
                     if w.carrier[t] in coarse_members)


def simplicialize_rel(f: PLMap, K_C: SubcomplexRef | None,
                      max_rounds: int = 8):
    """Deform f to a map simplicial outside a barrier around |K_C| while
    keeping it fixed on |K_C| exactly.

    Build: subdivide the domain once (making the fine copy of K_C full),
    run simplicial approximation to get mu, blend base (f on the final
    fine complex) with mu across the barrier K_E = closed star of K_C
    there, and certify f -> result (and -> mu when mu already agrees on
    |K_C|), all constant on |K_C|.

    The blend is the 0/1 Urysohn function of the fine copy C of K_C:
    result takes base's image at the vertices of C and mu's at every other
    vertex, affinely on each fine simplex.  C is closed (a copy of closed
    K_C in a fine complex that `barycentric_subdivide` requires closed),
    and a derived subdivision makes it full (Rourke and Sanderson, 1972):
    a fine simplex whose vertices all lie in C belongs to C, so the
    function vanishes exactly on |C| = |K_C|.  result is base there and mu
    on every fine simplex that misses C; a simplex where it is neither
    meets C, so lies in K_E.  Every result image is base's or mu's, so a
    step's common carrier over t is the support of base's and mu's images
    of t in t's result carrier, read from one `map_rows` of the two maps.
    """
    if K_C is None or len(K_C.members) == 0:
        g, cert = simplicial_approximation(f, max_rounds)
        return g, cert
    if K_C.parent != f.domain:
        raise NotSubcomplex("K_C must be a subcomplex of the domain")
    if not K_C.is_closed():
        raise NotSubcomplex("K_C must be closed")

    f1 = subdivide_map(f)
    mu, cert_mu = simplicial_approximation(f1, max_rounds)
    base = cert_mu.steps[-1].frm          # f on the final subdivision
    fine = base.fine
    cfine = restrict_members(base.dom_subdivision, K_C.members)

    # blend (1 - lam) * base + lam * mu, lam 0 on the vertices of cfine and
    # 1 elsewhere: every blended vertex is a vertex image of base or of mu,
    # so the step-carrier loop below, which finds base's and mu's images of
    # each t in its closed carrier, is the proof that PLMap._check would
    # repeat
    verts = dict(mu.vertex_image)
    verts.update((v, base.vertex_image[v]) for t in cfine for v in t)
    L = f.codomain
    result = PLMap(f.domain, L, base.dom_subdivision, verts,
                   base.target_carrier, check=False)

    rows = map_rows(L, base, mu)
    step_carriers = {}
    for t in fine.simplices:
        c = rows.support([(i, v) for i in (0, 1) for v in t],
                         result.target_carrier[t])
        if c is None:
            raise CarrierClash(f"no common carrier over {sname(t)}")
        step_carriers[t] = c
    steps = [HomotopyStep(base, result, identity_witness(fine),
                          dict(step_carriers))]
    if not moved_vertices(result, mu, cfine):
        steps.append(HomotopyStep(result, mu, identity_witness(fine),
                                  dict(step_carriers)))
    fixed = f.domain.subcomplex(K_C.members)
    return result, HomotopyCertificate(steps, fixed)
