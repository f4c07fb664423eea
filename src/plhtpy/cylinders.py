"""Cylinders |K| x [0,1]: staircase triangulation, PL retraction onto
(|K_A| x I) u (|K| x {0}), and the homotopy extension operator.

The retraction is built as a composition of elementary collapse
retractions: each collapse of a free face pair (tau, s) is a simplicial map
on the stellar subdivision at the barycenter of tau (the new vertex goes to
the vertex of s opposite tau, everything else stays).  The composite stays
an exact PLMap: before each collapse the current map's domain is refined so
every piece lands in a single linearity region of the collapse map.  Note
that the naive central projection from a point above the prism is
projective, not piecewise-linear, so it cannot be represented (or
certified) in this exact framework; the collapse route computes a PL
retraction with the same contract.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .complexes import (Complex, SubcomplexRef, Simplex, WeightRows,
                        faces_with_self, facets, sdim, simplex)
from .errors import Incompatible, NotClosed, NotSubcomplex
from .linalg import vcomb
from .plmaps import PLMap, simplicial_map
from .subdivision import SubdivisionWitness, identity_witness

F0 = Fraction(0)
F1 = Fraction(1)


def lift(v: str, level: int) -> str:
    return f"{v}~{level}"

def unlift(v: str) -> tuple[str, int]:
    base, _, lv = v.rpartition("~")
    return base, int(lv)


class PrismComplex:
    """Staircase triangulation of |K| x [0,1]."""

    def __init__(self, base: Complex, cylinder: Complex,
                 projection: dict[Simplex, Simplex]):
        self.base = base
        self.cylinder = cylinder
        self.projection = projection

    def bottom_members(self) -> frozenset:
        return frozenset(s for s in self.cylinder.simplices
                         if all(unlift(v)[1] == 0 for v in s))

    def over(self, base_members) -> frozenset:
        base_members = frozenset(tuple(s) for s in base_members)
        return frozenset(s for s in self.cylinder.simplices
                         if self.projection[s] in base_members)


def prism_triangulate(K: Complex) -> PrismComplex:
    """Each closed n-simplex prism splits into n+1 staircase simplices
    [w_0^0..w_i^0, w_i^1..w_n^1] using the global vertex order; shared
    faces agree across neighboring prisms."""
    if not K.is_closed():
        raise NotClosed("prisms require a closed base")
    verts: dict[str, tuple] = {}
    for v in K.used_vertices():
        p = K.vertices[v]
        verts[lift(v, 0)] = tuple(p) + (F0,)
        verts[lift(v, 1)] = tuple(p) + (F1,)
    sims: set[Simplex] = set()
    for s in sorted(K.simplices):
        n = sdim(s)
        for i in range(n + 1):
            top = tuple(lift(v, 0) for v in s[:i + 1]) + \
                  tuple(lift(v, 1) for v in s[i:])
            sims.update(faces_with_self(simplex(top)))
    cylinder = Complex(K.ambient_dim + 1, verts, sims)
    projection = {t: simplex({unlift(v)[0] for v in t})
                  for t in cylinder.simplices}
    return PrismComplex(K, cylinder, projection)


class CylinderRetraction:
    def __init__(self, prism: PrismComplex, target: SubcomplexRef,
                 map_: PLMap):
        self.prism = prism
        self.target = target
        self.map = map_


def _point_name(p) -> str:
    enc = "_".join(str(q).replace("-", "m").replace("/", "d") for q in p)
    return f"cut_{enc}"


class _Composite:
    """Mutable state of the composite retraction while collapsing.

    `simplices` is the current fine complex, `domcar` the cylinder simplex
    carrying each fine simplex (the subdivision witness), `image` the
    composite's vertex images and `carrier` the live-complex simplex whose
    closure holds each fine simplex's image; `rows` reads `image` in the
    cylinder's frames, one `WeightRows` per collapse.  `by_vertex[v]` (the
    fine simplices containing v) and `by_carrier[c]` (the fine simplices
    carried by c) always match `simplices` and `carrier`, so a cut or a
    collapse touches only the simplices it changes.
    """

    def __init__(self, cylinder: Complex):
        self.cylinder = cylinder
        self.verts = dict(cylinder.vertices)      # domain coordinates
        self.simplices: set[Simplex] = set()      # current fine complex
        self.domcar: dict[Simplex, Simplex] = {}
        self.image = {v: cylinder.vertices[v]
                      for v in cylinder.used_vertices()}
        self.carrier: dict[Simplex, Simplex] = {}  # in live complex
        self.by_vertex: dict[str, set[Simplex]] = defaultdict(set)
        self.by_carrier: dict[Simplex, set[Simplex]] = defaultdict(set)
        self.rows = WeightRows(cylinder, self.image)
        for s in cylinder.simplices:
            self._add(s, s, s)

    def _add(self, t: Simplex, dc: Simplex, rc: Simplex):
        self.simplices.add(t)
        self.domcar[t] = dc
        self.carrier[t] = rc
        for x in t:
            self.by_vertex[x].add(t)
        self.by_carrier[rc].add(t)

    def _remove(self, t: Simplex) -> tuple[Simplex, Simplex]:
        self.simplices.discard(t)
        for x in t:
            self.by_vertex[x].discard(t)
        rc = self.carrier.pop(t)
        self.by_carrier[rc].discard(t)
        return self.domcar.pop(t), rc

    def split_edge(self, u: str, v: str, lam: Fraction) -> list[Simplex]:
        """Stellar subdivision at the point (1 - lam) u + lam v of the open
        edge (u, v); returns the simplices it creates."""
        z = vcomb((1 - lam, lam), (self.verts[u], self.verts[v]))
        z_name = _point_name(z)
        if z_name in self.verts:
            raise Incompatible("vertex name collision while cutting")
        self.verts[z_name] = z
        self.image[z_name] = vcomb((1 - lam, lam),
                                   (self.image[u], self.image[v]))
        # every child contains the new vertex, so none of them exists yet
        created = []
        for t in self.by_vertex[u] & self.by_vertex[v]:
            dc, rc = self._remove(t)
            rest = tuple(x for x in t if x not in (u, v))
            for child in (simplex(rest + (u, z_name)),
                          simplex(rest + (v, z_name)),
                          simplex(rest + (z_name,))):
                self._add(child, dc, rc)
                created.append(child)
        return created

    def cut_region(self, c: Simplex, tau: Simplex):
        """Refine simplices carried by c until each is sign-pure for every
        difference of barycentric coordinates over the tau vertices.

        Per pair the mixed simplices wait in a heap and the smallest live
        one is cut first, as a rescan of the sorted complex would find it:
        a simplex is mixed by its vertices' values alone, and the only new
        mixed simplices are children of a cut."""
        idx = [c.index(u) for u in tau]
        pairs = [(i, j) for i in idx for j in idx if i < j]
        for (i, j) in pairs:
            vals: dict[str, tuple[int, int]] = {}
            signs: dict[str, int] = {}

            def mixed(t):
                """(x, y): the first vertices of t with value > 0 and
                < 0, or None when t is sign-pure."""
                sg = []
                for v in t:
                    if v not in signs:
                        w, q = self.rows.weights(v, c)
                        d = w[i] - w[j]
                        vals[v] = d, q
                        signs[v] = (d > 0) - (d < 0)
                    sg.append(signs[v])
                if 1 in sg and -1 in sg:
                    return t[sg.index(1)], t[sg.index(-1)]
                return None

            heap = [t for t in self.by_carrier[c] if mixed(t)]
            heapify(heap)
            while heap:
                t = heappop(heap)
                if t not in self.simplices:
                    continue
                x, y = mixed(t)
                (dx, qx), (dy, qy) = vals[x], vals[y]
                # zero of the affine functional: dx/qx / (dx/qx - dy/qy)
                lam = Fraction(dx * qy, dx * qy - dy * qx)
                for child in self.split_edge(x, y, lam):
                    if self.carrier[child] == c and mixed(child):
                        heappush(heap, child)

    def apply_collapse(self, tau: Simplex, s: Simplex, tau_hat_target: str):
        """Compose with the collapse retraction removing (tau, s); the
        stellar vertex at the barycenter of tau maps to `tau_hat_target`
        (the vertex of s opposite tau)."""
        w = tau_hat_target
        for c in (s, tau):
            self.cut_region(c, tau)
        m = len(tau)
        new_image: dict[str, tuple] = {}
        new_carrier: dict[Simplex, Simplex] = {}
        lowest: dict[tuple[Simplex, str], set[str]] = {}
        moved: dict[tuple[Simplex, str, str], tuple] = {}

        def lowest_at(c, v):
            """The tau vertices of least barycentric coordinate at v."""
            if (c, v) not in lowest:
                b = self.rows.weights(v, c)[0]
                least = min(b[c.index(u)] for u in tau)
                lowest[c, v] = {u for u in tau if b[c.index(u)] == least}
            return lowest[c, v]

        def collapse_image(c, u_min, v):
            b, q = self.rows.weights(v, c)
            au = b[c.index(u_min)]
            rest = [u for u in tau if u != u_min]
            wcoef = m * au + (b[c.index(w)] if w in c else 0)
            return vcomb([Fraction(b[c.index(u)] - au, q) for u in rest]
                         + [Fraction(wcoef, q)],
                         self.cylinder.points(rest + [w]))

        for t in sorted(self.by_carrier[s] | self.by_carrier[tau]):
            c = self.carrier[t]
            # common minimal tau-coordinate over all vertices (sign-pure)
            u_min = next(u for u in tau
                         if all(u in lowest_at(c, v) for v in t))
            for v in t:
                if (c, u_min, v) not in moved:
                    moved[c, u_min, v] = collapse_image(c, u_min, v)
                new_image[v] = moved[c, u_min, v]
            new_carrier[t] = simplex(set(c) - {u_min} | {w})
        self.image.update(new_image)
        for t, rc in new_carrier.items():
            self.by_carrier[self.carrier[t]].discard(t)
            self.by_carrier[rc].add(t)
        self.carrier.update(new_carrier)
        # `image` of an existing vertex changes only here
        self.rows = WeightRows(self.cylinder, self.image)


def _collapses(cylinder: Complex, target: frozenset):
    """The greedy collapse sequence (tau, s, w) of the cylinder onto the
    target, w the vertex of s opposite tau: each step collapses the
    greatest free pair of `live - target` under (len(s), s, tau).  The
    table of one-up cofaces is built once.  `live` stays closed, so tau
    is free when its one one-up coface s has none, and a collapse drops
    s and tau from the table."""
    live = set(cylinder.simplices)
    cofaces: dict[Simplex, set[Simplex]] = {t: set() for t in live}
    for s in live:
        for f in facets(s):
            cofaces[f].add(s)
    while live != target:
        pairs = [(tau, s) for tau in live - target if len(cofaces[tau]) == 1
                 for s in cofaces[tau]
                 if s not in target and not cofaces[s]]
        if not pairs:
            raise Incompatible("cylinder does not collapse onto the target")
        tau, s = max(pairs, key=lambda p: (len(p[1]), p[1], p[0]))
        (w,) = set(s) - set(tau)
        yield tau, s, w
        for t in (s, tau):
            live.discard(t)
            for f in facets(t):
                cofaces[f].discard(t)


def cylinder_retraction(K: Complex, K_A) -> CylinderRetraction:
    """PL retraction of |K| x I onto (|K_A| x I) u (|K| x {0}), identity on
    the target, built by greedy elementary collapses."""
    members = frozenset(tuple(s) for s in getattr(K_A, "members", K_A or ()))
    if members and not K.subcomplex(members).is_closed():
        raise NotSubcomplex("K_A must be closed")
    P = prism_triangulate(K)
    target = P.over(members) | P.bottom_members()
    tref = P.cylinder.subcomplex(target)

    if not members:
        # vertical projection is simplicial on the staircase complex
        vmap = {v: lift(unlift(v)[0], 0) for v in P.cylinder.vertices}
        return CylinderRetraction(
            P, tref, simplicial_map(P.cylinder, P.cylinder, vmap))

    comp = _Composite(P.cylinder)
    for tau, s, w in _collapses(P.cylinder, target):
        comp.apply_collapse(tau, s, w)

    fine = Complex(P.cylinder.ambient_dim, comp.verts, comp.simplices)
    witness = SubdivisionWitness(fine, P.cylinder, comp.domcar)
    r = PLMap(P.cylinder, P.cylinder, witness, comp.image, comp.carrier)
    return CylinderRetraction(P, tref, r)


def extend_homotopy(f: PLMap, H: PLMap, r: CylinderRetraction) -> PLMap:
    """G = H' o r with H' equal to f on the bottom and H on |K_A| x I.

    f must be affine on the base simplices and H on the prism simplices of
    the |K_A| cylinder (identity domain subdivisions); then H' is affine on
    every target simplex and the composition needs no further refinement.
    A target vertex of H's domain takes H's image and any other f's image
    of its base vertex; a simplex of H's domain takes H's carrier and any
    other f's carrier of its projection.  H' and G are checked PLMaps,
    the safety net for unchecked f and H.
    """
    P = r.prism
    if f.codomain != H.codomain:
        raise Incompatible("f and H must share their codomain")
    if f.fine != f.domain or H.fine != H.domain:
        raise Incompatible("f and H must be given on unsubdivided domains")
    if f.domain != P.base:
        raise Incompatible("f is not a map on the cylinder base")
    if not (H.domain.simplices <= P.cylinder.simplices
            and H.domain == P.cylinder.restrict(H.domain.simplices)):
        raise Incompatible("H is not a map on a subcylinder")
    # H(.,0) = f on |K_A|, vertex-exact; the first mismatch in sorted order
    for s in sorted(H.domain.simplices):
        for v in s:
            base, lv = unlift(v)
            if lv == 0 and H.vertex_image[v] != f.vertex_image[base]:
                raise Incompatible(f"H(.,0) differs from f at {base}")

    Z = f.codomain
    wall = H.domain.used_vertices()
    timgs = {v: H.vertex_image[v] if v in wall
             else f.vertex_image[unlift(v)[0]]
             for t in r.target.members for v in t}
    tcar = {t: H.target_carrier[t] if t in H.domain.simplices
            else f.target_carrier[P.projection[t]]
            for t in r.target.members}
    Tc = r.target.as_complex()
    Hprime = PLMap(Tc, Z, identity_witness(Tc), timgs, tcar)

    rm = r.map
    gimgs = {}
    for s in rm.fine.simplices:
        for v in s:
            if v not in gimgs:
                gimgs[v] = Hprime.evaluate_in(rm.target_carrier[s],
                                              rm.vertex_image[v])
    gcar = {t: tcar[rm.target_carrier[t]] for t in rm.fine.simplices}
    return PLMap(P.cylinder, Z, rm.dom_subdivision, gimgs, gcar)
