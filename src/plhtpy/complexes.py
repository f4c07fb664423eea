"""Geometric simplicial complexes of open simplices over the rationals.

A complex is a finite set of *open* simplices with exact rational vertex
coordinates.  Distinct open simplices must be pairwise disjoint subsets of
ambient space; closedness (all faces present) is a derived predicate, not an
invariant.  Simplices are stored as sorted tuples of vertex identifiers; the
sorted order fixes orientations everywhere downstream.  Walks over a whole
complex go by `canonical_key`.  A Complex is immutable, so it keeps what it
derives from its simplices: that order (`by_dim` and `vertex_ids` slice
it), the simplex names, the used vertices, its closedness, the affine
independence of its simplices, and its chain complex with the Morse
reduction and the homology groups built on it (`homology.chain_complex`).
It keeps what it derives from its coordinates too: the integer point of
each vertex (`integer_point`), by which points are compared, the frame of
each simplex asked (`frame`), and each barycentric answer a frame gave,
per (simplex, integer point) (`weights`), which every `WeightRows` of the
complex reads, so one answer serves every caller that asks it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import lcm
from operator import le, or_
from typing import Iterable, Optional, Sequence

from . import linalg
from .linalg import Vec, vec
from .errors import (
    AffinelyDependent,
    DuplicateSimplex,
    NotSubcomplex,
    OverlappingSimplices,
    PointOutsidePolyhedron,
)

Point = Vec
Simplex = tuple[str, ...]  # sorted vertex identifiers


def simplex(vertices: Iterable[str]) -> Simplex:
    return tuple(sorted(vertices))


def sdim(s: Simplex) -> int:
    return len(s) - 1


def sname(s: Simplex) -> str:
    return "-".join(s)


def proper_faces(s: Simplex):
    """All nonempty proper faces, by vertex subsets."""
    for k in range(1, len(s)):
        yield from combinations(s, k)


def canonical_key(s: Simplex):
    """By dimension, then vertex ids."""
    return len(s), s


def facets(s: Simplex) -> list[Simplex]:
    """The codimension-1 faces; none for a vertex."""
    return [s[:i] + s[i + 1:] for i in range(len(s))] if len(s) > 1 else []


def closed_under_faces(simplices: frozenset) -> bool:
    """Every face of every member is a member.  By induction on
    codimension the facets suffice, and combinations(s, k - 1) are the
    facets of a k-vertex s."""
    return all(f in simplices for s in simplices if len(s) > 1
               for f in combinations(s, len(s) - 1))


def faces_with_self(s: Simplex):
    for k in range(1, len(s) + 1):
        yield from combinations(s, k)


def support_face(s: Simplex, hits) -> Optional[Simplex]:
    """Face of closed s spanned by the positive barycentric weights of the
    points: the face whose interior holds the open hull of the points.
    Each point is its `AffineFrame.weights` answer in the frame of s,
    (numerators, denominator) or None.  None when an answer is None (a
    point off the affine hull of s) or has a negative numerator (a point
    outside closed s).  The denominator is positive, so only the
    numerators' signs are read: on nonnegative numerators, the bitwise or
    of a vertex's numerators is nonzero exactly when one of them is."""
    on = [0] * len(s)
    for hit in hits:
        if hit is None or min(hit[0]) < 0:
            return None
        on = list(map(or_, on, hit[0]))
    return tuple(compress(s, on))


def spanning_tree(adj: dict, start) -> dict:
    """Breadth-first tree of start's component, neighbours visited in
    sorted order: vertex -> parent, the start its own parent, in the order
    the walk reaches them."""
    parent = {start: start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


class WeightRows:
    """Barycentric rows of named points in the closed simplices of K: the
    answer `Complex.weights` keeps for simplex c of K at the integer point
    of name v.  A name v is any hashable key of `point`, a vertex id or a
    caller's own label.  `ints` is the table from each name to its
    integer point, made from `point[v]` when v is first asked; a caller
    that has a name's integer point in hand may enter it there instead.
    The answers live on K, so names with one integer point, and other
    `WeightRows` of K, share each (simplex, point) answer."""

    def __init__(self, K: "Complex", point):
        self.K = K
        self.point = point
        self.ints: dict = {}

    def integer_point(self, v) -> tuple[int, ...]:
        y = self.ints.get(v)
        if y is None:
            y = self.ints[v] = linalg.integer_point(self.point[v])
        return y

    def weights(self, v, c: Simplex):
        return self.K.weights(c, self.integer_point(v))

    def support(self, s, c: Simplex) -> Optional[Simplex]:
        """`support_face` of closed c on the points of the vertices of s."""
        return support_face(c, map(self.weights, s, repeat(c)))


class Complex:
    """Immutable set of open simplices with a shared vertex table."""

    def __init__(self, ambient_dim: int, vertices: dict[str, Point],
                 simplices: Iterable[Simplex]):
        self.ambient_dim = ambient_dim
        self.vertices = dict(vertices)
        self.simplices = frozenset(tuple(s) for s in simplices)
        self._frames: dict[Simplex, linalg.AffineFrame] = {}
        self._ints: dict[str, tuple[int, ...]] = {}
        # (simplex, integer point) -> its frame's weights answer
        self._answers: dict[tuple[Simplex, tuple[int, ...]], tuple | None] = {}
        self._scx: Optional[str] = None   # canonical text, see scx.emit_scx
        # chain complex, its reduction and H_n: see homology.chain_complex
        self._chains = None
        # derived on first use: see canonical_order, simplex_names,
        # used_vertices, is_closed and is_independent
        self._order = self._snames = self._used = self._closed = None
        self._independent = None

    # -- basic queries ------------------------------------------------------

    def points(self, s: Simplex) -> list[Point]:
        return [self.vertices[v] for v in s]

    def integer_point(self, v: str) -> tuple[int, ...]:
        """`linalg.integer_point` of vertex v, made once per complex."""
        y = self._ints.get(v)
        if y is None:
            y = self._ints[v] = linalg.integer_point(self.vertices[v])
        return y

    def frame(self, s: Simplex) -> linalg.AffineFrame:
        """Barycentric frame of s on its vertices' integer points,
        eliminated once per complex."""
        frame = self._frames.get(s)
        if frame is None:
            frame = self._frames[s] = linalg.AffineFrame(
                [self.integer_point(v) for v in s])
        return frame

    def weights(self, s: Simplex, y: tuple[int, ...]):
        """`AffineFrame.weights` of the frame of s at the integer point y,
        asked once per complex and kept next to the frames.  The answer is
        shared: callers read it and never change it."""
        key = (s, y)
        try:
            return self._answers[key]
        except KeyError:
            hit = self._answers[key] = self.frame(s).weights(y)
            return hit

    def dim(self) -> int:
        return max((sdim(s) for s in self.simplices), default=-1)

    def barycenter(self, s: Simplex) -> Point:
        return linalg.centroid(self.points(s))

    def canonical_order(self) -> list[Simplex]:
        """The simplices by `canonical_key`, in two sorts that compare in C."""
        if self._order is None:
            self._order = sorted(sorted(self.simplices), key=len)
        return self._order

    def simplex_names(self) -> list[str]:
        """The `sname` of each simplex of `canonical_order`."""
        if self._snames is None:
            self._snames = list(map(sname, self.canonical_order()))
        return self._snames

    def by_dim(self, d: int) -> list[Simplex]:
        order = self.canonical_order()
        lo, hi = (bisect_left(order, n, key=len) for n in (d + 1, d + 2))
        return order[lo:hi]

    def vertex_ids(self) -> list[str]:
        return [v for (v,) in self.by_dim(0)]

    def used_vertices(self) -> frozenset[str]:
        """The vertices of the simplices; the vertex table may hold more."""
        if self._used is None:
            self._used = frozenset(v for s in self.simplices for v in s)
        return self._used

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Complex)
            and self.ambient_dim == other.ambient_dim
            and self.simplices == other.simplices
            and all(v in self.vertices and v in other.vertices
                    and self.vertices[v] == other.vertices[v]
                    for v in self.used_vertices()))

    def __hash__(self):
        return hash((self.ambient_dim, self.simplices))

    # -- closure / closedness ----------------------------------------------

    def closure(self) -> "Complex":
        closed = set()
        for s in self.simplices:
            closed.update(faces_with_self(s))
        return Complex(self.ambient_dim, self.vertices, closed)

    def is_closed(self) -> bool:
        if self._closed is None:
            self._closed = closed_under_faces(self.simplices)
        return self._closed

    def is_independent(self) -> bool:
        """Is every simplex affinely independent?  Faces of independent
        simplices are (Rourke and Sanderson, ch. 2), so only the simplices
        that are no simplex's facet are asked, the maximal ones when K is
        closed: a vertex always is, an edge when the integer points of its
        two vertices differ, and a larger simplex when its kept frame, the
        only frames built, has rows."""
        if self._independent is None:
            facet_of = {f for s in self.simplices if len(s) > 1
                        for f in combinations(s, len(s) - 1)}
            self._independent = not any(
                self.integer_point(s[0]) == self.integer_point(s[1])
                if len(s) == 2
                else len(s) > 2 and self.frame(s).rows is None
                for s in self.canonical_order() if s not in facet_of)
        return self._independent

    # -- point location -----------------------------------------------------

    def try_locate(self, x: Point) -> Optional[tuple[Simplex, tuple[Fraction, ...]]]:
        """Global scan for the open simplex holding x; callers that know a
        closed simplex holding x should use `support` instead."""
        y = linalg.integer_point(x)
        for s in sorted(self.simplices):
            hit = self.frame(s).weights(y)
            if hit is not None and all(a > 0 for a in hit[0]):
                return s, tuple(Fraction(a, hit[1]) for a in hit[0])
        return None

    def locate(self, x: Point) -> tuple[Simplex, tuple[Fraction, ...]]:
        hit = self.try_locate(x)
        if hit is None:
            raise PointOutsidePolyhedron(f"point {x} is not in the polyhedron")
        return hit

    def support(self, s: Simplex, points) -> Optional[Simplex]:
        """Face of closed s whose interior holds the open hull of the
        points, or None if a point lies outside closed s."""
        weights = self.frame(s).weights
        return support_face(s, (weights(linalg.integer_point(p))
                                for p in points))

    def point_in_closure(self, s: Simplex, x: Point) -> bool:
        return self.support(s, [x]) is not None

    # -- star / core / skeleton --------------------------------------------

    def star(self, target) -> "SubcomplexRef":
        """Simplices whose closure meets the target: a SubcomplexRef with
        members in this complex, or an iterable of Points.

        Precondition: the open simplices are pairwise disjoint, as
        `validate` checks.  Then closed s meets an open member t exactly
        when t is a face of s or a face of s missing from K, which only a
        simplex outside `core` has, meets t.  So members are found by
        vertex sets; the exact LP asks closed s against open t only for s
        outside the core.  Points are read from barycentric supports.
        """
        if isinstance(target, SubcomplexRef):
            members = target.members
            if not members <= self.simplices:
                raise NotSubcomplex("not simplices of this complex: "
                                    f"{sorted(members - self.simplices)}")
            first: dict[str, list[frozenset]] = {}
            for t in members:
                first.setdefault(t[0], []).append(frozenset(t))
            outside = (frozenset() if self.is_closed()
                       else self.simplices - self.core().members)
            hit = {s for s in self.simplices
                   if any(t.issubset(s) for v in s for t in first.get(v, ()))
                   or s in outside and any(linalg.convex_positions_intersect(
                       self.points(s), self.points(t), closed_a=True)
                       for t in sorted(members))}
        else:
            hit = set()
            for x in target:
                p = vec(x)
                y = linalg.integer_point(p)
                support = {
                    s: support_face(s, [self.frame(s).weights(y)])
                    for s in self.simplices}
                if all(f != s for s, f in support.items()):
                    raise PointOutsidePolyhedron(
                        f"point {p} is not in the polyhedron")
                hit.update(s for s, f in support.items() if f is not None)
        return SubcomplexRef(self, hit)

    def closed_star(self, target) -> "SubcomplexRef":
        """`star` with its members' faces in K: the simplices of K whose
        vertex set lies in a star member, found by their first vertex."""
        by_vertex: dict[str, list[frozenset]] = {}
        for s in map(frozenset, self.star(target).members):
            for v in s:
                by_vertex.setdefault(v, []).append(s)
        return SubcomplexRef(self, (f for f in self.simplices if any(
            s.issuperset(f) for s in by_vertex.get(f[0], ()))))

    def core(self) -> "SubcomplexRef":
        """Maximal subcomplex whose realization is a closed set: the
        simplices with every proper face in K.  A proper face lies in a
        facet, so walked in `canonical_order` a simplex is kept when its
        facets were."""
        kept: set[Simplex] = set()
        for s in self.canonical_order():
            if all(f in kept for f in facets(s)):
                kept.add(s)
        return SubcomplexRef(self, kept)

    def skeleton(self, m: int) -> "SubcomplexRef":
        return SubcomplexRef(self, (s for s in self.simplices if sdim(s) <= m))

    def subcomplex(self, members: Iterable[Simplex]) -> "SubcomplexRef":
        return SubcomplexRef(self, members)

    def restrict(self, members: Iterable[Simplex]) -> "Complex":
        """Stand-alone Complex on a subset of simplices."""
        ms = [tuple(m) for m in members]
        used = {v for s in ms for v in s}
        return Complex(self.ambient_dim,
                       {v: p for v, p in self.vertices.items() if v in used}, ms)


class SubcomplexRef:
    """A subset of a parent complex's simplices."""

    def __init__(self, parent: Complex, members: Iterable[Simplex]):
        self.parent = parent
        self.members = frozenset(tuple(m) for m in members)
        missing = self.members - parent.simplices
        if missing:
            raise NotSubcomplex(f"not simplices of the parent: {sorted(missing)}")

    def as_complex(self) -> Complex:
        return self.parent.restrict(self.members)

    def is_closed(self) -> bool:
        return closed_under_faces(self.members)

    def __contains__(self, s) -> bool:
        return tuple(s) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, SubcomplexRef)
                and self.parent is other.parent and self.members == other.members)

    def __hash__(self):
        return hash(self.members)


def validate(ambient_dim: int, vertex_coords: dict[str, Sequence],
             simplex_list: Sequence[Sequence[str]],
             check_disjoint: bool = True) -> Complex:
    """Build a Complex, checking every structural invariant exactly.

    Raises DuplicateSimplex / AffinelyDependent / OverlappingSimplices with
    the offending simplices named.  Two vertices share coordinates when
    their integer points (`Complex.integer_point`, made here once per
    vertex and kept by the Complex built) are equal.  Affine independence is
    `Complex.is_independent`, read from the simplices that are no
    simplex's facet; only when it fails are the simplices asked one by
    one, in input order, for the first dependent one to name, so accepted
    closed input builds no frame for a face.
    """
    if ambient_dim < 0:
        raise AffinelyDependent(f"ambient dimension {ambient_dim} is negative")
    verts = {v: vec(c) for v, c in vertex_coords.items()}
    for v, p in verts.items():
        if len(p) != ambient_dim:
            raise AffinelyDependent(
                f"vertex {v} has {len(p)} coordinates, ambient dimension is {ambient_dim}")
    table = Complex(ambient_dim, verts, ())     # the vertex table alone
    by_point: dict[tuple[int, ...], str] = {}
    for v in sorted(verts):
        y = table.integer_point(v)
        if y in by_point:
            raise OverlappingSimplices(
                f"vertices {by_point[y]} and {v} share coordinates {verts[v]}")
        by_point[y] = v

    seen: set[Simplex] = set()
    simplices: list[Simplex] = []
    for raw in simplex_list:
        if not raw:
            raise AffinelyDependent("empty simplex: a simplex needs a vertex")
        if len(set(raw)) != len(raw):
            raise AffinelyDependent(f"repeated vertex in simplex {raw}")
        s = simplex(raw)
        if s in seen:
            raise DuplicateSimplex(f"simplex {sname(s)} declared twice")
        seen.add(s)
        for v in s:
            if v not in verts:
                raise AffinelyDependent(f"simplex {sname(s)} uses unknown vertex {v}")
        simplices.append(s)

    K = Complex(ambient_dim, verts, simplices)
    K._ints = table._ints
    if not K.is_independent():
        for s in simplices:
            if K.frame(s).rows is None:
                raise AffinelyDependent(
                    f"vertices of {sname(s)} are affinely dependent")
    if check_disjoint:
        check_pairwise_disjoint(K)
    return K


def check_pairwise_disjoint(K: Complex) -> None:
    """Raise OverlappingSimplices naming the first pair of open simplices,
    in `combinations(sorted(K.simplices), 2)` order, that meet.  For raw,
    untrusted input.

    Precondition: every simplex of K is nonempty and affinely independent,
    as `validate` checks before it calls this.  Screen 0 decides the whole
    complex at once (`_spans_one_simplex`): when the used vertices of K
    are affinely independent, they span one simplex, every simplex of K
    is a face of it, and distinct open faces of a simplex are disjoint
    (Rourke and Sanderson, ch. 2), so no pair is visited.  Otherwise each
    pair passes the screens below in order, and only a pair that none
    decides reaches the exact LP `linalg.convex_positions_intersect`:
    1. bounding boxes: the integer point (X_v, D_v) of every used vertex,
       `Complex.integer_point`, is scaled to the common denominator D of
       them all, and the integer boxes are swept on axis 0 (sweep and
       prune: Cohen, Lin, Manocha and Ponamgi, "I-COLLIDE", SI3D 1995);
       pairs whose closed boxes are apart are never visited;
    2. a vertex union that is a simplex of K: a and b are distinct faces
       of it, so disjoint;
    3. `linalg.hyperplane_separated` on the pair's frames, built on first
       use and kept, inside the affine hull of the union; its last case
       passes every other affinely independent union.
    """
    if _spans_one_simplex(K):
        return
    sims = sorted(K.simplices)
    rows = {v: K.integer_point(v) for s in sims for v in s}
    den = lcm(*(y[-1] for y in rows.values()))
    rows = {v: [x * (den // y[-1]) for x in y] for v, y in rows.items()}
    cols = [list(zip(*(rows[v] for v in s))) for s in sims]
    lo = [tuple(map(min, c)) for c in cols]
    hi = [tuple(map(max, c)) for c in cols]
    pairs = []
    active: list[int] = []
    for i in sorted(range(len(sims)), key=lambda i: lo[i][0]):
        lo_i, hi_i = lo[i], hi[i]
        active = [j for j in active if hi[j][0] >= lo_i[0]]
        pairs.extend((min(i, j), max(i, j)) for j in active
                     if all(map(le, lo_i, hi[j]))
                     and all(map(le, lo[j], hi_i)))
        active.append(i)
    pairs.sort()
    for i, j in pairs:
        a, b = sims[i], sims[j]
        if tuple(sorted(set(a) | set(b))) in K.simplices:
            continue
        if linalg.hyperplane_separated(K.frame(a), K.frame(b)):
            continue
        if linalg.convex_positions_intersect(K.points(a), K.points(b)):
            raise OverlappingSimplices(
                f"open simplices {sname(a)} and {sname(b)} intersect")


def _spans_one_simplex(K: Complex) -> bool:
    """Are the used vertices of K affinely independent?  Screen 0 of
    `check_pairwise_disjoint`, the last case of `linalg._separates` asked
    of the whole complex in the kept frame of a largest simplex sigma:
    the null rows of that frame vanish exactly on the span of its
    homogeneous points, so the used vertices are independent exactly when
    the offsets of those outside sigma are linearly independent.  There
    are at most `ambient_dim + 1` independent points, and a vertex on the
    hull of sigma (zero offsets) ends the test before any elimination.
    A complex with no simplex has no pair to test."""
    used = K.used_vertices()
    if not used:
        return True
    if len(used) > K.ambient_dim + 1:
        return False
    sigma = K.canonical_order()[-1]
    frame = K.frame(sigma)
    if frame.null is None:      # a dependent sigma, against the precondition
        return False
    added = [frame.offsets(K.integer_point(v))
             for v in sorted(used.difference(sigma))]
    if not all(map(any, added)):
        return False
    return len(linalg.eliminate(added, len(frame.null))[0]) == len(added)
