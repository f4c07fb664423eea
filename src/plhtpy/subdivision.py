"""Barycentric subdivision, subdivision witnesses, and normal PL
homeomorphisms.

A subdivision is always carried as a witness: the fine complex, the coarse
complex, and for each fine simplex the coarse simplex whose interior
contains it.  Verification is exact, never by sampling, and linear in the
number of fine simplices: the fine simplices must partition every coarse
simplex, which `partition_violations` proves from containment by barycentric
support, closedness, face-to-face matching of the facets (two top cofaces on
opposite sides inside, one on the boundary) and relative volumes summing to
1.  The images under a normal homeomorphism are checked the same way.

A normal homeomorphism of |K| is a PL self-map, a `plmaps.PLMap` whose
domain and codomain are K, built by `PLHomeo(witness, images, carriers)`.

Barycentric subdivision and normal extension are one construction, the
cone (s)' = b(s) * (boundary s)' of the derived subdivision (Rourke and
Sanderson, 1972): over each simplex s, in increasing dimension, cone from
the barycenter of s over the pieces already built on its proper faces.

Barycenter vertices are named ``<v1>.<v2>...<vk>^bary`` (dot-joined vertex
identifiers of the subdivided simplex).  Generated names use ``.`` and
``^`` here, ``~`` for cylinder levels and the ``cut_`` prefix for cylinder
cuts, so serialized complexes carry them and SCX accepts them in vertex
identifiers; what SCX rejects is a ``-`` (it joins the identifiers of a
serialized simplex name), and a token never holds whitespace.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import TYPE_CHECKING

from . import linalg
from .complexes import (Complex, Point, SubcomplexRef, Simplex,
                        WeightRows, facets, proper_faces, simplex, sname)
from .errors import (Incompatible, NotClosed, NotNormal, NotNormalInput,
                     NotSubcomplex, PointOutsidePolyhedron, ValueOutOfRange)

if TYPE_CHECKING:
    from .plmaps import PLMap


def bary_name(s: Simplex) -> str:
    return ".".join(s) + "^bary"


class SubdivisionWitness:
    """fine refines coarse; carrier(tau) is the coarse simplex with
    open(tau) inside its interior."""

    def __init__(self, fine: Complex, coarse: Complex,
                 carrier: dict[Simplex, Simplex]):
        self.fine = fine
        self.coarse = coarse
        self.carrier = {tuple(k): tuple(v) for k, v in carrier.items()}

    @cached_property
    def _pieces(self) -> dict[Simplex, list[Simplex]]:
        """Coarse simplex -> the fine simplices it carries, top-dimensional
        first; built on first use from the carrier as it is then."""
        pieces = defaultdict(list)
        for t in self.fine.simplices:
            pieces[self.carrier.get(t)].append(t)
        for ts in pieces.values():
            ts.sort(key=lambda t: (-len(t), t))
        return pieces

    def locate_piece(self, x: Point) -> Simplex:
        """A fine simplex whose closure holds x.  x is located in the
        coarse complex first, then only the fine simplices carried by that
        open coarse simplex are tested, top-dimensional first, so frames
        are built for those alone.  On a subdivision the closed pieces
        holding x share the open piece holding x as a face, so a map
        affine on each piece has one value at x whichever is returned.
        Raises PointOutsidePolyhedron when no piece holds x."""
        hit = self.coarse.try_locate(x)
        if hit is not None:
            for t in self._pieces.get(hit[0], ()):
                if self.fine.point_in_closure(t, x):
                    return t
        raise PointOutsidePolyhedron(f"point {x} is not in the polyhedron")

    def compose(self, finer: "SubdivisionWitness") -> "SubdivisionWitness":
        """Witness for `finer.fine` refining self.coarse (finer refines
        self.fine)."""
        carrier = {t: self.carrier[finer.carrier[t]]
                   for t in finer.fine.simplices}
        return SubdivisionWitness(finer.fine, self.coarse, carrier)


def identity_witness(K: Complex) -> SubdivisionWitness:
    return SubdivisionWitness(K, K, {s: s for s in K.simplices})


def barycentric_subdivide(K: Complex) -> SubdivisionWitness:
    """First barycentric subdivision of a closed complex.

    The pieces of s are its barycenter b and the cones b * t over the
    pieces t of its proper faces.  Fine simplices are thus chains of proper
    inclusions of coarse simplices; the chain's largest element is the
    carrier.  Vertices of K keep their names; a simplex of dimension >= 1
    contributes the vertex ``bary_name``.
    """
    if not K.is_closed():
        raise NotClosed("barycentric subdivision requires a closed complex")
    verts = {}
    pieces: dict[Simplex, list[Simplex]] = {}
    for s in K.canonical_order():
        b = s[0] if len(s) == 1 else bary_name(s)
        if b in verts:
            raise Incompatible(f"vertex id {b} names two vertices of the "
                               "subdivision")
        verts[b] = K.barycenter(s)
        pieces[s] = [(b,)] + [simplex(t + (b,)) for f in proper_faces(s)
                              for t in pieces[f]]
    fine = {t: s for s, ts in pieces.items() for t in ts}
    fine_complex = Complex(K.ambient_dim, verts, fine.keys())
    return SubdivisionWitness(fine_complex, K, fine)


def iterated_subdivision(K: Complex, rounds: int) -> SubdivisionWitness:
    if rounds < 0:
        raise ValueOutOfRange(f"negative round count {rounds}")
    w = identity_witness(K)
    for _ in range(rounds):
        w = w.compose(barycentric_subdivide(w.fine))
    return w


def relative_volume(rows) -> tuple[int, int]:
    """Signed vol(fine simplex) / vol(coarse simplex), both of the same
    dimension, from the barycentric coordinates of the fine vertices in
    the coarse simplex, one (integer row, positive denominator) pair per
    fine vertex as `AffineFrame.weights` gives them, as the integer pair
    (det, den): det is the determinant of the integer rows, the last pivot
    of `linalg.eliminate` (0 when they are singular), and den > 0 the
    product of the denominators, so the volume is det / den, unreduced.
    Its sign, det's, is the orientation of the fine vertices, in the order
    given, against the coarse simplex's.  The rows are copied, never
    eliminated in place: they are the answers a `Complex` keeps."""
    pivots, last = linalg.eliminate([list(w) for w, _ in rows], len(rows))
    return (last if len(pivots) == len(rows) else 0,
            prod(q for _, q in rows))


def partition_violations(rows: WeightRows, pieces, carrier,
                         what: str = "") -> list:
    """Why the open simplices `pieces`, with vertex v at `rows.point[v]`
    and piece t claimed inside open `carrier[t]`, fail to partition every
    simplex of the coarse complex `rows.K` (an empty list when they do).

    Exact and linear in the number of pieces: the barycentric row of a
    vertex in a coarse simplex is read from the caller's `rows`, computed
    once however many pieces and checks read it.  Each piece must lie
    inside its carrier.  Then, for every coarse simplex c of dimension d,
    over the pieces carried by c:

    * closed: every facet of a piece is a piece, unless it lies on a face
      of c that the coarse complex leaves out;
    * the top (d-dimensional) pieces are nondegenerate and their relative
      volumes sum to 1.  The sum is kept as integers: each volume is the
      pair (det, den) of `relative_volume`, and the running sum a
      numerator over the lcm of the denominators so far; a Fraction is
      built only to name a sum other than 1 in its message;
    * every lower-dimensional piece is a face of a nondegenerate top
      piece through its first vertex;
    * every facet f carried by c has exactly two top cofaces, on opposite
      sides of it: the determinants of the integer rows of (f..., u1) and
      (f..., u2), u1 and u2 their apexes, have opposite signs.  Each is
      read off its top piece t's signed volume, kept from the volume
      step, so no facet is eliminated again: (f..., u) is t with u = t[i]
      moved last, a cycle of sign (-1)^(k-1-i) for k = len(t), and as
      both cofaces have k vertices the sides compare as the volume's sign
      times (-1)^i;
    * every facet carried by a facet of c has exactly one top coface.

    The facet conditions make the number of top pieces over a generic point
    of c constant, the volume sum makes that number 1, and closedness with
    the face condition puts every lower piece on the shared boundaries: the
    pieces partition c.  Messages start with `what`.
    """
    coarse = rows.K
    violations = []
    by_coarse: dict[Simplex, list[Simplex]] = {c: [] for c in coarse.simplices}

    for t in sorted(pieces):
        c = carrier.get(t)
        if c is None or c not in coarse.simplices:
            violations.append((t, c, what + "carrier missing"))
        elif rows.support(t, c) != c:
            violations.append((t, c, what + "not inside carrier"))
        else:
            by_coarse[c].append(t)

    for c in sorted(coarse.simplices, key=lambda c: (-len(c), c)):
        mine = by_coarse[c]
        for t in mine:
            for f in facets(t):
                if f not in pieces and rows.support(f, c) in coarse.simplices:
                    violations.append((f, c, f"{what}face of {sname(t)} "
                                             "missing"))
        total, whole = 0, 1      # the coverage so far, total / whole
        # vertex -> the nondegenerate top pieces through it
        through: dict[str, list[frozenset]] = defaultdict(list)
        # facet -> the side of each top coface, +1 or -1 up to a factor
        # common to all of them
        cofaces: dict[Simplex, list[int]] = {}
        for t in mine:
            if len(t) != len(c):
                continue
            det, den = relative_volume([rows.weights(v, c) for v in t])
            if det == 0:
                violations.append((t, c, what + "degenerate"))
                continue
            common = lcm(whole, den)
            total = (total * (common // whole)
                     + abs(det) * (common // den))
            whole = common
            top = frozenset(t)
            for v in t:
                through[v].append(top)
            side = 1 if det > 0 else -1
            for f in facets(t):
                cofaces.setdefault(f, []).append(side)
                side = -side
        for t in mine:
            if len(t) < len(c) and not any(
                    top.issuperset(t) for top in through.get(t[0], ())):
                violations.append((t, c, what + "not a face of a top piece"))
        for f, sides in sorted(cofaces.items()):
            if f not in pieces:
                continue
            if carrier.get(f) != c:
                if len(sides) != 1:
                    violations.append((f, c, f"{what}boundary facet with "
                                             f"{len(sides)} top cofaces"))
            elif len(sides) != 2:
                violations.append((f, c, f"{what}interior facet with "
                                         f"{len(sides)} top cofaces"))
            elif sides[0] == sides[1]:
                violations.append((f, c, f"{what}top cofaces on one "
                                         "side"))
        for e in facets(c):
            for f in by_coarse.get(e, ()):
                if len(f) == len(e) and f not in cofaces:
                    violations.append((f, c, f"{what}boundary facet with "
                                             "0 top cofaces"))
        if total != whole:
            violations.append((None, c, f"{what}coverage "
                                        f"{Fraction(total, whole)} != 1"))
    return violations


def verify_subdivision(w: SubdivisionWitness):
    """(ok, violations): the fine simplices partition every coarse simplex,
    each inside its carrier (see `partition_violations`).

    An identity witness passes without the partition pass: when the fine
    complex equals the coarse one, every simplex is its own carrier and
    every coarse simplex is affinely independent (`Complex.is_independent`,
    kept on the complex), each piece
    is the one top piece over its carrier, with relative volume 1 and its
    facets carried by the facets of the carrier, so `partition_violations`
    finds nothing.  Any other witness gets the full check.
    """
    if (w.fine == w.coarse
            and all(w.carrier.get(t) == t for t in w.fine.simplices)
            and w.coarse.is_independent()):
        return True, []
    violations = partition_violations(WeightRows(w.coarse, w.fine.vertices),
                                      w.fine.simplices, w.carrier)
    return (not violations), violations


def PLHomeo(witness: SubdivisionWitness, vertex_image: dict,
            target_carrier: dict[Simplex, Simplex]) -> PLMap:
    """PL self-map of |K|, K = witness.coarse, on the subdivision
    `witness`: exact image points for the fine vertices and a target
    carrier per fine simplex.  Unchecked: `verify_normal` reports bad
    images instead of raising on them."""
    from .plmaps import PLMap
    K = witness.coarse
    return PLMap(K, K, witness, vertex_image, target_carrier, check=False)


def identity_homeo(K: Complex) -> PLMap:
    return identity_homeo_on(identity_witness(K))


def identity_homeo_on(w: SubdivisionWitness) -> PLMap:
    """The identity of |K| presented on an arbitrary subdivision."""
    verts = {v: w.fine.vertices[v] for v in w.fine.used_vertices()}
    return PLHomeo(w, verts, dict(w.carrier))


class NormalityReport:
    def __init__(self, partitions_simplices, is_subdivision,
                 carrier_respecting, violations):
        self.partitions_simplices = partitions_simplices
        self.is_subdivision = is_subdivision
        self.carrier_respecting = carrier_respecting
        self.violations = list(violations)

    @property
    def normal(self) -> bool:
        return (self.partitions_simplices and self.is_subdivision
                and self.carrier_respecting)


def verify_normal(phi: PLMap) -> NormalityReport:
    """Check the three normality conditions of a PL homeomorphism of |K|.

    (1) the images of the fine simplices partition each coarse simplex:
    `partition_violations` on the image points, each image carried by its
    target carrier; (2) the fine simplices themselves partition each
    coarse simplex (`verify_subdivision`); (3) each fine simplex maps into
    the interior of its own carrier.  (1) and (3) share one `WeightRows`.
    A map that lacks the image of a fine vertex fails all three with one
    violation naming its least such vertex, and nothing else is checked.
    """
    missing = phi.missing_image()
    if missing is not None:
        return NormalityReport(False, False, False, [
            ((missing,), None, f"no image of vertex {missing}")])
    w = phi.dom_subdivision
    sub_ok, violations = verify_subdivision(w)

    rows = WeightRows(w.coarse, phi.vertex_image)
    carrier_ok = True
    for t in sorted(w.fine.simplices):
        car = w.carrier.get(t)
        if car in w.coarse.simplices and rows.support(t, car) != car:
            carrier_ok = False
            violations.append((t, car, "image leaves carrier"))
    image_violations = partition_violations(
        rows, w.fine.simplices, phi.target_carrier, "image ")
    violations.extend(image_violations)
    return NormalityReport(not image_violations, sub_ok, carrier_ok,
                           violations)


def extend_normal(K: Complex, K_Z: SubcomplexRef, phi0: PLMap) -> PLMap:
    """Extend a normal homeomorphism over a closed subcomplex to all of K.

    Skeleton induction: each simplex outside K_Z, in increasing dimension,
    is coned from its barycenter over the pieces of its proper faces; the
    cone point maps to itself and the cone map is the affine extension of
    the boundary map.  A simplex whose boundary ends up unrefined (and
    hence fixed pointwise) is kept whole.
    """
    if not K.is_closed():
        raise NotClosed("extension requires a closed complex")
    if not K_Z.is_closed():
        raise NotSubcomplex("K_Z must be a closed subcomplex")
    if phi0.domain != K_Z.as_complex():
        raise NotSubcomplex("phi0 is not a homeomorphism over K_Z")
    if not verify_normal(phi0).normal:
        raise NotNormalInput("phi0 is not normal over K_Z")

    verts = dict(phi0.fine.vertices)
    image = dict(phi0.vertex_image)
    pieces: dict[Simplex, list[Simplex]] = {}
    for t, c in phi0.dom_subdivision.carrier.items():
        pieces.setdefault(c, []).append(t)
    todo = [s for s in K.canonical_order() if s not in K_Z]
    for (v,) in (s for s in todo if len(s) == 1):
        verts[v] = image[v] = K.vertices[v]
    for s in todo:
        boundary_fine = [t for f in proper_faces(s) for t in pieces[f]]
        if set(boundary_fine) == set(proper_faces(s)):
            # boundary unrefined, hence fixed pointwise: keep s whole
            pieces[s] = [s]
            continue
        b = bary_name(s)
        if b in verts:
            raise Incompatible(f"vertex id {b} is taken; it names the "
                               f"barycenter of {sname(s)}")
        verts[b] = image[b] = K.barycenter(s)
        pieces[s] = [(b,)] + [simplex(t + (b,)) for t in boundary_fine]

    fine = {t: c for c, ts in pieces.items() for t in ts}
    # every new piece maps into its own carrier; phi0 keeps its targets
    target = fine | phi0.target_carrier
    fine_complex = Complex(K.ambient_dim, verts, fine.keys())
    witness = SubdivisionWitness(fine_complex, K, fine)
    return PLHomeo(witness, image, target)


def canonical_homotopy(phi: PLMap):
    """One-step straight-line homotopy certificate from the identity of |K|
    to a normal homeomorphism; each fine simplex and its image share the
    closure of the simplex's carrier."""
    from . import plmaps
    report = verify_normal(phi)
    if not report.normal:
        raise NotNormal(f"not a normal homeomorphism: {report.violations}")
    w = phi.dom_subdivision
    f = plmaps.identity_map_on(w)
    g = plmaps.PLMap(phi.domain, phi.domain, w, phi.vertex_image, w.carrier)
    fixed = w.coarse.subcomplex(())
    step = plmaps.HomotopyStep(f, g, identity_witness(w.fine),
                               {t: w.carrier[t] for t in w.fine.simplices})
    return plmaps.HomotopyCertificate([step], fixed)
