"""Seeded presentations and tampered artifacts for the verify workload.

Each tamper class has one expected verdict, reject:

* ``overlap_scx``: raw SCX with an extra triangle overlapping an existing
  one, so ``validate`` with disjointness must fail.
* ``carrier_swap``: a certificate whose step carrier of one refinement
  simplex is replaced by a codomain vertex that does not hold its images.
* ``image_shift``: a normal homeomorphism with one cone point's image moved
  onto a vertex of its carrier, so the cone images degenerate.
* ``forged_partition``: a certificate whose refinement of the triangle abc
  is not closed -- two triangles overlap near one corner and leave a gap
  along the opposite edge, with relative volumes summing to 1.
"""

from __future__ import annotations

from fractions import Fraction


def relabel_scx(P, K, subs, rng) -> str:
    """SCX text of K under a seeded renaming of its vertices."""
    ids = sorted(K.vertices)
    names = [f"x{i}" for i in range(len(ids))]
    rng.shuffle(names)
    ren = dict(zip(ids, names))
    simplex = P.complexes.simplex
    K2 = P.complexes.Complex(K.ambient_dim,
                             {ren[v]: p for v, p in K.vertices.items()},
                             [simplex(ren[v] for v in s) for s in K.simplices])
    subs2 = {n: [simplex(ren[v] for v in s) for s in ref.members]
             for n, ref in subs.items()}
    return P.scx.emit_scx(K2, subs2)


def overlap_scx(P, K, rng) -> str:
    """K plus a triangle on one edge of a seeded triangle of K, with its
    third vertex strictly inside that triangle."""
    tri = rng.choice(sorted(s for s in K.simplices if len(s) == 3))
    wts = [rng.randint(1, 4) for _ in tri]
    tot = sum(wts)
    z = P.linalg.vcomb([Fraction(x, tot) for x in wts], K.points(tri))
    u, v = rng.sample(tri, 2)
    coords = " ".join(P.scx.coord_str(q) for q in z)
    return (P.scx.emit_scx(K) + f"vertex tamper {coords}\n"
            f"simplex {u} {v} tamper\n")


def carrier_swap(P, cert, rng) -> str:
    """Certificate text with one step-0 carrier swapped for a wrong vertex."""
    obj = P.certio.cert_to_obj(cert)
    step = cert.steps[0]
    fine = step.refinement.fine
    top = max(len(t) for t in fine.simplices)
    t = rng.choice(sorted(s for s in fine.simplices if len(s) == top))
    L = step.frm.codomain
    images = [h.vertex_image[v] for h in (step.frm, step.to) for v in t]
    wrong = [w for w in sorted(L.vertices)
             if (w,) in L.simplices
             and any(p != L.vertices[w] for p in images)]
    w = rng.choice(wrong)
    key = P.complexes.sname(t) + " ->"
    obj["steps"][0]["carriers"] = [
        f"{key} {w}" if line.startswith(key + " ") else line
        for line in obj["steps"][0]["carriers"]]
    return P.certio.dumps(obj)


def image_shift(P, phi, rng) -> str:
    """Homeomorphism text with a cone point's image moved onto a vertex of
    its carrier."""
    obj = P.certio.homeo_to_obj(phi)
    w = phi.witness
    top = max(len(c) for c in w.coarse.simplices)
    cones = sorted(v for (v,) in (t for t in w.fine.simplices if len(t) == 1)
                   if len(w.carrier[(v,)]) == top)
    v = rng.choice(cones)
    corner = w.coarse.vertices[rng.choice(w.carrier[(v,)])]
    coords = " ".join(P.scx.coord_str(q) for q in corner)
    lines = obj["scxm"].splitlines()
    obj["scxm"] = "\n".join(
        f"image {v} {coords}" if line.startswith(f"image {v} ") else line
        for line in lines) + "\n"
    return P.certio.dumps(obj)


def forged_partition(P, disk, rng) -> str:
    """Certificate text for the identity of the triangle over a forged
    refinement: triangles (x, y, p) and (x, z, q), p on edge xz and q on
    edge xy, with relative volumes t and 1 - t."""
    x = rng.choice(("a", "b", "c"))
    y, z = sorted({"a", "b", "c"} - {x})
    t = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                    Fraction(1, 4), Fraction(3, 4)))
    X, Y, Z = (disk.vertices[n] for n in (x, y, z))
    verts = dict(disk.vertices)
    verts["fp"] = tuple(a + t * (c - a) for a, c in zip(X, Z))
    verts["fq"] = tuple(a + (1 - t) * (b - a) for a, b in zip(X, Y))
    simplex = P.complexes.simplex
    whole = ("a", "b", "c")
    carrier = {s: s for s in disk.simplices if s != whole}
    carrier[simplex((x, y, "fp"))] = whole
    carrier[simplex((x, z, "fq"))] = whole
    fine = P.complexes.Complex(disk.ambient_dim, verts, carrier)
    ref = P.subdivision.SubdivisionWitness(fine, disk, carrier)
    f = P.plmaps.identity_map(disk)
    step = P.plmaps.HomotopyStep(f, f, ref, carrier)
    cert = P.plmaps.HomotopyCertificate([step], disk.subcomplex(()))
    return P.certio.dumps(P.certio.cert_to_obj(cert))
