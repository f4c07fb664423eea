"""End-to-end acceptance gate: one printed pass/fail line per criterion."""

import hashlib
import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

from plhtpy import certio, cylinders as cy, fungroup as fg
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import proper_faces, simplex, validate
from plhtpy.errors import NotCertifiablySimplyConnected
from plhtpy.homology import (AbelianGroup, chain_complex,
                             euler_characteristic, homology, induced_map,
                             mat_mul, relative_homology, verify_les)
from conftest import make_deg2, make_perturbed_disk, make_rot
from test_scx_cli import run_cli
from test_subdivision import boundary_slide_homeo, closed_tetra


def report(n, ok, desc):
    line = f"CRITERION {n}: {'pass' if ok else 'FAIL'} - {desc}"
    print(line, file=sys.__stdout__)
    assert ok, line


def normal_extension_ok(K, K_Z, phi0):
    phi = sd.extend_normal(K, K_Z, phi0)
    rep = sd.verify_normal(phi)
    if not (rep.normal and rep.partitions_simplices and rep.is_subdivision
            and rep.carrier_respecting):
        return False
    if not phi0.witness.fine.simplices <= phi.witness.fine.simplices:
        return False
    return all(phi.vertex_image[v] == p
               for v, p in phi0.vertex_image.items())


def test_criterion_1_normal_extension(disk, disk_boundary, tri3):
    boundary = disk_boundary
    ident = sd.identity_homeo_on(
        sd.barycentric_subdivide(boundary.as_complex()))
    slide = boundary_slide_homeo(tri3)
    tetra = closed_tetra()
    tb = tetra.subcomplex([s for s in tetra.simplices if len(s) <= 3])
    tb0 = sd.identity_homeo_on(sd.barycentric_subdivide(tb.as_complex()))
    ok = (normal_extension_ok(disk, boundary, ident)
          and normal_extension_ok(disk, boundary, slide)
          and normal_extension_ok(tetra, tb, tb0))
    report(1, ok, "normal extension verified on disk and solid tetrahedron")


def test_criterion_2_canonical_homotopy(disk, disk_boundary):
    phi0 = sd.identity_homeo_on(
        sd.barycentric_subdivide(disk_boundary.as_complex()))
    ok = True
    for phi in (sd.identity_homeo(disk),
                sd.extend_normal(disk, disk_boundary, phi0)):
        cert = sd.canonical_homotopy(phi)
        valid, _ = pm.verify_certificate(cert)
        ok = ok and valid
        step = cert.steps[0]
        victim = max(sorted(step.carriers), key=len)
        step.carriers[victim] = ("a",)
        valid, problems = pm.verify_certificate(cert)
        ok = ok and not valid and any(t == victim for _, t, _ in problems
                                      if t)
    report(2, ok, "canonical homotopy certificates validate; "
           "mutation caught with named witness")


def test_criterion_3_approximation(rot, deg2):
    g, cert = pm.simplicial_approximation(rot, max_rounds=2)
    valid, _ = pm.verify_certificate(cert)
    ok = (g.is_simplicial() and valid
          and induced_map(g, 1).is_identity())
    g2, _ = pm.simplicial_approximation(deg2)
    ok = ok and abs(induced_map(g2, 1).matrix[0][0]) == 2
    report(3, ok, "approximation: rotation within 2 rounds with identity "
           "H1, degree-2 map doubles H1")


def test_criterion_4_rel_pipeline(perturbed_disk, disk_boundary):
    f = perturbed_disk
    g, cert = pm.simplicialize_rel(f, disk_boundary)
    valid, _ = pm.verify_certificate(cert)
    ok = valid and cert.fixed_set.members == disk_boundary.members
    boundary_pts = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(2, 3)),
                    (F(1, 4), F(3, 4))]
    for x in boundary_pts:
        ok = ok and g.evaluate(x) == f.evaluate(x)
        for s in (F(0), F(1, 3), F(1, 2), F(1)):
            ok = ok and cert.evaluate(x, s) == x
    for x in [(F(1, 4), F(1, 4)), (F(1, 8), F(1, 2))]:
        ok = ok and cert.evaluate(x, F(0)) == cert.initial.evaluate(x)
        ok = ok and cert.evaluate(x, F(1)) == cert.final.evaluate(x)
    report(4, ok, "rel pipeline: boundary-pinned map simplicialized with "
           "certificate constant on the boundary")


def wall_homotopy(P, Z, images):
    from test_cylinders import wall_homotopy as wh
    return wh(None, P, Z, images)


def check_extension_pair(K, members, f, images):
    r = cy.cylinder_retraction(K, members)
    cyl = r.prism.cylinder
    for t in r.target.members:
        for v in t:
            p = cyl.vertices[v]
            if r.map.evaluate(p) != p:
                return False
    if images is None:
        from plhtpy.complexes import Complex
        dom = Complex(cyl.ambient_dim, {}, [])
        H = pm.PLMap(dom, f.codomain, sd.identity_witness(dom), {}, {})
    else:
        H = wall_homotopy(r.prism, f.codomain, images)
    G = cy.extend_homotopy(f, H, r)
    for v in sorted(f.domain.vertex_ids()):
        if G.evaluate(tuple(f.domain.vertices[v]) + (F(0),)) != \
                f.vertex_image[v]:
            return False
    for v, img in H.vertex_image.items():
        if G.evaluate(H.fine.vertices[v]) != img:
            return False
    return True


def test_criterion_5_homotopy_extension(corpus, tri3, disk):
    cube1 = corpus["cube1"][0]
    a = tri3.vertices["a"]
    ok = check_extension_pair(
        cube1, frozenset({("u0",)}), pm.identity_map(cube1),
        {"u0": {0: (F(0),), 1: (F(1),)}})
    ok = ok and check_extension_pair(
        tri3, frozenset({("a",)}), pm.constant_map(tri3, tri3, a),
        {"a": {0: a, 1: a}})
    ok = ok and check_extension_pair(tri3, frozenset(),
                                     pm.identity_map(tri3), None)
    ok = ok and check_extension_pair(
        disk, frozenset({("a",)}), pm.constant_map(disk, tri3, a),
        {"a": {0: a, 1: tri3.vertices["b"]}})
    report(5, ok, "homotopy extension on four pairs including an empty "
           "wall; retractions fix their target pointwise")


def test_criterion_6_homology(corpus, disk, tri3, disk_boundary):
    Z = AbelianGroup(1)
    torus7 = corpus["torus7"][0]
    ok = (homology(tri3, 1) == Z
          and homology(torus7, 1) == AbelianGroup(2)
          and homology(torus7, 2) == Z
          and homology(corpus["rp6"][0], 1) == AbelianGroup(0, (2,))
          and homology(corpus["s2"][0], 2) == Z
          and relative_homology(disk, disk_boundary, 2) == Z)
    chis = [euler_characteristic(corpus[n][0])
            for n in ("disk", "torus7", "rp6", "s2", "cube2")]
    ok = ok and chis == [1, 0, 1, 2, 1]
    rng = random.Random(20260101)
    verts = {f"v{i}": tuple(1 if j == i else 0 for j in range(4))
             for i in range(4)}
    verts["v4"] = (0, 0, 0, 0)
    all_faces = [simplex(c) for size in range(1, 6)
                 for c in combinations(sorted(verts), size)]
    for _ in range(100):
        closed = set()
        for s in (t for t in all_faces if rng.random() < 0.3):
            closed.add(s)
            closed.update(proper_faces(s))
        if not closed:
            continue
        K = validate(4, verts, [list(s) for s in closed],
                     check_disjoint=False)
        cc = chain_complex(K)
        for n in range(2, cc.dim + 1):
            prod = mat_mul(cc.matrix(n - 1), cc.matrix(n))
            ok = ok and all(x == 0 for row in prod for x in row)
    ok = ok and verify_les(disk, disk_boundary)["exact"]
    ok = ok and verify_les(torus7, torus7.subcomplex([("t1",)]))["exact"]
    ok = ok and verify_les(tri3, tri3.subcomplex(tri3.simplices))["exact"]
    report(6, ok, "homology oracles, Euler characteristics, 100 random "
           "boundary-squared checks, exact sequences")


def test_criterion_7_hurewicz(corpus):
    ok = True
    for name, x0 in [("tri3", "a"), ("wedge2", "a"), ("torus7", "t1"),
                     ("rp6", "p1"), ("disk", "a"), ("s2", "s1")]:
        K = corpus[name][0]
        h = fg.hurewicz_h1(K, x0)
        ok = ok and h.ab.group == h.h1.group and h.is_isomorphism()
        fine = sd.barycentric_subdivide(K).fine
        hf = fg.hurewicz_h1(fine, x0)
        ok = ok and hf.ab.group == h.ab.group and hf.is_isomorphism()
    h = fg.hurewicz_h1(corpus["wedge2"][0], "a")
    g1, g2 = fg.Word((1,)), fg.Word((2,))
    comm = g1 * g2 * g1.inverse() * g2.inverse()
    ok = ok and h.class_of(comm) == (0, 0)
    ht = fg.hurewicz_h1(corpus["torus7"][0], "t1")
    ok = ok and ht.is_isomorphism()
    report(7, ok, "Hurewicz comparison for six complexes and their "
           "subdivisions; commutators die; torus case is an isomorphism")


def test_criterion_8_pi2(corpus):
    code, out = run_cli("pi2", "corpus:s2")
    ok = code == 0 and "pi2: Z" in out
    code, out = run_cli("pi2", "corpus:torus7")
    ok = ok and code == 1 and "check_simply_connected: fail" in out
    try:
        fg.pi2_via_hurewicz(corpus["torus7"][0], "t1", True)
        ok = False
    except NotCertifiablySimplyConnected:
        pass
    report(8, ok, "pi2 computed for the sphere, refused for the torus")


def test_criterion_9_beta_action(corpus, deg2, tri3):
    wedge2 = corpus["wedge2"][0]
    pres = fg.Presentation(wedge2, "a")
    ab = fg.Abelianization(pres)
    rng = random.Random(20260101)
    letters = [1, -1, 2, -2]
    ok = True
    for _ in range(1000):
        u = fg.Word(rng.choices(letters, k=rng.randrange(7)))
        v = fg.Word(rng.choices(letters, k=rng.randrange(7)))
        ok = ok and fg.beta_action(fg.Word(), v) == v
        ok = ok and ab.project(fg.beta_action(u, v)) == ab.project(v)
    src = fg.Presentation(deg2.domain, "h0")
    dst = fg.Presentation(tri3, "a")
    samples = [(fg.Word((1,)), fg.Word((1, 1))),
               (fg.Word((1, -1)), fg.Word((1,))),
               (fg.Word((-1,)), fg.Word((1,)))]
    for u, v in samples:
        ok = ok and fg.naturality_check(deg2, src, dst, u, v)
        ok = ok and fg.naturality_check(pm.identity_map(tri3), dst, dst,
                                        u, v)
        const = pm.constant_map(tri3, tri3, tri3.vertices["a"])
        ok = ok and fg.naturality_check(const, dst, dst, u, v)
    report(9, ok, "conjugation action: identity for empty words, "
           "abelianized-invariant on 1000 seeded pairs, natural")


def digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_criterion_10_determinism(tmp_path, rot, perturbed_disk, disk):
    runs = [("corpus", "list")]
    per_corpus = ["validate", "subdivide", "core", "homology", "pi0",
                  "pi1", "hurewicz", "pi2", "euler"]
    for name in scx.CORPUS_NAMES:
        for cmd in per_corpus:
            runs.append((cmd, f"corpus:{name}"))
        K, _ = scx.load_corpus(name)
        v0 = sorted(K.vertex_ids())[0]
        runs.append(("star", f"corpus:{name}", "--simplex", v0))
        runs.append(("corpus", "emit", name))
    for name, sub in (("disk", "boundary"), ("cube1", "ends"),
                      ("cube2", "boundary")):
        runs.append(("rel-homology", f"corpus:{name}", "--sub", sub))
        runs.append(("les", f"corpus:{name}", "--sub", sub))
        runs.append(("extend-normal", f"corpus:{name}", "--sub", sub))
    mapfile = tmp_path / "rot.json"
    certio.save(str(mapfile), certio.map_to_obj(rot))
    pfile = tmp_path / "pert.json"
    certio.save(str(pfile), certio.map_to_obj(
        perturbed_disk, {"boundary": [s for s in disk.simplices
                                      if len(s) <= 2]}))
    certfile = tmp_path / "cert.json"
    homeofile = tmp_path / "homeo.json"
    run_cli("approximate", str(mapfile), "--cert", str(certfile))
    run_cli("extend-normal", "corpus:disk", "--sub", "boundary",
            "--out", str(homeofile))
    runs += [("approximate", str(mapfile)),
             ("simplicialize", str(pfile), "--fixed", "boundary"),
             ("verify-cert", str(certfile)),
             ("verify-normal", str(homeofile))]
    ok = True
    for args in runs:
        first = digest(*run_cli(*args))
        second = digest(*run_cli(*args))
        ok = ok and first == second
        assert first == second, args
    report(10, ok, f"{len(runs)} command invocations repeated with "
           "digest-identical reports")
