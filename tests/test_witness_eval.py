"""Witness-driven evaluation: the support primitive, `PLMap.evaluate_in`,
pipelines that never search a complex, and the verifier checks that make
evaluating through a witness sound."""

import random
from fractions import Fraction as F

import pytest

from plhtpy import certio, linalg
from plhtpy import cylinders as cy
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.complexes import (Complex, WeightRows, faces_with_self,
                              simplex, support_face)
from plhtpy.errors import NotClosed, PointOutsidePolyhedron

from conftest import make_rot
from test_cylinders import wall_homotopy
from test_plmaps import open_domain_certificate
from test_scx_cli import run_cli
from test_subdivision import boundary_slide_homeo


def test_support_face():
    # each point is an `AffineFrame.weights` answer: (numerators,
    # denominator), or None off the affine hull
    s = ("a", "b", "c")
    assert support_face(s, [((1, 0, 0), 1)]) == ("a",)
    assert support_face(s, [((1, 1, 0), 2), ((0, 1, 1), 2)]) == s
    assert support_face(s, [((1, 1, 0), 2), None]) is None
    assert support_face(s, [((2, -1, 0), 1)]) is None


def test_support_in_complex(disk):
    abc = ("a", "b", "c")
    assert disk.support(abc, [(F(1, 2), F(0))]) == ("a", "b")
    assert disk.support(abc, [(F(1, 2), F(0)), (F(0), F(1, 2))]) == abc
    assert disk.support(abc, [(F(1), F(1))]) is None
    assert disk.point_in_closure(abc, (F(0), F(1)))
    assert not disk.point_in_closure(abc, (F(1), F(1)))


@pytest.mark.parametrize("name", ["rot", "deg2", "perturbed_disk"])
def test_evaluate_in_matches_evaluate(request, name):
    f = request.getfixturevalue(name)
    for t in f.fine.simplices:
        for x in f.fine.points(t) + [f.fine.barycenter(t)]:
            assert f.evaluate_in(t, x) == f.evaluate(x), (t, x)


def test_evaluate_in_rejects_a_point_outside(rot):
    t = ("a", "a.b^bary")
    with pytest.raises(PointOutsidePolyhedron):
        rot.evaluate_in(t, rot.fine.vertices["c"])


def scan_evaluate(f, x):
    """Reference: the open fine simplex holding x, found by scanning every
    fine simplex (`Complex.locate`), and the affine value there."""
    t, coords = f.fine.locate(linalg.vec(x))
    return linalg.vcomb(coords, f.image_points(t))


def boundary_rotation_extension(disk, disk_boundary):
    """`extend_homotopy` of the identity of the disk along the wall
    homotopy sliding each boundary vertex to the next one."""
    r = cy.cylinder_retraction(disk, disk_boundary)
    P = disk.vertices
    H = wall_homotopy(disk, r.prism, disk, {"a": {0: P["a"], 1: P["b"]},
                                            "b": {0: P["b"], 1: P["c"]},
                                            "c": {0: P["c"], 1: P["a"]}})
    return cy.extend_homotopy(pm.identity_map(disk), H, r)


def witness_eval_map(name, tri3, disk, disk_boundary):
    """A freshly built map, so that its fine complex has no frames yet."""
    if name == "extend_homotopy":
        return boundary_rotation_extension(disk, disk_boundary)
    if name == "subdivide_map":
        return pm.subdivide_map(make_rot(tri3))
    return sd.extend_normal(disk, disk_boundary, boundary_slide_homeo(tri3))


@pytest.mark.parametrize("name", ["extend_homotopy", "subdivide_map",
                                  "extend_normal"])
def test_evaluate_builds_frames_only_over_the_located_coarse_simplex(
        tri3, disk, disk_boundary, name):
    G = witness_eval_map(name, tri3, disk, disk_boundary)
    w = G.dom_subdivision
    top = max(sorted(w.coarse.simplices), key=len)
    points = [w.coarse.vertices[v] for v in w.coarse.vertex_ids()]
    points.append(w.coarse.barycenter(top))
    assert not G.fine._frames
    for x in points:
        G.evaluate(x)
    located = {w.coarse.locate(x)[0] for x in points}
    carried = [t for t in G.fine.simplices if w.carrier[t] in located]
    assert 0 < len(G.fine._frames) <= len(carried) < len(G.fine.simplices)


@pytest.mark.parametrize("name", ["extend_homotopy", "subdivide_map",
                                  "extend_normal"])
def test_evaluate_matches_the_global_scan(tri3, disk, disk_boundary, name):
    G = witness_eval_map(name, tri3, disk, disk_boundary)
    points = {}       # every fine vertex and barycenter, once
    for t in sorted(G.fine.simplices):
        for x in G.fine.points(t) + [G.fine.barycenter(t)]:
            points.setdefault(x, t)
    for x, t in points.items():
        assert G.evaluate(x) == scan_evaluate(G, x), (t, x)
    outside = [tuple(F(2) for _ in range(G.fine.ambient_dim))]
    if name == "subdivide_map":
        outside.append((F(1, 3), F(1, 3)))  # inside the circle tri3
    for x in outside:
        with pytest.raises(PointOutsidePolyhedron,
                           match="not in the polyhedron"):
            G.evaluate(x)


@pytest.fixture
def no_scans(monkeypatch):
    """Make both global searches raise: code that still scans fails."""
    def scan(*args, **kwargs):
        raise AssertionError("global location scan")
    monkeypatch.setattr(Complex, "try_locate", scan)
    monkeypatch.setattr(pm, "minimal_carrier", scan)


@pytest.mark.parametrize("name", ["rot", "deg2", "perturbed_disk"])
def test_producers_and_verifier_never_scan(request, name):
    f = request.getfixturevalue(name)
    request.getfixturevalue("no_scans")
    g, cert = pm.simplicial_approximation(f)
    assert g.is_simplicial()
    assert pm.verify_certificate(cert) == (True, [])
    f2 = pm.subdivide_map(f)
    assert pm.verify_certificate(pm.straight_line_homotopy(f2, f2))[0]


def test_simplicialize_rel_never_scans(perturbed_disk, disk_boundary, no_scans):
    g, cert = pm.simplicialize_rel(perturbed_disk, disk_boundary)
    assert pm.verify_certificate(cert) == (True, [])


def test_extend_homotopy_never_scans(request, corpus, tri3, disk):
    cube1 = corpus["cube1"][0]
    cases = []
    r = cy.cylinder_retraction(cube1, frozenset({("u0",)}))
    cases.append((pm.identity_map(cube1),
                  wall_homotopy(cube1, r.prism, cube1,
                                {"u0": {0: (F(0),), 1: (F(1),)}}), r))
    r = cy.cylinder_retraction(disk, frozenset({("a",)}))
    cases.append((pm.constant_map(disk, tri3, tri3.vertices["a"]),
                  wall_homotopy(disk, r.prism, tri3,
                                {"a": {0: tri3.vertices["a"],
                                       1: tri3.vertices["b"]}}), r))
    expected = [cy.extend_homotopy(f, H, r).vertex_image for f, H, r in cases]
    request.getfixturevalue("no_scans")
    for (f, H, r), images in zip(cases, expected):
        assert cy.extend_homotopy(f, H, r).vertex_image == images


def test_cli_pipelines_never_scan(tmp_path, rot, perturbed_disk, disk,
                                  no_scans):
    mapfile = tmp_path / "rot.json"
    certio.save(str(mapfile), certio.map_to_obj(rot))
    pfile = tmp_path / "pert.json"
    certio.save(str(pfile), certio.map_to_obj(
        perturbed_disk, {"boundary": [s for s in disk.simplices
                                      if len(s) <= 2]}))
    cert1, cert2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run_cli("approximate", str(mapfile), "--cert", str(cert1))[0] == 0
    assert run_cli("simplicialize", str(pfile), "--fixed", "boundary",
                   "--cert", str(cert2))[0] == 0
    for cert in (cert1, cert2):
        code, out = run_cli("verify-cert", str(cert))
        assert code == 0 and "check_cert_valid: pass" in out


def test_wrong_refinement_carrier_rejected_before_evaluation(rot, monkeypatch):
    _, cert = pm.simplicial_approximation(rot)
    step = cert.steps[0]
    edge = ("a", "a.b^bary")
    step.refinement.carrier[edge] = ("a.b^bary",)

    def evaluate(*args):
        raise AssertionError("evaluated before the refinement was proved")
    monkeypatch.setattr(pm.PLMap, "evaluate_in", evaluate)
    monkeypatch.setattr(pm.PLMap, "evaluate", evaluate)
    monkeypatch.setattr(pm, "closed_coords", evaluate)
    ok, problems = pm.verify_certificate(cert)
    assert not ok
    assert problems[0][2].startswith("bad refinement")


@pytest.fixture
def coords_calls(monkeypatch):
    """The (complex, host, point) of every `closed_coords` call."""
    calls = []
    closed = pm.closed_coords

    def counted(K, t, x):
        calls.append((id(K), t, tuple(x)))
        return closed(K, t, x)
    monkeypatch.setattr(pm, "closed_coords", counted)
    return calls


def refined(cert, witness, rename=None):
    """`cert` with each step's identity refinement replaced by `witness`
    of its base, vertices renamed by `rename`.  Each refinement simplex is
    carried by the least face of its host's carrier holding both images
    of its closure, read by `closed_coords` in the host."""
    steps = []
    for step in cert.steps:
        w = witness(step.refinement.coarse)
        name = (rename or {}).get
        new = {t: simplex(name(v, v) for v in t) for t in w.fine.simplices}
        fine = Complex(w.fine.ambient_dim,
                       {name(v, v): p for v, p in w.fine.vertices.items()},
                       new.values())
        ref = sd.SubdivisionWitness(fine, w.coarse, {new[t]: w.carrier[t]
                                                     for t in new})
        carriers = {}
        for t, host in w.carrier.items():
            coords = [pm.closed_coords(w.coarse, host, w.fine.vertices[v])
                      for v in t]
            images = [linalg.vcomb(x, h.image_points(host))
                      for x in coords for h in (step.frm, step.to)]
            carriers[new[t]] = step.frm.codomain.support(
                step.carriers[host], images)
        steps.append(pm.HomotopyStep(step.frm, step.to, ref, carriers))
    return pm.HomotopyCertificate(steps, cert.fixed_set)


def bary_refined(cert, rename=None):
    return refined(cert, sd.barycentric_subdivide, rename)


@pytest.mark.parametrize("name", ["rot", "deg2", "perturbed_disk"])
def test_identity_refinements_evaluate_nothing(request, name, coords_calls):
    """Every refinement vertex of an identity refinement is a vertex of
    its host, so its images are the host vertex's, with no evaluation; as
    in verify-cert, the certificate goes through its file form."""
    _, cert = pm.simplicial_approximation(request.getfixturevalue(name))
    loaded = certio.cert_from_obj(certio.cert_to_obj(cert))
    coords_calls.clear()
    assert pm.verify_certificate(cert) == (True, [])
    assert pm.verify_certificate(loaded) == (True, [])
    assert coords_calls == []


@pytest.mark.parametrize("name", ["rot", "perturbed_disk"])
def test_bary_refinements_evaluate_once_per_vertex_and_host(request, name,
                                                            coords_calls):
    _, cert = pm.simplicial_approximation(request.getfixturevalue(name))
    cert = bary_refined(cert)
    coords_calls.clear()
    assert pm.verify_certificate(cert) == (True, [])
    ref = cert.steps[0].refinement
    pairs = {(v, ref.carrier[t]) for t in ref.fine.simplices for v in t
             if ref.fine.vertices[v] not in ref.coarse.points(ref.carrier[t])}
    assert len(set(coords_calls)) == len(coords_calls) == len(pairs) > 0


def reference_verify(cert):
    """`verify_certificate` by its definition: every refinement vertex is
    evaluated in every host holding it by `closed_coords` and `vcomb`,
    and each image is located in its carrier on its own."""
    problems = []
    for i, step in enumerate(cert.steps):
        f, g, ref = step.frm, step.to, step.refinement
        L = f.codomain
        if f.codomain != g.codomain:
            problems.append((i, None, "codomain mismatch"))
            continue
        if f.fine != g.fine:
            problems.append((i, None, "domain subdivision mismatch"))
            continue
        viol = (sd.verify_subdivision(f.dom_subdivision)[1]
                or sd.verify_subdivision(g.dom_subdivision)[1])
        if viol:
            problems.append((i, None, f"bad domain subdivision: {viol[:3]}"))
            continue
        if ref.coarse != f.fine:
            problems.append((i, None, "refinement base mismatch"))
            continue
        ok_sub, viol = sd.verify_subdivision(ref)
        if not ok_sub:
            problems.append((i, None, f"bad refinement: {viol[:3]}"))
            continue
        for t in sorted(ref.fine.simplices):
            c = step.carriers.get(t)
            if c is None or c not in L.simplices:
                problems.append((i, t, "missing carrier"))
                continue
            host = ref.carrier[t]
            for v in t:
                coords = pm.closed_coords(ref.coarse, host,
                                          ref.fine.vertices[v])
                if not all(L.point_in_closure(
                        c, linalg.vcomb(coords, h.image_points(host)))
                        for h in (f, g)):
                    problems.append((i, t, "image outside carrier"))
        if i > 0:
            prev = cert.steps[i - 1].to
            if prev.fine != f.fine:
                problems.append((i, None, "steps do not chain"))
            else:
                problems += [(i, (v,), "steps disagree") for v in
                             pm.moved_vertices(prev, f, f.fine.simplices)]
        fixed = pm.restrict_members(f.dom_subdivision, cert.fixed_set.members)
        problems += [(i, (v,), "not constant on fixed set")
                     for v in pm.moved_vertices(f, g, fixed)]
    return (not problems), problems


def swap_carriers(cert, s, t):
    """A copy of `cert` with the carriers of the refinement simplices s
    and t of its first step exchanged."""
    step = cert.steps[0]
    carriers = dict(step.carriers)
    carriers[s], carriers[t] = carriers[t], carriers[s]
    steps = [pm.HomotopyStep(step.frm, step.to, step.refinement, carriers)]
    return pm.HomotopyCertificate(steps + cert.steps[1:], cert.fixed_set)


def test_verifier_agrees_with_the_reference(tri3, rot, perturbed_disk):
    """The family: producer certificates, their barycentric refinements,
    the same with a and b exchanged, and the open-domain certificate, each
    also with seeded pairs of carriers swapped.  On tri3 the exchange puts
    the name a of a host vertex on the refinement vertex at b, in the
    edge a-a.b^bary of the refinement; given the carrier of the vertex b
    there, an image read by name would prove the vertex at b inside it."""
    AB = {"a": "b", "b": "a"}
    rng = random.Random(21)
    family = []
    for f in (rot, perturbed_disk):
        _, cert = pm.simplicial_approximation(f)
        family += [cert, bary_refined(cert), refined(cert, sd.identity_witness,
                                                     AB),
                   bary_refined(cert, AB)]
    identity = pm.identity_map(tri3)
    family.append(bary_refined(pm.straight_line_homotopy(identity, identity),
                               AB))
    assert [pm.verify_certificate(c) for c in family] == \
        [(True, [])] * len(family)
    family.append(swap_carriers(family[-1], ("a", "a.b^bary"), ("b",)))
    family.append(open_domain_certificate())
    family += [swap_carriers(c, *rng.sample(sorted(c.steps[0].carriers), 2))
               for c in family for _ in range(8)]
    verdicts = [reference_verify(c) for c in family]
    assert [pm.verify_certificate(c) for c in family] == verdicts
    assert sum(not ok for ok, _ in verdicts) > len(family) // 2


def reflection_certificate(tri3):
    """Two constant steps on the circle tri3: the identity, then the
    reflection that swaps a and b, presented on a copy of tri3 with a and
    b placed at each other's points and the identity's images by name.
    By simplex names and images the steps chain; as maps they do not."""
    swap = {"a": "b", "b": "a", "c": "c"}
    fine = Complex(tri3.ambient_dim,
                   {v: tri3.vertices[swap[v]] for v in tri3.vertices},
                   tri3.simplices)
    w = sd.SubdivisionWitness(fine, tri3, {
        t: simplex(swap[v] for v in t) for t in fine.simplices})
    reflection = pm.PLMap(tri3, tri3, w, tri3.vertices,
                          {t: t for t in fine.simplices})
    steps = [pm.straight_line_homotopy(h, h).steps[0]
             for h in (pm.identity_map(tri3), reflection)]
    return pm.HomotopyCertificate(steps, tri3.subcomplex(()))


def test_steps_chain_as_maps_not_as_names(tmp_path, tri3):
    cert = reflection_certificate(tri3)
    assert pm.verify_certificate(cert) == (
        False, [(1, None, "steps do not chain")])
    path = tmp_path / "reflection.json"
    certio.save(str(path), certio.cert_to_obj(cert))
    code, out = run_cli("verify-cert", str(path))
    assert code == 1
    assert "witness_cert_valid: step 1 simplex -: steps do not chain" in out


def skeleton_certificate(disk):
    """Identity homotopy of maps defined on the 1-skeleton of the disk only:
    the fine complex leaves the open triangle a-b-c uncovered."""
    edges = [s for s in disk.simplices if len(s) <= 2]
    fine = disk.restrict(edges)
    w = sd.SubdivisionWitness(fine, disk, {s: s for s in edges})
    f = pm.PLMap(disk, disk, w, dict(fine.vertices), {s: s for s in edges})
    return pm.straight_line_homotopy(f, f)


def test_certificate_on_a_non_subdivision_is_rejected(disk):
    ok, problems = pm.verify_certificate(skeleton_certificate(disk))
    assert not ok
    i, t, msg = problems[0]
    assert (i, t) == (0, None) and msg.startswith("bad domain subdivision")
    assert "('a', 'b', 'c')" in msg


@pytest.fixture
def full_checks(monkeypatch):
    """The `partition_violations` calls `verify_subdivision` makes."""
    calls = []
    full = sd.partition_violations

    def counted(*args):
        calls.append(args)
        return full(*args)
    monkeypatch.setattr(sd, "partition_violations", counted)
    return calls


def full_check(w):
    violations = sd.partition_violations(
        WeightRows(w.coarse, w.fine.vertices), w.fine.simplices, w.carrier)
    return (not violations), violations


@pytest.mark.parametrize("r", [0, 1])
def test_identity_witnesses_skip_the_partition_pass(request, corpus, r):
    witnesses = [sd.identity_witness(sd.iterated_subdivision(K, r).fine)
                 for _, (K, _) in sorted(corpus.items())]
    expected = [full_check(w) for w in witnesses]
    assert expected == [(True, [])] * len(witnesses)
    calls = request.getfixturevalue("full_checks")
    assert [sd.verify_subdivision(w) for w in witnesses] == expected
    assert not calls


def test_other_witnesses_get_the_full_check(request, disk):
    # an affinely dependent triangle, an identity with one carrier moved,
    # and the 1-skeleton of the disk claimed to subdivide it
    flat = Complex(2, {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
                   faces_with_self(("a", "b", "c")))
    moved = dict(sd.identity_witness(disk).carrier)
    moved[("a", "b")] = ("a", "b", "c")
    witnesses = [sd.identity_witness(flat),
                 sd.SubdivisionWitness(disk, disk, moved),
                 skeleton_certificate(disk).steps[0].frm.dom_subdivision]
    expected = [full_check(w) for w in witnesses]
    calls = request.getfixturevalue("full_checks")
    assert [sd.verify_subdivision(w) for w in witnesses] == expected
    assert len(calls) == len(witnesses)
    for ok, violations in expected:
        assert not ok
        assert any(c == ("a", "b", "c") for _, c, _ in violations)


def test_cli_verify_cert_rejects_a_non_subdivision(tmp_path, disk):
    path = tmp_path / "skeleton.json"
    certio.save(str(path), certio.cert_to_obj(skeleton_certificate(disk)))
    code, out = run_cli("verify-cert", str(path))
    assert code == 1
    assert "check_cert_valid: fail" in out
    assert "witness_cert_valid: step 0 simplex -: bad domain subdivision" \
        in out


def drop_image(scxm: str, v: str) -> str:
    return "".join(line for line in scxm.splitlines(True)
                   if line.split()[:2] != ["image", v])


def test_cli_missing_image_line_exits_2(tmp_path, rot, disk):
    center = "a.b.c^bary"
    path = tmp_path / "bad.json"

    obj = certio.map_to_obj(rot)
    obj["scxm"] = drop_image(obj["scxm"], "a")
    path.write_text(certio.dumps(obj))
    code, out = run_cli("approximate", str(path))
    assert code == 2
    assert "error: FormatError: no image line for fine vertex a\n" in out

    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["steps"][0]["to"]["scxm"] = drop_image(obj["steps"][0]["to"]["scxm"],
                                               "b")
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert "error: FormatError: no image line for fine vertex b\n" in out

    phi = sd.identity_homeo_on(sd.barycentric_subdivide(disk))
    obj = certio.homeo_to_obj(phi)
    obj["scxm"] = drop_image(obj["scxm"], center)
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-normal", str(path))
    assert code == 2
    assert f"error: FormatError: no image line for fine vertex {center}\n" \
        in out


def test_a_map_with_no_image_is_reported_not_raised(tri3, disk):
    """An unchecked map without the image of vertex a fails both verifiers
    with one problem naming a, and nothing else of its step is checked."""
    f = pm.identity_map(tri3)
    g = pm.PLMap(tri3, tri3, f.dom_subdivision,
                 {v: p for v, p in f.vertex_image.items() if v != "a"},
                 f.target_carrier, check=False)
    carriers = {t: t for t in tri3.simplices}

    def cert(*pairs):
        steps = [pm.HomotopyStep(h, k, sd.identity_witness(tri3), carriers)
                 for h, k in pairs]
        return pm.HomotopyCertificate(steps, tri3.subcomplex(()))
    assert pm.verify_certificate(cert((f, g))) == (
        False, [(0, ("a",), "to map has no image of vertex a")])
    assert pm.verify_certificate(cert((g, f))) == (
        False, [(0, ("a",), "from map has no image of vertex a")])
    assert pm.verify_certificate(cert((g, g)))[1] == [
        (0, ("a",), "from map has no image of vertex a"),
        (0, ("a",), "to map has no image of vertex a")]
    # the next step chains from the map without a, and says so
    assert pm.verify_certificate(cert((f, g), (f, f)))[1] == [
        (0, ("a",), "to map has no image of vertex a"),
        (1, ("a",), "steps disagree")]

    w = sd.barycentric_subdivide(disk)
    images = {v: p for v, p in w.fine.vertices.items()
              if v not in ("a", "b")}
    report = sd.verify_normal(sd.PLHomeo(w, images, w.carrier))
    assert not report.normal
    assert not (report.partitions_simplices or report.is_subdivision
                or report.carrier_respecting)
    assert report.violations == [(("a",), None, "no image of vertex a")]


def resize_image(scxm: str, v: str, extra: bool) -> str:
    """The image line of v with a coordinate 1 appended, or its last
    coordinate dropped."""
    def fix(line):
        words = line.split()
        if words[:2] != ["image", v]:
            return line
        return " ".join(words + ["1"] if extra else words[:-1]) + "\n"
    return "".join(map(fix, scxm.splitlines(True)))


def lift(text: str) -> str:
    """SCX text one ambient dimension up, each vertex at height 0."""
    def fix(line):
        words = line.split()
        if words[:1] == ["ambient"]:
            return f"ambient {int(words[1]) + 1}\n"
        return line[:-1] + " 0\n" if words[:1] == ["vertex"] else line
    return "".join(map(fix, text.splitlines(True)))


@pytest.mark.parametrize("extra", [True, False])
def test_cli_wrong_image_arity_exits_2(tmp_path, rot, disk, extra):
    # unchecked, an extra coordinate 1 passes the carrier test (the
    # frame's zip drops it) and crashes evaluation, and a missing one
    # reads as a carrier clash
    center = "a.b.c^bary"
    path = tmp_path / "bad.json"
    size = 3 if extra else 1

    obj = certio.map_to_obj(rot)
    obj["scxm"] = resize_image(obj["scxm"], "a", extra)
    path.write_text(certio.dumps(obj))
    code, out = run_cli("approximate", str(path))
    assert code == 2
    assert (f"error: FormatError: image of fine vertex a has {size} "
            "coordinates, but the codomain has ambient 2\n") in out

    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    step = obj["steps"][0]
    step["to"]["scxm"] = resize_image(step["to"]["scxm"], "b", extra)
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert (f"error: FormatError: image of fine vertex b has {size} "
            "coordinates, but the codomain has ambient 2\n") in out

    phi = sd.identity_homeo_on(sd.barycentric_subdivide(disk))
    obj = certio.homeo_to_obj(phi)
    obj["scxm"] = resize_image(obj["scxm"], center, extra)
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-normal", str(path))
    assert code == 2
    assert (f"error: FormatError: image of fine vertex {center} has {size} "
            "coordinates, but the codomain has ambient 2\n") in out


def test_cli_fine_block_in_another_ambient_exits_2(tmp_path, rot):
    path = tmp_path / "bad.json"
    obj = certio.map_to_obj(rot)
    obj["scxm"] = lift(obj["scxm"])
    path.write_text(certio.dumps(obj))
    code, out = run_cli("approximate", str(path))
    assert code == 2
    assert ("error: FormatError: fine complex has ambient 3, but the "
            "domain has ambient 2\n") in out

    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    refinement = obj["steps"][0]["refinement"]
    refinement["scx"] = lift(refinement["scx"])
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert ("error: FormatError: refinement has ambient 3, but the "
            "domain has ambient 2\n") in out


def test_cli_reports_any_toolkit_error_once(monkeypatch):
    def core(self):
        raise NotClosed("no core today")
    monkeypatch.setattr(Complex, "core", core)
    code, out = run_cli("core", "corpus:disk")
    assert code == 2
    assert out == "command: core\nerror: NotClosed: no core today\n"


def test_cli_has_no_seed():
    code, out = run_cli("euler", "corpus:disk")
    assert code == 0 and "seed" not in out
    with pytest.raises(SystemExit):
        run_cli("--seed", "1", "euler", "corpus:disk")
