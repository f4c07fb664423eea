"""SCX text format, corpus integrity, and the command-line surface."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from plhtpy import certio, complexes, homology, scx
from plhtpy import fungroup as fg
from plhtpy import cylinders as cy
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.cli import main
from plhtpy.complexes import Complex, closed_under_faces, sname, validate
from plhtpy.errors import FormatError, OverlappingSimplices
from plhtpy.homology import euler_characteristic
from conftest import fresh
from test_cylinders import wall_homotopy


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# SCX format
# ---------------------------------------------------------------------------

def test_parse_and_emit_round_trip(corpus):
    for name, (K, subs) in corpus.items():
        text = scx.emit_scx(K, subs)
        K2, subs2 = scx.load_complex(text)
        assert K2 == K
        assert set(subs2) == set(subs)
        for sub in subs:
            assert subs2[sub].members == subs[sub].members
        assert scx.emit_scx(K2, subs2) == text


def test_scx_comments_and_fractions():
    text = ("# a segment\nambient 1\nvertex a 0\nvertex b 1/2\n"
            "simplex a\nsimplex b\nsimplex a b  # top\n")
    K, _ = scx.load_complex(text)
    assert len(K.simplices) == 3
    assert K.vertices["b"] == (scx.Fraction(1, 2),)


def test_scx_errors():
    with pytest.raises(FormatError):
        scx.load_complex("vertex a 0\n")  # no ambient
    with pytest.raises(FormatError):
        scx.load_complex("ambient 1\nfrobnicate a\n")
    with pytest.raises(FormatError):
        scx.load_complex("ambient 1\nvertex a zero\n")
    with pytest.raises(FormatError):
        scx.load_complex("ambient 1\nimage a 0\n")  # SCX-M line in SCX


SEGMENT = "ambient 1\nvertex a 0\nvertex b 1\nsimplex a\nsimplex b\n"


@pytest.mark.parametrize("extra, lineno", [
    ("vertex a 1/2\n", 6),
    ("ambient 1\n", 6),
    ("image a 0\nimage b 1\nimage a 1\n", 8),
    ("carrier a -> a\ncarrier b -> b\ncarrier a -> b\n", 8),
    ("subcomplex ends a b\nsubcomplex ends a\n", 7),
])
def test_scx_duplicate_declarations(extra, lineno):
    # a later line must never silently override an earlier one
    with pytest.raises(FormatError,
                       match=f"^line {lineno}: .*(duplicate|repeated)"):
        scx.parse_scx(SEGMENT + extra)


@pytest.mark.parametrize("text, lineno, cause", [
    ("ambient 1\nvertex a 0\nvertex b-c 1\n", 3, "vertex id 'b-c'"),
    (SEGMENT + "simplex a b-c\n", 6, "vertex id 'b-c'"),
    (SEGMENT + "image b-c 0\n", 6, "vertex id 'b-c'"),
    ("ambient 1 junk\nvertex a 0\n", 1, "stray tokens 'junk'"),
    (SEGMENT + "carrier a -> a extra\n", 6, "stray tokens 'extra'"),
    (SEGMENT + "carrier a => a\n", 6, "carrier syntax"),
    (SEGMENT + "carrier a ->\n", 6, "carrier syntax"),
    ("ambient 1\nvertex a zero\n", 2, "bad coordinate 'zero'"),
    ("ambient 1\nvertex a 1/0\n", 2, "bad coordinate '1/0'"),
    (SEGMENT + "image a nan\n", 6, "bad coordinate 'nan'"),
    ("ambient 1\nfrobnicate a\n", 2, "unknown declaration 'frobnicate'"),
    ("ambient 1\nvertex a 0\nsimplex\n", 3, "simplex with no vertices"),
    ("ambient -1\n", 1, "negative ambient dimension -1"),
])
def test_scx_rejects_ambiguous_lines(text, lineno, cause):
    with pytest.raises(FormatError, match=f"^line {lineno}: .*{cause}"):
        scx.parse_scx(text)


def test_cli_validate_dashed_vertex_exit2(tmp_path):
    # used to pass the parser and fail later as NotSubcomplex ('a','b','c')
    bad = tmp_path / "dash.scx"
    bad.write_text("ambient 1\nvertex a 0\nvertex b-c 1\nsimplex a\n"
                   "simplex b-c\nsimplex a b-c\nsubcomplex end b-c\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert "FormatError: line 3:" in out and "'b-c'" in out


@pytest.mark.parametrize("line, cause", [
    ("vertex b zero", "bad coordinate 'zero'"),
    ("frobnicate a", "unknown declaration 'frobnicate'"),
    ("simplex", "simplex with no vertices"),
])
def test_cli_validate_names_the_bad_line_exit2(tmp_path, line, cause):
    bad = tmp_path / "bad.scx"
    bad.write_text(f"ambient 1\nvertex a 0\n{line}\nsimplex a\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert f"FormatError: line 3: '{line}': {cause}" in out


@pytest.mark.parametrize("coord", ["1e5000", "-1e-5000"])
def test_cli_validate_unwritable_coordinate_exit2(tmp_path, coord):
    # parses to more digits than emit_scx can write: used to exit 1 with a
    # traceback while computing the digest
    bad = tmp_path / "big.scx"
    bad.write_text(f"ambient 1\nvertex a {coord}\nsimplex a\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plhtpy.cli", "validate", str(bad)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert (f"FormatError: line 2: 'vertex a {coord}': coordinate "
            f"'{coord}' has more digits than can be written back"
            in proc.stdout)


@pytest.mark.parametrize("coord", ["1e1000000000", "1e-1000000000"])
def test_huge_exponent_exits2_at_once(tmp_path, disk, coord):
    # Fraction raises 10 to the exponent: hours before the exponent bound
    cause = f"coordinate '{coord}' has more digits than can be written back"
    bad = tmp_path / "huge.scx"
    bad.write_text(f"ambient 1\nvertex a 0\nvertex b {coord}\nsimplex a\n")
    start = time.perf_counter()
    code, out = run_cli("validate", str(bad))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"FormatError: line 3: 'vertex b {coord}': {cause}" in out
    obj = certio.homeo_to_obj(sd.identity_homeo_on(
        sd.barycentric_subdivide(disk)))
    line = f"image a {coord} 0"
    obj["scxm"] = obj["scxm"].replace("image a 0 0\n", line + "\n")
    lineno = obj["scxm"].splitlines().index(line) + 1
    path = tmp_path / "huge.json"
    path.write_text(certio.dumps(obj))
    start = time.perf_counter()
    code, out = run_cli("verify-normal", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"line {lineno}: '{line}': {cause}" in out


@pytest.mark.parametrize("coord, value", [
    ("1e500", F(10 ** 500)), ("1e-500", F(1, 10 ** 500)),
    ("12.5e3", F(12500)), ("3/4", F(3, 4)), ("0e1000000000", F(0)),
    ("-2.5e-3", F(-1, 400))])
def test_exponent_bound_keeps_values(coord, value):
    assert scx.parse_scx(f"ambient 1\nvertex a {coord}\n")[1]["a"] \
        == (value,)


@pytest.mark.parametrize("coord, cause", [
    ("1e5000", "has more digits than can be written back"),
    ("1e5_000", "has more digits than can be written back"),
    ("1e-5000", "has more digits than can be written back"),
    ("1/2e5", "bad coordinate"), ("e5", "bad coordinate")])
def test_exponent_bound_keeps_messages(coord, cause):
    with pytest.raises(FormatError, match=f"^line 2: .*{cause}"):
        scx.parse_scx(f"ambient 1\nvertex a {coord}\n")


def test_cli_validate_negative_ambient_exit2(tmp_path):
    bad = tmp_path / "neg.scx"
    bad.write_text("ambient -1\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert ("FormatError: line 1: 'ambient -1': negative ambient "
            "dimension -1") in out


def test_cli_verify_normal_rejects_duplicate_image(tmp_path, disk):
    phi = sd.identity_homeo_on(sd.barycentric_subdivide(disk))
    obj = certio.homeo_to_obj(phi)
    center = "a.b.c^bary"
    obj["scxm"] += f"image {center} 1/2 0\n"
    path = tmp_path / "dup.json"
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-normal", str(path))
    assert code == 2
    assert "FormatError" in out and f"duplicate image {center}" in out
    obj = certio.homeo_to_obj(phi)
    first = obj["witness"][0].split(" -> ")[0]
    obj["witness"].append(first + " -> a")
    n = len(obj["witness"])
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-normal", str(path))
    assert code == 2
    assert (f"FormatError: plhtpy-homeo/1: field 'witness' line {n}: "
            f"'{first} -> a': duplicate carrier {first}\n") in out


def test_cli_stray_container_carrier_line_exits_2(tmp_path, rot, disk):
    """A container carrier line is read as an SCX-M `carrier` line is: one
    whose fine simplex is not in its block's fine complex is an input
    error naming the format, the field and the line, never a line the
    verifier silently skips."""
    path = tmp_path / "stray.json"

    def rejects(command, obj, fmt, lines, line):
        lines.append(line)
        path.write_text(certio.dumps(obj))
        code, out = run_cli(command, str(path))
        assert code == 2, out
        assert (f"error: FormatError: {fmt}: field {field!r} line "
                f"{len(lines)}: '{line}': not in the fine complex\n") in out

    field = "witness"
    obj = certio.map_to_obj(rot)
    rejects("approximate", obj, "plhtpy-map/1", obj["witness"], "zz-yy -> a")
    phi = sd.identity_homeo_on(sd.barycentric_subdivide(disk))
    obj = certio.homeo_to_obj(phi)
    rejects("verify-normal", obj, "plhtpy-homeo/1", obj["witness"], "a-b -> a")
    _, cert = pm.simplicial_approximation(rot)
    fmt = "plhtpy-cert/1"
    for key in ("from", "to", "refinement"):
        obj = certio.cert_to_obj(cert)
        rejects("verify-cert", obj, fmt, obj["steps"][0][key]["witness"],
                "qq -> a")
    field = "carriers"
    obj = certio.cert_to_obj(cert)
    rejects("verify-cert", obj, fmt, obj["steps"][0]["carriers"],
            "zz-yy -> a")


def test_scxm_round_trip(rot):
    text = scx.emit_scxm(rot.fine, rot.vertex_image, rot.target_carrier)
    fine, images, carriers = scx.load_scxm(text)
    assert fine == rot.fine
    assert images == rot.vertex_image
    assert carriers == rot.target_carrier
    assert scx.emit_scxm(fine, images, carriers) == text


def test_corpus_shapes(corpus):
    counts = {name: len(K.simplices) for name, (K, _) in corpus.items()}
    assert counts == {"tri3": 6, "disk": 7, "s2": 14, "wedge2": 11,
                      "cube1": 3, "cube2": 11, "torus7": 42, "rp6": 31}
    # minimal triangulations: torus7 has 7 vertices and 14 triangles,
    # rp6 has 6 vertices and 10 triangles
    torus7 = corpus["torus7"][0]
    assert (len(torus7.by_dim(0)), len(torus7.by_dim(2))) == (7, 14)
    rp6 = corpus["rp6"][0]
    assert (len(rp6.by_dim(0)), len(rp6.by_dim(2))) == (6, 10)
    for name, (K, _) in corpus.items():
        assert K.is_closed(), name


def test_corpus_env_override(tmp_path, monkeypatch, tri3):
    other = tmp_path / "alt.scx"
    other.write_text(scx.emit_scx(tri3))
    monkeypatch.setenv("PLHTPY_CORPUS", str(tmp_path))
    K, _ = scx.load_corpus("alt")
    assert K == tri3


def test_digest_is_sha256(tri3):
    text = scx.emit_scx(tri3)
    assert scx.digest(text) == hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# CLI: oracles and exit codes
# ---------------------------------------------------------------------------

def test_cli_homology_torus7():
    code, out = run_cli("homology", "corpus:torus7", "--dim", "1")
    assert code == 0
    assert "H1: Z^2" in out


def test_cli_validate_duplicate_exit2(tmp_path):
    bad = tmp_path / "dup.scx"
    bad.write_text("ambient 1\nvertex a 0\nvertex b 1\n"
                   "simplex a\nsimplex b\nsimplex a b\nsimplex a b\n")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    assert "DuplicateSimplex" in out


def test_cli_missing_file_exit2():
    code, out = run_cli("validate", "/nonexistent/x.scx")
    assert code == 2


@pytest.mark.parametrize("cmd", ["validate", "verify-cert"])
def test_cli_undecodable_file_exit2(tmp_path, cmd):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfea\x00")
    code, out = run_cli(cmd, str(path))
    assert code == 2
    assert f"error: FormatError: {path}: " in out
    assert "can't decode byte 0xff" in out


def test_cli_deeply_nested_container_exit2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert f"error: FormatError: {path}: not valid JSON: " in out


def test_cli_container_with_a_repeated_key_exit2(tmp_path, rot):
    # the first "fixed" fails the certificate; a JSON reader that keeps the
    # last value of a key would pass it on the second
    mapfile = tmp_path / "rot.json"
    certfile = tmp_path / "cert.json"
    certio.save(str(mapfile), certio.map_to_obj(rot))
    code, _ = run_cli("approximate", str(mapfile), "--cert", str(certfile))
    assert code == 0
    text = certfile.read_text()
    assert text.count(' "fixed": [],\n') == 1
    certfile.write_text(text.replace(
        ' "fixed": [],\n', ' "fixed": ["a", "b", "c"],\n "fixed": [],\n'))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plhtpy.cli", "verify-cert", str(certfile)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert f"error: FormatError: {certfile}: repeated key 'fixed'" \
        in proc.stdout


def test_cli_verify_cert_tampered_exit1(tmp_path, rot):
    from plhtpy.plmaps import simplicial_approximation
    _, cert = simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    line = obj["steps"][0]["carriers"][0]
    obj["steps"][0]["carriers"][0] = line.split(" -> ")[0] + " -> a"
    path = tmp_path / "bad.json"
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 1
    assert "witness_cert_valid" in out and "simplex" in out


def test_cli_emitted_cert_passes_in_separate_process(tmp_path, rot):
    mapfile = tmp_path / "rot.json"
    certfile = tmp_path / "cert.json"
    certio.save(str(mapfile), certio.map_to_obj(rot))
    code, _ = run_cli("approximate", str(mapfile), "--cert", str(certfile))
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "plhtpy.cli", "verify-cert", str(certfile)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check_cert_valid: pass" in proc.stdout


def test_cli_verify_cert_without_steps_exit2(tmp_path, rot):
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["steps"] = []
    path = tmp_path / "empty.json"
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert "error: FormatError: plhtpy-cert/1: field 'steps' is empty" in out


def test_cli_verify_cert_rejects_misplaced_scxm_lines(tmp_path, rot):
    # a refinement is plain SCX without subcomplexes, and an SCX-M block
    # names no subcomplex: a line out of place is an input error, never
    # silently dropped
    _, cert = pm.simplicial_approximation(rot)
    for where, line, cause in [
            (("refinement", "scx"), "image a 5 5",
             "SCX-M declarations in plain SCX input"),
            (("refinement", "scx"), "subcomplex junk a",
             "subcomplex declarations in a refinement"),
            (("from", "scxm"), "subcomplex junk a",
             "subcomplex declarations in SCX-M input")]:
        obj = certio.cert_to_obj(cert)
        block = obj["steps"][0][where[0]]
        block[where[1]] += line + "\n"
        path = tmp_path / "misplaced.json"
        path.write_text(certio.dumps(obj))
        code, out = run_cli("verify-cert", str(path))
        assert code == 2, where
        assert f"error: FormatError: {cause}" in out


@pytest.mark.parametrize("line", [
    "image zzz 0 0", "carrier zzz -> a", "vertex zzz 7 7"])
def test_cli_verify_cert_rejects_stray_scxm_lines(tmp_path, rot, line):
    # an SCX-M line about no vertex or simplex of the fine complex is an
    # input error naming the line, never silently dropped
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["steps"][0]["from"]["scxm"] += line + "\n"
    path = tmp_path / "stray.json"
    path.write_text(certio.dumps(obj))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert f"'{line}': not in the fine complex" in out


# ---------------------------------------------------------------------------
# One Complex per distinct block
# ---------------------------------------------------------------------------

def test_loaders_share_one_complex_per_distinct_block(rot):
    _, cert = pm.simplicial_approximation(rot)
    loaded = certio.cert_from_obj(certio.cert_to_obj(cert))
    assert loaded.initial.domain is loaded.initial.codomain
    for step in loaded.steps:
        assert step.frm.fine is step.to.fine is step.refinement.coarse
        assert step.frm.domain is loaded.initial.domain
    f, _ = certio.map_from_obj(certio.map_to_obj(rot))
    assert f.domain is f.codomain
    phi = certio.homeo_from_obj(certio.homeo_to_obj(sd.identity_homeo(
        rot.domain)))
    assert phi.fine is phi.domain is phi.codomain


def declarations(text, kinds):
    return [line.split() for line in text.splitlines()
            if line.split()[:1] and line.split()[0] in kinds]


def test_loaders_parse_each_distinct_block_once(monkeypatch, rot):
    """The `to` and refinement blocks of the rot approximation certificate
    repeat its `from` block: their coordinates are parsed once, and only
    their own `image` lines are read.  The same block spelled otherwise
    (`2/4`, a comment, leading blanks) is parsed in full into its own
    Complex, equal by value, and the certificate still verifies.  A bad
    line of a block found in the table is named by its own line number."""
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    step = obj["steps"][0]
    scxm = [step[key]["scxm"] for key in ("from", "to")]
    texts = [obj["domain"], *scxm, step["refinement"]["scx"]]
    blocks = {str(declarations(t, ("ambient", "vertex", "simplex"))): t
              for t in texts}
    assert len(blocks) == 2
    coords = (sum(len(toks) - 2 for t in blocks.values()
                  for toks in declarations(t, ("vertex",)))
              + sum(len(toks) - 2 for t in scxm
                    for toks in declarations(t, ("image",))))
    parsed = []
    parse = scx._parse_coord
    monkeypatch.setattr(scx, "_parse_coord",
                        lambda tok: parsed.append(tok) or parse(tok))
    certio.cert_from_obj(obj)
    assert len(parsed) == coords == 42

    fine_coords = sum(len(toks) - 2
                      for toks in declarations(scxm[1], ("vertex",)))
    line = "vertex a.b^bary 1/2 0\n"
    for spelling in ("vertex a.b^bary 2/4 0\n",
                     "vertex a.b^bary 1/2 0  # the midpoint of a-b\n",
                     "  " + line):
        step["to"]["scxm"] = scxm[1].replace(line, spelling)
        parsed.clear()
        loaded = certio.cert_from_obj(obj)
        assert len(parsed) == coords + fine_coords, spelling
        frm, to = loaded.steps[0].frm, loaded.steps[0].to
        assert to.fine is not frm.fine, spelling
        assert to.fine == frm.fine, spelling
        assert pm.verify_certificate(loaded) == (True, []), spelling

    bad = scxm[1].replace("image a.b^bary 1 0\n", "image a.b^bary one 0\n")
    lineno = bad.splitlines().index("image a.b^bary one 0") + 1
    step["to"]["scxm"] = bad
    with pytest.raises(FormatError, match=(
            f"^line {lineno}: 'image a.b\\^bary one 0': "
            "bad coordinate 'one'$")):
        certio.cert_from_obj(obj)


def test_a_checked_block_reuses_only_a_checked_complex():
    text = scx.emit_scx(overlapping_domain())
    blocks = {}
    K, _ = scx.load_complex(text, check_disjoint=False, blocks=blocks)
    assert scx.load_complex(text, check_disjoint=False, blocks=blocks)[0] is K
    with pytest.raises(OverlappingSimplices):
        scx.load_complex(text, blocks=blocks)


# ---------------------------------------------------------------------------
# One SCX text per complex
# ---------------------------------------------------------------------------

def test_emit_scx_writes_each_complex_once(corpus):
    K, subs = corpus["disk"]
    K = fresh(K)
    text = scx.emit_scx(K)
    assert text == scx.emit_scx(fresh(K))
    with_subs = scx.emit_scx(K, subs)
    assert with_subs == scx.emit_scx(fresh(K), subs)
    assert with_subs.startswith(text) and with_subs != text
    assert scx.emit_scx(K) == text


def fresh_witness(w):
    return sd.SubdivisionWitness(fresh(w.fine), fresh(w.coarse), w.carrier)


def fresh_map(f):
    return pm.PLMap(fresh(f.domain), fresh(f.codomain),
                    fresh_witness(f.dom_subdivision), f.vertex_image,
                    f.target_carrier, check=False)


def refreshed(fmt, obj):
    """The decoded container `obj` with a fresh copy of every complex in
    it, emitted again."""
    if fmt == certio.MAP_FORMAT:
        return certio.map_to_obj(fresh_map(obj[0]))
    if fmt == certio.HOMEO_FORMAT:
        return certio.homeo_to_obj(sd.PLHomeo(
            fresh_witness(obj.witness), obj.vertex_image, obj.target_carrier))
    return certio.cert_to_obj(pm.HomotopyCertificate(
        [pm.HomotopyStep(fresh_map(s.frm), fresh_map(s.to),
                         fresh_witness(s.refinement), s.carriers)
         for s in obj.steps], obj.fixed_set))


def test_written_containers_match_fresh_emission(tmp_path, rot):
    mapfile = tmp_path / "rot.json"
    certio.save(str(mapfile), certio.map_to_obj(rot))
    paths = [tmp_path / name for name in ("g.json", "cert.json", "h.json")]
    assert run_cli("approximate", str(mapfile), "--out", str(paths[0]),
                   "--cert", str(paths[1]))[0] == 0
    assert run_cli("extend-normal", "corpus:disk", "--sub", "boundary",
                   "--rounds", "2", "--out", str(paths[2]))[0] == 0
    for path in paths:
        text = path.read_text()
        assert certio.dumps(refreshed(*certio.load(str(path)))) == text, path


# ---------------------------------------------------------------------------
# Artifact writing: the stdlib encoder's bytes at C speed
# ---------------------------------------------------------------------------

def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def golden_containers(rot, perturbed_disk, disk, disk_boundary):
    """name -> container object of four Tier-1 artifacts."""
    _, approx = pm.simplicial_approximation(rot)
    _, rel = pm.simplicialize_rel(perturbed_disk, disk_boundary)
    phi0 = sd.identity_homeo_on(
        sd.iterated_subdivision(disk_boundary.as_complex(), 2))
    phi = sd.extend_normal(disk, disk_boundary, phi0)
    return {"map rot": certio.map_to_obj(rot),
            "approximate rot": certio.cert_to_obj(approx),
            "simplicialize_rel perturbed_disk": certio.cert_to_obj(rel),
            "extend-normal disk r=2": certio.homeo_to_obj(phi)}


# sha256 of each container as the stdlib's json.dumps(sort_keys=True,
# indent=1) wrote it before `certio.dumps` had its own writer
GOLDEN = {
    "map rot":
        "c44ae4106abff0a36f24b0f4b4dbe8c92dd186966668c2693a76b82507b1fb6b",
    "approximate rot":
        "94288ded26b6a71db38b32120eea3effc558dbb1916b18742c5d425de8d68c0d",
    "simplicialize_rel perturbed_disk":
        "8b98ac2e2c7fff20bfafabbde73568c92e046c3ebb22aab32052b50a7f5d31e7",
    "extend-normal disk r=2":
        "987dbc25f36737990dd9b9352bfba5c33c15d3a338a758849304978718d91b9a",
}


class Tagged(str):
    """A str subclass: `certio.dumps` writes it as the stdlib does."""


def test_dumps_writes_the_stdlib_bytes(rot, perturbed_disk, disk,
                                       disk_boundary):
    objs = golden_containers(rot, perturbed_disk, disk, disk_boundary)
    for name, obj in objs.items():
        text = certio.dumps(obj)
        assert scx.digest(text) == GOLDEN[name], name
        assert text == stdlib_dumps(obj), name
    for obj in ([], {}, [[]], {"a": {}, "b": []},
                "caf\u00e9 \u2603 \U0001f600 \x00\x1f\t\n\"\\/\x7f",
                {"\u00e9\n": ["\x00", "\u2028"], "": ""},
                [{"b": ["x", "y"], "a": "z"}, {}, {"c": [{"d": []}]}],
                {"n": [0, -3, True, None], "f": ["1/2", "-1"]},
                ["a", 1, "b"], [Tagged("x\u00e9"), "y"]):
        assert certio.dumps(obj) == stdlib_dumps(obj), obj


def test_dumps_stays_off_the_pure_python_encoder(monkeypatch, rot):
    # CPython's json leaves its C encoder for the generators that
    # _make_iterencode builds whenever `indent` is set
    _, cert = pm.simplicial_approximation(rot)
    expected = stdlib_dumps(certio.cert_to_obj(cert))

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert certio.dumps(certio.cert_to_obj(cert)) == expected


def reference_carrier_lines(carriers):
    return [f"{sname(s)} -> {sname(carriers[s])}"
            for s in sorted(carriers, key=lambda s: (len(s), s))]


@pytest.mark.parametrize("keys", ["full", "missing", "extra"])
def test_carrier_lines_match_the_sorted_reference(rot, keys):
    # `a!` sorts after `a` as a vertex id, but `a!-b` before `a-c` as a
    # name: lines go by dimension, then vertex ids
    odd = Complex(1, {"a": (0,), "a!": (1,), "b": (2,), "c": (3,)},
                  [("a",), ("a!",), ("b",), ("c",), ("a", "c"), ("a!", "b")])
    for K, carriers in ((fresh(rot.fine), dict(rot.dom_subdivision.carrier)),
                        (odd, {s: s[:1] for s in odd.simplices})):
        if keys == "missing":
            del carriers[max(carriers)]
        elif keys == "extra":
            carriers[("zz",)] = ("a",)
        assert scx.carrier_lines(carriers, K) == \
            reference_carrier_lines(carriers)


def test_canonical_order_is_sorted_once_per_complex(monkeypatch, disk):
    # every walk over one fresh complex reads the order it sorted once, and
    # its closedness is decided once
    w = sd.barycentric_subdivide(disk)
    K = fresh(w.fine)
    by_key = sorted(K.simplices, key=lambda s: (len(s), s))
    sorts, closed_checks = [], []

    def counting_sorted(items, **kwargs):
        if items is K.simplices or kwargs.get("key") is complexes.canonical_key:
            sorts.append(len(items))
        return sorted(items, **kwargs)

    def counting_closed(simplices):
        closed_checks.append(len(simplices))
        return closed_under_faces(simplices)

    for module in (complexes, scx, homology, fg, sd):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(complexes, "closed_under_faces", counting_closed)
    lines = scx.emit_scx(K).splitlines()
    assert [x for x in lines if x.startswith("simplex ")] == \
        ["simplex " + " ".join(s) for s in by_key]
    assert scx.carrier_lines(w.carrier, K) == \
        reference_carrier_lines(w.carrier)
    assert homology.chain_complex(K).basis == \
        {n: [s for s in by_key if len(s) == n + 1] for n in range(3)}
    assert [s for n in range(3) for s in K.by_dim(n)] == by_key
    assert K.vertex_ids() == [s[0] for s in by_key if len(s) == 1]
    fg.Presentation(K, K.vertex_ids()[0])
    sd.barycentric_subdivide(K)
    pm.identity_map(K)
    assert K.canonical_order() == by_key
    assert K.simplex_names() == [sname(s) for s in by_key]
    assert sorts == [len(K)]
    assert closed_checks == [len(K)]


def test_cli_verify_cert_tells_a_moved_fine_vertex_apart(tmp_path, rot):
    # the from and to blocks differ in one coordinate only: two fine
    # complexes, not one shared
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    block = obj["steps"][0]["to"]
    assert "vertex a.b^bary 1/2 0\n" in block["scxm"]
    block["scxm"] = block["scxm"].replace("vertex a.b^bary 1/2 0\n",
                                          "vertex a.b^bary 1/3 0\n")
    path = tmp_path / "moved.json"
    certio.save(str(path), obj)
    code, out = run_cli("verify-cert", str(path))
    assert code == 1
    assert ("witness_cert_valid: step 0 simplex -: domain subdivision "
            "mismatch") in out


def test_cli_verify_cert_loads_a_codomain_with_an_overlap(tmp_path, rot):
    # a codomain text that differs from the domain's by an overlapping
    # vertex is its own block, loaded without the disjointness check
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["codomain"] += "vertex d 1/4 1/4\nsimplex d\n"
    f = certio.cert_from_obj(obj).initial
    assert ("d",) in f.codomain and ("d",) not in f.domain
    path = tmp_path / "codomain.json"
    certio.save(str(path), obj)
    code, out = run_cli("verify-cert", str(path))
    assert code == 0
    assert "check_cert_valid: pass" in out


def test_cli_verify_cert_rejects_an_overlapping_domain_as_codomain(tmp_path):
    # the codomain text equals the domain's, so the codomain is the checked
    # domain, and the overlap is still an input error
    K = overlapping_domain()
    f = pm.PLMap(K, K, sd.identity_witness(K), dict(K.vertices),
                 {s: s for s in K.simplices})
    obj = certio.cert_to_obj(pm.straight_line_homotopy(f, f))
    assert obj["domain"] == obj["codomain"]
    path = tmp_path / "overlap.json"
    certio.save(str(path), obj)
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert ("error: OverlappingSimplices: open simplices a-b-c and d "
            "intersect") in out


CONTAINER_COMMANDS = {"map": "approximate", "homeo": "verify-normal",
                      "cert": "verify-cert"}
CONTAINER_FIELDS = [
    ("map", ("domain",)), ("map", ("codomain",)), ("map", ("scxm",)),
    ("map", ("witness",)),
    ("homeo", ("complex",)), ("homeo", ("scxm",)), ("homeo", ("witness",)),
    ("cert", ("domain",)), ("cert", ("codomain",)), ("cert", ("fixed",)),
    ("cert", ("steps",)), ("cert", ("steps", 0, "from")),
    ("cert", ("steps", 0, "to")), ("cert", ("steps", 0, "refinement")),
    ("cert", ("steps", 0, "carriers")), ("cert", ("steps", 0, "to", "scxm")),
    ("cert", ("steps", 0, "from", "witness")),
    ("cert", ("steps", 0, "refinement", "scx")),
    ("cert", ("steps", 0, "refinement", "witness"))]


def container_obj(kind, rot, disk):
    if kind == "map":
        return certio.map_to_obj(rot)
    if kind == "homeo":
        phi = sd.identity_homeo_on(sd.barycentric_subdivide(disk))
        return certio.homeo_to_obj(phi)
    return certio.cert_to_obj(pm.simplicial_approximation(rot)[1])


@pytest.mark.parametrize("kind, path", CONTAINER_FIELDS,
                         ids=lambda x: x if isinstance(x, str) else
                         ".".join(map(str, x)))
@pytest.mark.parametrize("damage", ["drop", "retype"])
def test_cli_malformed_container_exit2(tmp_path, rot, disk, kind, path,
                                       damage):
    obj = container_obj(kind, rot, disk)
    fmt = obj["format"]
    *parents, key = path
    holder = obj
    for p in parents:
        holder = holder[p]
    if damage == "drop":
        del holder[key]
        cause = f"{fmt}: missing field {key!r}"
    else:
        # a list of lines gets a non-string line, anything else a number
        holder[key] = [5] if isinstance(holder[key], list) else 5
        cause = f"{fmt}: field {key!r} is not a "
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(obj))
    code, out = run_cli(CONTAINER_COMMANDS[kind], str(file))
    assert code == 2
    assert f"error: FormatError: {cause}" in out


def save_extension_input(tmp_path, corpus, u0_bottom, u1_bottom=F(1)):
    """f = identity of cube1 (with its subcomplex `ends`) and H sliding
    u0 from `u0_bottom` to 1/2 and u1 from `u1_bottom` to 1 over the walls
    above both ends."""
    K, subs = corpus["cube1"]
    H = wall_homotopy(K, cy.prism_triangulate(K), K,
                      {"u0": {0: (u0_bottom,), 1: (F(1, 2),)},
                       "u1": {0: (u1_bottom,), 1: (F(1),)}})
    fpath, hpath = tmp_path / "f.json", tmp_path / "h.json"
    certio.save(str(fpath), certio.map_to_obj(pm.identity_map(K), subs))
    certio.save(str(hpath), certio.map_to_obj(H))
    return str(fpath), str(hpath)


def test_cli_extend_homotopy_cube1_ends(tmp_path, corpus):
    fpath, hpath = save_extension_input(tmp_path, corpus, F(0))
    texts = []
    for name in ("g1.json", "g2.json"):
        out = tmp_path / name
        code, report = run_cli("extend-homotopy", fpath, hpath,
                               "--sub", "ends", "--out", str(out))
        assert code == 0, report
        assert "check_agrees_with_map_at_bottom: pass" in report
        assert "check_agrees_with_homotopy_on_walls: pass" in report
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    G, _ = certio.map_from_obj(json.loads(texts[0]))
    assert G.evaluate((F(0), F(1))) == (F(1, 2),)


def test_cli_extend_homotopy_bottom_mismatch_exit2(tmp_path, corpus):
    fpath, hpath = save_extension_input(tmp_path, corpus, F(1, 3))
    code, report = run_cli("extend-homotopy", fpath, hpath, "--sub", "ends")
    assert code == 2
    assert "H(.,0) differs from f at u0" in report


def test_cli_corpus_emit_round_trip(tmp_path):
    out = tmp_path / "t.scx"
    code, text = run_cli("corpus", "emit", "torus7", "--out", str(out))
    assert code == 0
    digest1 = [v for k, v in (line.split(": ", 1) for line in
                              text.strip().splitlines()) if k == "digest"][0]
    code, text2 = run_cli("validate", str(out))
    assert code == 0
    assert f"digest: {digest1}" in text2


def test_cli_star_core_euler():
    code, out = run_cli("star", "corpus:disk", "--simplex", "a")
    assert code == 0 and "star_members: a a-b a-b-c a-c" in out
    code, out = run_cli("core", "corpus:disk")
    assert code == 0 and "core_size: 7" in out
    code, out = run_cli("euler", "corpus:s2")
    assert code == 0 and "euler_characteristic: 2" in out


def test_cli_pi_commands():
    code, out = run_cli("pi0", "corpus:wedge2")
    assert code == 0 and "components: 1" in out
    code, out = run_cli("pi1", "corpus:tri3")
    assert code == 0 and "abelianization: Z" in out
    code, out = run_cli("hurewicz", "corpus:torus7")
    assert code == 0 and "check_isomorphism_on_abelianization: pass" in out
    code, out = run_cli("pi2", "corpus:s2")
    assert code == 0 and "pi2: Z" in out
    code, out = run_cli("pi2", "corpus:torus7")
    assert code == 1 and "check_simply_connected: fail" in out


@pytest.mark.parametrize("cmd", ["pi1", "hurewicz", "pi2"])
def test_cli_base_vertex_of_an_empty_complex_exit2(tmp_path, cmd):
    path = tmp_path / "empty.scx"
    path.write_text("ambient 2\n")
    code, out = run_cli(cmd, str(path))
    assert code == 2
    assert "error: the complex has no vertex to take as base" in out


@pytest.mark.parametrize("args", [
    ("subdivide", "corpus:disk", "--rounds", "-2"),
    ("extend-normal", "corpus:disk", "--sub", "boundary", "--rounds", "-1"),
    ("approximate", "{map}", "--max-rounds", "-1"),
    ("simplicialize", "{map}", "--max-rounds", "-1"),
], ids=lambda args: args[0])
def test_cli_rejects_a_negative_round_count(tmp_path, rot, args):
    path = tmp_path / "rot.json"
    certio.save(str(path), certio.map_to_obj(rot))
    code, out = run_cli(*(a.format(map=path) for a in args))
    assert code == 2
    assert "error: ValueOutOfRange: negative round count -" in out


def overlapping_domain():
    """Closed triangles a-b-c and d-e-f, with d inside open a-b-c."""
    verts = {"a": (0, 0), "b": (1, 0), "c": (0, 1),
             "d": (F(1, 4), F(1, 4)), "e": (2, 0), "f": (0, 2)}
    return validate(2, verts, [["a", "b", "c"], ["d", "e", "f"]],
                    check_disjoint=False).closure()


def test_cli_verify_cert_rejects_an_overlapping_domain(tmp_path, disk):
    # f is the identity on a-b-c and constant on d-e-f, so it takes two
    # values at d: no function, though every step witness checks out
    K = overlapping_domain()
    image = {v: (K.vertices[v] if v in "abc" else K.vertices["a"])
             for v in K.vertices}
    carrier = {s: (s if set(s) <= set("abc") else ("a",))
               for s in K.simplices}
    f = pm.PLMap(K, disk, sd.identity_witness(K), image, carrier)
    step = pm.HomotopyStep(f, f, sd.identity_witness(K), carrier)
    cert = pm.HomotopyCertificate([step], K.subcomplex(()))
    path = tmp_path / "overlap.json"
    certio.save(str(path), certio.cert_to_obj(cert))
    code, out = run_cli("verify-cert", str(path))
    assert code == 2
    assert ("error: OverlappingSimplices: open simplices a-b-c and d "
            "intersect") in out


def test_cli_verify_normal_rejects_an_overlapping_complex(tmp_path):
    path = tmp_path / "overlap.json"
    phi = sd.identity_homeo(overlapping_domain())
    certio.save(str(path), certio.homeo_to_obj(phi))
    code, out = run_cli("verify-normal", str(path))
    assert code == 2
    assert ("error: OverlappingSimplices: open simplices a-b-c and d "
            "intersect") in out


def test_cli_json_format():
    code, out = run_cli("--format", "json", "euler", "corpus:disk")
    assert code == 0
    data = json.loads(out)
    assert ["euler_characteristic", "1"] in data["report"]


def test_cli_unknown_subcomplex_exit2():
    code, out = run_cli("les", "corpus:disk", "--sub", "nope")
    assert code == 2


DETERMINISM_COMMANDS = [
    ("validate", "corpus:{}"),
    ("subdivide", "corpus:{}"),
    ("core", "corpus:{}"),
    ("homology", "corpus:{}"),
    ("pi0", "corpus:{}"),
    ("euler", "corpus:{}"),
]


def test_cli_reports_are_deterministic():
    for name in scx.CORPUS_NAMES:
        for cmd, pattern in DETERMINISM_COMMANDS:
            args = (cmd, pattern.format(name))
            first = run_cli(*args)
            second = run_cli(*args)
            assert first == second, args


# ---------------------------------------------------------------------------
# Failure witnesses do not depend on the hash seed
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_under_seeds(*args):
    """{(exit code, stdout)} of one command run in a fresh process under
    each of the hash seeds 1-4."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outcomes = set()
    for seed in "1234":
        proc = subprocess.run(
            [sys.executable, "-m", "plhtpy.cli", *args],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
        outcomes.add((proc.returncode, proc.stdout))
    return outcomes


def test_fixed_set_witness_is_seed_independent(tmp_path, rot):
    # rot moves every vertex of the triangle: each is a moved fixed vertex,
    # and the witness names the least
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["fixed"] = ["a", "b", "c"]
    path = tmp_path / "fixed.json"
    path.write_text(certio.dumps(obj))
    [(code, out)] = run_under_seeds("verify-cert", str(path))
    assert code == 1
    assert ("witness_cert_valid: step 0 simplex a: "
            "not constant on fixed set") in out


def test_chain_witness_is_seed_independent(tmp_path, rot):
    # the step repeated: step 1 starts at rot, where step 0 ended at its
    # simplicial approximation
    _, cert = pm.simplicial_approximation(rot)
    obj = certio.cert_to_obj(cert)
    obj["steps"] = obj["steps"] * 2
    path = tmp_path / "chain.json"
    path.write_text(certio.dumps(obj))
    [(code, out)] = run_under_seeds("verify-cert", str(path))
    assert code == 1
    assert "witness_cert_valid: step 1 simplex a: steps disagree" in out


def test_extension_bottom_witness_is_seed_independent(tmp_path, corpus):
    fpath, hpath = save_extension_input(tmp_path, corpus, F(1, 3), F(2, 3))
    [(code, out)] = run_under_seeds("extend-homotopy", fpath, hpath,
                                    "--sub", "ends")
    assert code == 2
    assert "error: Incompatible: H(.,0) differs from f at u0" in out
