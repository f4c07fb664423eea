"""Seeded job lists and oracles of the three benchmark workloads.

A workload builder takes ``P`` -- a namespace holding the freshly imported
plhtpy modules -- and a seed, and returns a list of jobs.  Every job
carries the verdict an oracle expects; the oracles are written here from
known topology and simple counting, never from the program's own output:

* ``invariants``: homology, relative homology, the long exact sequence,
  pi_0, pi_1, Hurewicz, pi_2 and Euler characteristic of the corpus at
  subdivision depths r=0 and r=1 (rp6 and torus7 at r=0 only) and of the
  disk at r=2.  Groups are invariant under subdivision, so one table per
  space serves every depth.  The seed picks the base vertices and the job
  order.
* ``certify``: the producer side -- simplicial approximation, the rel
  pipeline, map subdivision, normal extension and the cylinder
  retraction with homotopy extension -- each job emitting its artifact.
* ``verify``: the trust anchors on serialized text: ``validate`` with
  disjointness on SCX, ``verify_certificate`` and ``verify_normal`` on
  JSON containers, a seeded share of them tampered (see ``tamper.py``).

Jobs call plhtpy only through module attributes looked up at call time
(``P.homology.HomologyData``), so the tracer's rebinding reaches them, and
each job gets freshly built input objects from ``prepare`` so no cached
state carries over from one pass to the next.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import tamper

BUDGET_S = 20.0     # per-job time limit; the slowest seed job takes ~2 s
MAX_ROUNDS = 8

# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class Job:
    """One closed-loop request.

    ``prepare()`` builds fresh inputs (untimed); ``run(*inputs)`` returns
    ``(verdict, detail)``.  The verdict is compared with ``expect``; the
    detail (an artifact digest or the verifier's first problem) enters the
    run digest and is printed as the witness when the verdict is wrong.
    ``klass`` groups failures in the report: the tamper class for tampered
    inputs, otherwise the job kind.  ``describe()`` renders the inputs as
    canonical text for the input digest.
    """

    __slots__ = ("id", "kind", "klass", "prepare", "run", "expect",
                 "describe", "budget_s")

    def __init__(self, id, kind, prepare, run, expect, describe,
                 klass=None, budget_s=BUDGET_S):
        self.id = id
        self.kind = kind
        self.klass = klass or kind
        self.prepare = prepare
        self.run = run
        self.expect = expect
        self.describe = describe
        self.budget_s = budget_s


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def fresh(P, K):
    """A new Complex equal to K, so per-object caches start empty."""
    return P.complexes.Complex(K.ambient_dim, K.vertices, K.simplices)


def fresh_map(P, f):
    dom = fresh(P, f.domain)
    cod = dom if f.codomain is f.domain else fresh(P, f.codomain)
    w = P.subdivision.SubdivisionWitness(fresh(P, f.fine), dom,
                                         f.dom_subdivision.carrier)
    return P.plmaps.PLMap(dom, cod, w, f.vertex_image, f.target_carrier,
                          check=False)


def fresh_homeo(P, phi):
    w = phi.witness
    w2 = P.subdivision.SubdivisionWitness(fresh(P, w.fine), fresh(P, w.coarse),
                                          w.carrier)
    return P.subdivision.PLHomeo(w2, phi.vertex_image, phi.target_carrier)


def map_text(P, f) -> str:
    return P.certio.dumps(P.certio.map_to_obj(f))


def homeo_text(P, phi) -> str:
    return P.certio.dumps(P.certio.homeo_to_obj(phi))


def cert_text(P, cert) -> str:
    return P.certio.dumps(P.certio.cert_to_obj(cert))


def euler(simplices) -> int:
    return sum((-1) ** (len(s) - 1) for s in simplices)


def is_closed(simplices) -> bool:
    return all(face in simplices for s in simplices
               for k in range(1, len(s)) for face in combinations(s, k))


def chain_count(simplices) -> int:
    """Simplices of the barycentric subdivision: chains of faces, counted
    by the vertex count of their top element."""
    memo = {1: 1}

    def chains_ending_at(k):
        if k not in memo:
            memo[k] = 1 + sum(comb(k, j) * chains_ending_at(j)
                              for j in range(1, k))
        return memo[k]
    return sum(chains_ending_at(len(s)) for s in simplices)


# ---------------------------------------------------------------------------
# Oracle tables
# ---------------------------------------------------------------------------

# H_0, H_1, ... in the program's notation, Euler characteristic, and
# whether the space is simply connected.
SPACES = {
    "cube1": (("Z", "0"), 1, True),
    "cube2": (("Z", "0", "0"), 1, True),
    "disk": (("Z", "0", "0"), 1, True),
    "rp6": (("Z", "Z/2", "0"), 1, False),
    "s2": (("Z", "0", "Z"), 2, True),
    "torus7": (("Z", "Z^2", "Z"), 0, False),
    "tri3": (("Z", "Z"), 0, False),
    "wedge2": (("Z", "Z^2"), -1, False),
}

# (space, subcomplex): H_n(A) and H_n(X, A) for n = 0 .. dim + 1.
PAIRS = {
    ("cube1", "ends"): (("Z^2", "0", "0"), ("0", "Z", "0")),
    ("cube2", "boundary"): (("Z", "Z", "0", "0"), ("0", "0", "Z", "0")),
    ("disk", "boundary"): (("Z", "Z", "0", "0"), ("0", "0", "Z", "0")),
}

INVARIANT_SPACES = ([(n, 0) for n in sorted(SPACES)]
                    + [(n, 1) for n in ("cube1", "cube2", "disk", "s2",
                                        "tri3", "wedge2")]
                    + [("disk", 2)])
ALL_KINDS = ("homology", "pi0", "pi1", "hurewicz", "pi2", "euler")
# Base-point jobs run from two base vertices: the CLI's default (the least
# vertex id) and a seeded one.  Their cost varies up to 4x with the base
# vertex, so a fixed half keeps the seed from dominating the spread.
BASED_KINDS = ("pi1", "hurewicz", "pi2")
# disk r=2: hurewicz (2.5 s) and the pair jobs are left out for run length
R2_KINDS = ("homology", "pi0", "pi1", "pi2", "euler")


def _h(groups, n):
    return groups[n] if n < len(groups) else "0"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _invariant_job(P, kind, label, F, bases, name):
    groups, chi, simply = SPACES[name]
    dim = F.dim()

    def based(K, x0):
        fg = P.fungroup
        if kind == "pi1":
            pres = fg.edge_path_presentation(K, x0)
            return (f"ab={fg.abelianization(pres).group} "
                    f"verdict={fg.group_verdict(pres).value}")
        if kind == "hurewicz":
            h = fg.hurewicz_h1(K, x0)
            return (f"ab={h.ab.group} H1={h.h1.group} "
                    f"kills={h.kills_relators()} "
                    f"surjective={h.is_surjective()} iso={h.is_isomorphism()}")
        try:
            return f"pi2={fg.pi2_via_hurewicz(K, x0, True).group}"
        except P.errors.NotCertifiablySimplyConnected:
            return "pi2=refused"

    def run(K):
        hm = P.homology
        if kind == "homology":
            cc = hm.chain_complex(K)
            v = " ".join(f"H{n}={hm.HomologyData(cc, n).group}"
                         for n in range(dim + 1))
        elif kind == "pi0":
            v = f"components={len(P.fungroup.pi0(K))}"
        elif kind == "euler":
            v = f"chi={hm.euler_characteristic(K)}"
        else:
            v = " | ".join(based(K, x0) for x0 in bases)
        return v, ""

    h1 = _h(groups, 1)
    expect = {
        "homology": " ".join(f"H{n}={_h(groups, n)}" for n in range(dim + 1)),
        "pi0": "components=1",
        "pi1": f"ab={h1} verdict={'trivial' if simply else 'nontrivial'}",
        "hurewicz": f"ab={h1} H1={h1} kills=True surjective=True iso=True",
        "pi2": f"pi2={_h(groups, 2)}" if simply else "pi2=refused",
        "euler": f"chi={chi}",
    }[kind]
    if kind in BASED_KINDS:
        expect = " | ".join([expect] * len(bases))
    return Job(f"{kind}:{label}", kind, lambda: (fresh(P, F),), run, expect,
               lambda: P.scx.emit_scx(F) + f"bases {' '.join(bases)}\n")


def _pair_jobs(P, label, F, members, name, sub):
    dim = F.dim()
    hA, hrel = PAIRS[(name, sub)]
    groups = SPACES[name][0]

    def prepare():
        K = fresh(P, F)
        return K, K.subcomplex(members)

    def run_rel(K, A):
        cc = P.homology.chain_complex(K, rel=A)
        return " ".join(f"H{n}={P.homology.HomologyData(cc, n).group}"
                        for n in range(dim + 1)), ""

    def run_les(K, A):
        res = P.homology.verify_les(K, A)
        parts = [f"exact={res['exact']}"]
        for n in sorted(res["pair_groups"]):
            ha, hx, hp = res["pair_groups"][n]
            parts.append(f"H{n}:A={ha},X={hx},pair={hp}")
        return " ".join(parts), ""

    exp_rel = " ".join(f"H{n}={hrel[n]}" for n in range(dim + 1))
    exp_les = " ".join(["exact=True"] + [
        f"H{n}:A={hA[n]},X={_h(groups, n)},pair={hrel[n]}"
        for n in range(dim + 2)])

    def describe():
        return P.scx.emit_scx(F, {sub: members})
    return [Job(f"rel-homology:{label}/{sub}", "rel-homology", prepare,
                run_rel, exp_rel, describe),
            Job(f"les:{label}/{sub}", "les", prepare, run_les, exp_les,
                describe)]


def build_invariants(P, seed):
    rng = random.Random(f"invariants:{seed}")
    jobs = []
    for name, r in INVARIANT_SPACES:
        K, subs = P.scx.load_corpus(name, check_disjoint=False)
        w = P.subdivision.iterated_subdivision(K, r)
        F = w.fine
        first, *rest = F.vertex_ids()
        bases = [first, rng.choice(rest)]
        label = f"{name}@r{r}"
        for kind in (R2_KINDS if r == 2 else ALL_KINDS):
            jobs.append(_invariant_job(P, kind, label, F, bases, name))
        if r < 2:
            for sub in sorted(subs):
                members = frozenset(t for t in F.simplices
                                    if w.carrier[t] in subs[sub].members)
                jobs.extend(_pair_jobs(P, label, F, members, name, sub))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Input generators shared by certify and verify
# ---------------------------------------------------------------------------

def circle_order(F):
    """Vertices of a subdivided circle in cyclic order from the least."""
    nbr = {}
    for s in F.simplices:
        if len(s) == 2:
            a, b = s
            nbr.setdefault(a, []).append(b)
            nbr.setdefault(b, []).append(a)
    start = min(nbr)
    order, prev, cur = [start], None, start
    while True:
        nxt = min(x for x in nbr[cur] if x != prev)
        if nxt == start:
            return order
        order.append(nxt)
        prev, cur = cur, nxt


def rotation_map(P, tri3, r, step):
    """Rotation of the circle tri3 presented at depth r: every fine vertex
    moves ``step`` fine vertices along the circle."""
    w = P.subdivision.iterated_subdivision(tri3, r)
    order = circle_order(w.fine)
    pos = {v: i for i, v in enumerate(order)}
    img = {v: w.fine.vertices[order[(pos[v] + step) % len(order)]]
           for v in order}
    carrier = {t: P.plmaps.minimal_carrier(tri3, [img[v] for v in t])
               for t in w.fine.simplices}
    return P.plmaps.PLMap(tri3, tri3, w, img, carrier, check=False)


def subdivided(P, name, m):
    """(K_m, named subcomplexes of K_m) for the corpus complex K."""
    K, subs = P.scx.load_corpus(name, check_disjoint=False)
    w = P.subdivision.iterated_subdivision(K, m)
    return w.fine, {n: frozenset(t for t in w.fine.simplices
                                 if w.carrier[t] in ref.members)
                    for n, ref in subs.items()}


def scrambled_map(P, base, rng):
    """Map K_{m+1} -> K_m: each fine vertex interior to a top simplex of
    K_m moves halfway to a seeded rational point of that simplex; every
    other vertex (so the whole boundary) stays fixed.  The point's weights
    are a seeded permutation of 1..k, so every seed gives coordinates of
    the same size.  Carriers are the minimal faces, found inside the known
    coarse carrier."""
    step = P.subdivision.barycentric_subdivide(base)
    top = base.dim() + 1
    target = {}
    for s in sorted(base.simplices):
        if len(s) == top:
            wts = rng.sample(range(1, top + 1), top)
            tot = sum(wts)
            target[s] = P.linalg.vcomb([Fraction(x, tot) for x in wts],
                                       base.points(s))
    img = {}
    for (v,) in (t for t in step.fine.simplices if len(t) == 1):
        p = step.fine.vertices[v]
        c = step.carrier[(v,)]
        img[v] = (tuple((a + b) / 2 for a, b in zip(p, target[c]))
                  if len(c) == top else p)
    carrier = {t: P.plmaps.carrier_face(base, step.carrier[t],
                                        [img[v] for v in t])
               for t in step.fine.simplices}
    return P.plmaps.PLMap(base, base, step, img, carrier, check=False)


def closed_tetra(P):
    verts = {"p": (0, 0, 0), "q": (1, 0, 0), "r": (0, 1, 0), "s": (0, 0, 1)}
    return P.complexes.validate(3, verts, [["p", "q", "r", "s"]],
                                check_disjoint=False).closure()


def extension_input(P, K, Z_members, r, rng):
    """phi0 over the closed subcomplex Z of K, presented at depth r; at
    r=1 each edge midpoint slides to a seeded point of its edge."""
    Z = K.subcomplex(Z_members)
    w = P.subdivision.iterated_subdivision(Z.as_complex(), r)
    image = {v: w.fine.vertices[v] for s in w.fine.simplices for v in s}
    if r == 1:
        t = rng.choice((Fraction(1, 3), Fraction(2, 5), Fraction(3, 5),
                        Fraction(2, 3)))
        for e in sorted(s for s in Z.members if len(s) == 2):
            p, q = (K.vertices[v] for v in e)
            image[P.subdivision.bary_name(e)] = tuple(
                a + (b - a) * t for a, b in zip(p, q))
    return Z, P.subdivision.PLHomeo(w, image, dict(w.carrier))


def extension_cases(P, rng):
    """(label, K, Z members, phi0) for every normal-extension input."""
    disk, dsubs = subdivided(P, "disk", 0)
    cube2, csubs = subdivided(P, "cube2", 0)
    tet = closed_tetra(P)
    tb = frozenset(s for s in tet.simplices if len(s) <= 3)
    cases = []
    for label, K, members, depths in (
            ("disk/boundary", disk, dsubs["boundary"], (1, 2, 3)),
            ("cube2/boundary", cube2, csubs["boundary"], (1, 2)),
            ("tetra/boundary", tet, tb, (1,))):
        for r in depths:
            Z, phi0 = extension_input(P, K, members, r, rng)
            cases.append((f"{label}@r{r}", K, Z, phi0))
    return cases


def wall_homotopy(P, prism, Z, images):
    """Homotopy on the subcylinder over the vertices keyed in images:
    images[v][level] is the image of v at time level."""
    unlift = P.cylinders.unlift
    members = {t for t in prism.cylinder.simplices
               if {unlift(v)[0] for v in t} <= set(images)}
    dom = P.complexes.Complex(prism.cylinder.ambient_dim,
                              {v: prism.cylinder.vertices[v]
                               for t in members for v in t}, members)
    vimg = {v: images[unlift(v)[0]][unlift(v)[1]] for t in members for v in t}
    car = {t: P.plmaps.minimal_carrier(Z, [vimg[v] for v in t])
           for t in members}
    return P.plmaps.PLMap(dom, Z, P.subdivision.identity_witness(dom),
                          vimg, car)


def cylinder_cases(P, rng):
    """(label, f, K_A members, H) for every homotopy-extension input."""
    pm, cy = P.plmaps, P.cylinders
    tri3, _ = subdivided(P, "tri3", 0)
    disk, dsubs = subdivided(P, "disk", 0)
    cube1, _ = subdivided(P, "cube1", 0)
    cases = []
    ident = pm.identity_map(disk)
    bverts = sorted(v for (v,) in (s for s in dsubs["boundary"]
                                   if len(s) == 1))
    cases.append(("disk/boundary", ident, dsubs["boundary"],
                  {v: {0: disk.vertices[v], 1: disk.vertices[v]}
                   for v in bverts}))
    a = tri3.vertices["a"]
    dest = tri3.vertices[rng.choice(("b", "c"))]
    cases.append(("tri3/a", pm.constant_map(tri3, tri3, a),
                  frozenset({("a",)}), {"a": {0: a, 1: dest}}))
    u0 = cube1.vertices["u0"]
    cases.append(("cube1/u0", pm.identity_map(cube1), frozenset({("u0",)}),
                  {"u0": {0: u0, 1: cube1.vertices["u1"]}}))
    out = []
    for label, f, members, images in cases:
        prism = cy.prism_triangulate(f.domain)
        H = wall_homotopy(P, prism, f.codomain, images)
        out.append((label, f, members, H))
    return out


ROTATIONS = ([(r, s) for r in range(4) for s in (1, -1)]
             + [(r, s) for r in range(1, 4) for s in (2, -2)])
SCRAMBLED = [(n, m) for n in ("cube1", "cube2", "disk", "tri3", "wedge2")
             for m in (0, 1)]
VARIANTS = 6


def producer_inputs(P, seed):
    """The seeded maps shared by certify and verify."""
    rng = random.Random(f"maps:{seed}")
    tri3, _ = subdivided(P, "tri3", 0)
    rotations = [(f"rot@r{r}{s:+d}", rotation_map(P, tri3, r, s))
                 for r, s in ROTATIONS]
    scrambled = []
    for name, m in SCRAMBLED:
        base, subs = subdivided(P, name, m)
        for v in range(VARIANTS):
            scrambled.append((f"scr:{name}@m{m}.{v}",
                              scrambled_map(P, base, rng), subs))
    return rng, rotations, scrambled


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _vertex_points(L):
    return {L.vertices[v] for (v,) in (s for s in L.simplices
                                       if len(s) == 1)}


def _approx_job(P, label, f):
    def run(f):
        g, cert = P.plmaps.simplicial_approximation(f, MAX_ROUNDS)
        on_vertices = set(g.vertex_image.values()) <= _vertex_points(g.codomain)
        text = cert_text(P, cert) + map_text(P, g)
        return (f"simplicial={g.is_simplicial()} vertices={on_vertices} "
                f"steps={len(cert.steps)} starts_at_f="
                f"{cert.initial.vertex_image == f.vertex_image}"), sha(text)
    return Job(f"approximate:{label}", "approximate",
               lambda: (fresh_map(P, f),), run,
               "simplicial=True vertices=True steps=1 starts_at_f=True",
               lambda: map_text(P, f))


def _subdivide_job(P, label, f):
    expect = f"fine={chain_count(f.fine.simplices)} old_images=True"

    def run(f):
        g = P.plmaps.subdivide_map(f)
        same = all(g.vertex_image[v] == p for v, p in f.vertex_image.items())
        return (f"fine={len(g.fine.simplices)} old_images={same}",
                sha(map_text(P, g)))
    return Job(f"subdivide_map:{label}", "subdivide_map",
               lambda: (fresh_map(P, f),), run, expect,
               lambda: map_text(P, f))


def _simplicialize_job(P, label, f, members):
    def prepare():
        f2 = fresh_map(P, f)
        return f2, f2.domain.subcomplex(members)

    def run(f, KC):
        g, cert = P.plmaps.simplicialize_rel(f, KC, MAX_ROUNDS)
        pinned = all(g.vertex_image[v] == f.vertex_image.get(v, g.vertex_image[v])
                     for t in g.fine.simplices
                     if g.dom_subdivision.carrier[t] in members for v in t)
        text = cert_text(P, cert) + map_text(P, g)
        return (f"fixed_set={cert.fixed_set.members == members} "
                f"pinned={pinned} steps_ok={len(cert.steps) in (1, 2)}",
                sha(text))
    return Job(f"simplicialize:{label}", "simplicialize", prepare, run,
               "fixed_set=True pinned=True steps_ok=True",
               lambda: map_text(P, f))


def _extend_job(P, label, K, Z, phi0):
    members = Z.members
    expect = f"contains=True agrees=True closed=True chi={euler(K.simplices)}"

    def prepare():
        K2 = fresh(P, K)
        return K2, K2.subcomplex(members), fresh_homeo(P, phi0)

    def run(K, Z, phi0):
        phi = P.subdivision.extend_normal(K, Z, phi0)
        fine = phi.witness.fine.simplices
        contains = phi0.witness.fine.simplices <= fine
        agrees = all(phi.vertex_image.get(v) == p
                     for v, p in phi0.vertex_image.items())
        text = homeo_text(P, phi)
        return (f"contains={contains} agrees={agrees} "
                f"closed={is_closed(fine)} chi={euler(fine)}"), sha(text)
    return Job(f"extend_normal:{label}", "extend_normal", prepare, run,
               expect, lambda: P.scx.emit_scx(K) + homeo_text(P, phi0))


def _cylinder_job(P, label, f, members, H):
    def prepare():
        return fresh_map(P, f), fresh_map(P, H)

    def run(f, H):
        r = P.cylinders.cylinder_retraction(f.domain, members)
        G = P.cylinders.extend_homotopy(f, H, r)
        bottom = all(G.evaluate(tuple(f.domain.vertices[v]) + (0,))
                     == f.vertex_image[v] for v in f.domain.vertex_ids())
        walls = all(G.evaluate(H.fine.vertices[v]) == img
                    for v, img in sorted(H.vertex_image.items()))
        return f"bottom={bottom} walls={walls}", sha(map_text(P, G))
    return Job(f"cylinder:{label}", "cylinder", prepare, run,
               "bottom=True walls=True",
               lambda: map_text(P, f) + map_text(P, H))


def build_certify(P, seed):
    rng, rotations, scrambled = producer_inputs(P, seed)
    jobs = []
    for label, f in rotations:
        jobs.append(_approx_job(P, label, f))
        jobs.append(_subdivide_job(P, label, f))
    for label, f, subs in scrambled:
        jobs.append(_approx_job(P, label, f))
        if label.endswith(("@m0.0", "@m0.1")) or label == "scr:disk@m1.0":
            jobs.append(_subdivide_job(P, label, f))
        if label == "scr:disk@m0.0":
            jobs.append(_simplicialize_job(P, label, f, subs["boundary"]))
    for label, K, Z, phi0 in extension_cases(P, rng):
        jobs.append(_extend_job(P, label, K, Z, phi0))
    for label, f, members, H in cylinder_cases(P, rng):
        jobs.append(_cylinder_job(P, label, f, members, H))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _validate_job(P, label, text, klass=None):
    def run(text):
        try:
            K, _ = P.scx.load_complex(text, check_disjoint=True)
        except P.errors.PlhtpyError as exc:
            return "reject", f"{type(exc).__name__}: {exc}"
        return "pass", f"simplices={len(K.simplices)}"
    expect = "reject" if klass else "pass"
    return Job(f"validate:{label}", "validate", lambda: (text,), run, expect,
               lambda: text, klass)


def _cert_job(P, label, text, klass=None):
    def run(text):
        try:
            cert = P.certio.cert_from_obj(json.loads(text))
        except P.errors.PlhtpyError as exc:
            return "reject", f"load: {type(exc).__name__}: {exc}"
        ok, problems = P.plmaps.verify_certificate(cert)
        return ("pass" if ok else "reject"), \
            (repr(problems[0]) if problems else "verify_certificate: no problems")
    expect = "reject" if klass else "pass"
    return Job(f"verify_cert:{label}", "verify_cert", lambda: (text,), run,
               expect, lambda: text, klass)


def _normal_job(P, label, text, klass=None):
    def run(text):
        try:
            phi = P.certio.homeo_from_obj(json.loads(text))
        except P.errors.PlhtpyError as exc:
            return "reject", f"load: {type(exc).__name__}: {exc}"
        rep = P.subdivision.verify_normal(phi)
        return ("pass" if rep.normal else "reject"), \
            (repr(rep.violations[0]) if rep.violations else "normal")
    expect = "reject" if klass else "pass"
    return Job(f"verify_normal:{label}", "verify_normal", lambda: (text,),
               run, expect, lambda: text, klass)


VALIDATE_R1 = ("cube1", "disk", "tri3", "wedge2")
RELABELS = 4
CERT_SMALL = ("scr:cube1@m0", "scr:cube2@m0", "scr:disk@m0", "scr:tri3@m0",
              "scr:wedge2@m0", "scr:cube1@m1", "scr:tri3@m1", "scr:wedge2@m1")
NORMAL_CASES = ("disk/boundary@r1", "disk/boundary@r2", "cube2/boundary@r1")
CERT_VARIANTS = 3
# fixed targets, so the seed moves the tampered simplex but not the cost
SWAP_ON = ("rot@r1+1", "rot@r2-1", "scr:disk@m0.0", "scr:cube2@m0.0",
           "scr:tri3@m1.0", "scr:wedge2@m0.0")
TAMPERS = 6
SHIFTS = 4


def build_verify(P, seed):
    rng, rotations, scrambled = producer_inputs(P, seed)
    pm = P.plmaps
    jobs = []
    # raw SCX: the corpus under seeded relabelings, plus depth 1
    for name in sorted(SPACES):
        K, subs = P.scx.load_corpus(name, check_disjoint=False)
        for i in range(RELABELS):
            jobs.append(_validate_job(P, f"{name}@r0.{i}",
                                      tamper.relabel_scx(P, K, subs, rng)))
    for name in VALIDATE_R1:
        K1, _ = subdivided(P, name, 1)
        jobs.append(_validate_job(P, f"{name}@r1", P.scx.emit_scx(K1)))
    with_triangles = [subdivided(P, n, 0)[0] for n in ("cube2", "disk", "s2")]
    for i in range(TAMPERS):
        K = with_triangles[i % len(with_triangles)]
        jobs.append(_validate_job(P, f"overlap.{i}",
                                  tamper.overlap_scx(P, K, rng),
                                  "overlap_scx"))
    # certificates produced by the certify generators
    certs = []
    for label, f in rotations:
        _, cert = pm.simplicial_approximation(f, MAX_ROUNDS)
        certs.append((label, cert))
    by_label = {label: (f, subs) for label, f, subs in scrambled}
    for prefix in CERT_SMALL:
        for v in range(CERT_VARIANTS):
            f, _ = by_label[f"{prefix}.{v}"]
            _, cert = pm.simplicial_approximation(f, MAX_ROUNDS)
            certs.append((f"{prefix}.{v}", cert))
    f, subs = by_label["scr:disk@m0.0"]
    _, cert = pm.simplicialize_rel(f, f.domain.subcomplex(subs["boundary"]),
                                   MAX_ROUNDS)
    certs.append(("simplicialize:disk@m0.0", cert))
    for label, cert in certs:
        jobs.append(_cert_job(P, label, cert_text(P, cert)))
    by_cert = dict(certs)
    for i in range(TAMPERS):
        label = SWAP_ON[i % len(SWAP_ON)]
        cert = by_cert[label]
        jobs.append(_cert_job(P, f"swap.{i}:{label}",
                              tamper.carrier_swap(P, cert, rng),
                              "carrier_swap"))
    disk, _ = subdivided(P, "disk", 0)
    for i in range(TAMPERS):
        jobs.append(_cert_job(P, f"forged.{i}",
                              tamper.forged_partition(P, disk, rng),
                              "forged_partition"))
    # normal homeomorphisms from extend_normal
    homeos = {label: P.subdivision.extend_normal(K, Z, phi0)
              for label, K, Z, phi0 in extension_cases(P, rng)
              if label in NORMAL_CASES}
    for label in NORMAL_CASES:
        jobs.append(_normal_job(P, label, homeo_text(P, homeos[label])))
    for i in range(SHIFTS):
        label = NORMAL_CASES[2 * (i % 2)]
        jobs.append(_normal_job(P, f"shift.{i}:{label}",
                                tamper.image_shift(P, homeos[label], rng),
                                "image_shift"))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"invariants": build_invariants, "certify": build_certify,
            "verify": build_verify}

# Tamper classes the program is known to accept although the oracle says
# reject.  Their wrong verdicts still count in ``failed``; they do not mark
# the run incorrect.  ROADMAP item 3: verify_subdivision checks neither
# closedness nor disjointness of a refinement.
KNOWN_DEFECTS = {"forged_partition"}
