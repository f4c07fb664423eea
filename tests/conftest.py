"""Shared fixtures: corpus complexes and a few reference maps."""

from fractions import Fraction as F

import pytest

from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import validate


@pytest.fixture(scope="session")
def corpus():
    """name -> (Complex, named subcomplexes) for every built-in complex."""
    return {name: scx.load_corpus(name) for name in scx.CORPUS_NAMES}


@pytest.fixture(scope="session")
def lattice_spaces(corpus):
    """(label, complex, {name: subcomplex members}) for every corpus
    complex at subdivision depth 0 and 1, and the disk at depth 2."""
    out = []
    for name, (K, subs) in sorted(corpus.items()):
        for r in ((0, 1, 2) if name == "disk" else (0, 1)):
            w = sd.iterated_subdivision(K, r)
            members = {sub: frozenset(t for t in w.fine.simplices
                                      if w.carrier[t] in ref.members)
                       for sub, ref in subs.items()}
            out.append((f"{name}@{r}", w.fine, members))
    return out


@pytest.fixture(scope="session")
def tri3(corpus):
    return corpus["tri3"][0]


@pytest.fixture(scope="session")
def disk(corpus):
    return corpus["disk"][0]


@pytest.fixture(scope="session")
def disk_boundary(corpus):
    return corpus["disk"][1]["boundary"]


def make_rot(tri3):
    """Half-edge rotation of the triangle boundary: every vertex of the
    subdivided circle moves one fine vertex counterclockwise."""
    w = sd.barycentric_subdivide(tri3)
    nxt = {"a": "a.b^bary", "a.b^bary": "b", "b": "b.c^bary",
           "b.c^bary": "c", "c": "a.c^bary", "a.c^bary": "a"}
    verts = {v: w.fine.vertices[nxt[v]] for v in nxt}
    carrier = {s: pm.minimal_carrier(tri3, [verts[v] for v in s])
               for s in w.fine.simplices}
    return pm.PLMap(tri3, tri3, w, verts, carrier)


def make_hexagon():
    verts = {"h0": (1, 0), "h1": (1, 1), "h2": (0, 1),
             "h3": (-1, 0), "h4": (-1, -1), "h5": (0, -1)}
    sims = [[f"h{i}"] for i in range(6)] + \
           [[f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)]
    return validate(2, verts, sims)


def make_deg2(tri3):
    """Degree-two covering of the triangle boundary by a hexagon."""
    hexagon = make_hexagon()
    return pm.simplicial_map(hexagon, tri3,
                             {"h0": "a", "h1": "b", "h2": "c",
                              "h3": "a", "h4": "b", "h5": "c"})


def make_perturbed_disk(disk):
    """Identity on the boundary, interior barycenter displaced."""
    w = sd.barycentric_subdivide(disk)
    verts = {v: w.fine.vertices[v] for s in w.fine.simplices for v in s}
    verts["a.b.c^bary"] = (F(1, 5), F(1, 5))
    carrier = {s: pm.minimal_carrier(disk, [verts[v] for v in s])
               for s in w.fine.simplices}
    return pm.PLMap(disk, disk, w, verts, carrier)


@pytest.fixture(scope="session")
def rot(tri3):
    return make_rot(tri3)


@pytest.fixture(scope="session")
def deg2(tri3):
    return make_deg2(tri3)


@pytest.fixture(scope="session")
def perturbed_disk(disk):
    return make_perturbed_disk(disk)
