"""Edge-path fundamental groups, Hurewicz comparison, and pi_2."""

import random

import pytest

from plhtpy import fungroup as fg
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.complexes import validate
from plhtpy.errors import (BaseVertexMismatch, NotCertifiablySimplyConnected,
                           NotConnected, StartNotInA)
from plhtpy.homology import AbelianGroup
from conftest import make_deg2

Z = AbelianGroup(1)


def two_segments():
    return validate(1, {"a": (0,), "b": (1,), "c": (3,), "d": (4,)},
                    [["a"], ["b"], ["c"], ["d"], ["a", "b"], ["c", "d"]])


def test_pi0_connected(corpus):
    for name, (K, _) in corpus.items():
        assert len(fg.pi0(K)) == 1, name


def test_pi0_two_components():
    comps = fg.pi0(two_segments())
    assert comps == [("a", "b"), ("c", "d")]


def test_boundary_component(disk, disk_boundary):
    comp = fg.boundary_component(disk, ["a", "b"], disk_boundary)
    assert comp == ("a", "b", "c")
    with pytest.raises(StartNotInA):
        fg.boundary_component(disk, [], disk_boundary)
    with pytest.raises(StartNotInA):
        fg.boundary_component(two_segments(), ["a", "c"], two_segments())


def test_word_algebra():
    u = fg.Word((1, 2))
    v = fg.Word((-2, -1))
    assert u * v == fg.Word()
    assert u.inverse() == v
    assert str(u * fg.Word((2,)).inverse() * u) == "g1 g1 g2"
    assert str(fg.Word()) == "1"
    assert not fg.Word((1, -1))


def test_presentation_tri3(tri3):
    pres = fg.Presentation(tri3, "a")
    assert pres.ngens() == 1
    assert pres.relators == []
    assert str(pres) == "<g1 | >"


def test_presentation_disk(disk):
    pres = fg.Presentation(disk, "a")
    assert pres.ngens() == 1
    assert [str(r) for r in pres.relators] == ["g1"]
    assert str(pres) == "<g1 | g1>"


def test_presentation_wedge2(corpus):
    pres = fg.Presentation(corpus["wedge2"][0], "a")
    assert pres.ngens() == 2
    assert pres.relators == []


def test_presentation_rejects_bad_base(tri3):
    with pytest.raises(NotConnected):
        fg.Presentation(tri3, "zzz")
    with pytest.raises(NotConnected):
        fg.Presentation(two_segments(), "a")


ABELIANIZATIONS = {
    # must match H_1 for these spaces
    ("tri3", "a"): AbelianGroup(1),
    ("disk", "a"): AbelianGroup(0),
    ("s2", "s1"): AbelianGroup(0),
    ("torus7", "t1"): AbelianGroup(2),
    ("rp6", "p1"): AbelianGroup(0, (2,)),
    ("wedge2", "a"): AbelianGroup(2),
    ("cube2", "q00"): AbelianGroup(0),
}


def test_abelianizations(corpus):
    for (name, x0), expected in ABELIANIZATIONS.items():
        pres = fg.Presentation(corpus[name][0], x0)
        assert fg.Abelianization(pres).group == expected, name


def test_group_verdicts(corpus):
    T, N = fg.GroupVerdict.Trivial, fg.GroupVerdict.Nontrivial
    expected = {("disk", "a"): T, ("s2", "s1"): T, ("cube2", "q00"): T,
                ("cube1", "u0"): T, ("tri3", "a"): N, ("torus7", "t1"): N,
                ("rp6", "p1"): N, ("wedge2", "a"): N}
    for (name, x0), verdict in expected.items():
        pres = fg.Presentation(corpus[name][0], x0)
        assert fg.group_verdict(pres) is verdict, name


def test_hurewicz_isomorphism_with_subdivision(corpus):
    for name, x0 in [("tri3", "a"), ("disk", "a"), ("s2", "s1"),
                     ("torus7", "t1"), ("rp6", "p1"), ("wedge2", "a")]:
        K = corpus[name][0]
        h = fg.hurewicz_h1(K, x0)
        assert h.kills_relators(), name
        assert h.is_surjective(), name
        assert h.is_isomorphism(), name
        fine = sd.barycentric_subdivide(K).fine
        hf = fg.hurewicz_h1(fine, x0)
        assert hf.is_isomorphism(), name
        assert hf.ab.group == h.ab.group, name


def test_hurewicz_kills_commutators(corpus):
    h = fg.hurewicz_h1(corpus["wedge2"][0], "a")
    g1, g2 = fg.Word((1,)), fg.Word((2,))
    comm = g1 * g2 * g1.inverse() * g2.inverse()
    assert h.class_of(comm) == (0, 0)
    assert h.class_of(fg.Word()) == (0, 0)


def test_beta_is_identity_on_h1_seeded(corpus):
    h = fg.hurewicz_h1(corpus["wedge2"][0], "a")
    rng = random.Random(20260101)
    letters = [1, -1, 2, -2]
    for _ in range(1000):
        u = fg.Word(rng.choices(letters, k=rng.randrange(7)))
        v = fg.Word(rng.choices(letters, k=rng.randrange(7)))
        bv = fg.beta_action(u, v)
        assert h.class_of(bv) == h.class_of(v)
        # group identities of the action
        assert fg.beta_action(fg.Word(), v) == v
        assert fg.beta_action(u, fg.Word()) == fg.Word()


def test_beta_composes():
    u1, u2, v = fg.Word((1,)), fg.Word((2, 1)), fg.Word((1, 2, -1))
    lhs = fg.beta_action(u1 * u2, v)
    rhs = fg.beta_action(u1, fg.beta_action(u2, v))
    assert lhs == rhs


def test_push_word_identity(tri3):
    pres = fg.Presentation(tri3, "a")
    psi = pm.identity_map(tri3)
    w = fg.Word((1, 1, -1, 1))
    assert fg.push_word(psi, pres, pres, w) == w


def test_push_word_deg2(deg2, tri3):
    src = fg.Presentation(deg2.domain, "h0")
    dst = fg.Presentation(tri3, "a")
    pushed = fg.push_word(deg2, src, dst, fg.Word((1,)))
    assert str(pushed) in ("g1 g1", "g1^-1 g1^-1")


def test_push_word_base_mismatch(deg2, tri3):
    src = fg.Presentation(deg2.domain, "h1")  # h1 maps to b, not a
    dst = fg.Presentation(tri3, "a")
    with pytest.raises(BaseVertexMismatch):
        fg.push_word(deg2, src, dst, fg.Word((1,)))


def test_naturality_checks(deg2, tri3):
    src = fg.Presentation(deg2.domain, "h0")
    dst = fg.Presentation(tri3, "a")
    assert fg.naturality_check(deg2, src, dst, fg.Word((1,)), fg.Word((1, 1)))
    ident = pm.identity_map(tri3)
    assert fg.naturality_check(ident, dst, dst, fg.Word((1,)), fg.Word((-1,)))
    const = pm.constant_map(tri3, tri3, tri3.vertices["a"])
    assert fg.naturality_check(const, dst, dst, fg.Word((1,)), fg.Word((1,)))


def test_pi2_sphere(corpus):
    res = fg.pi2_via_hurewicz(corpus["s2"][0], "s1", True)
    assert str(res) == "Z"
    assert res.group == Z
    assert "certificate" in res.provenance


def test_pi2_refusals(corpus):
    with pytest.raises(NotCertifiablySimplyConnected):
        fg.pi2_via_hurewicz(corpus["torus7"][0], "t1", True)
    with pytest.raises(NotCertifiablySimplyConnected):
        fg.pi2_via_hurewicz(corpus["rp6"][0], "p1", True)
    with pytest.raises(NotCertifiablySimplyConnected):
        fg.pi2_via_hurewicz(corpus["s2"][0], "s1", False)


def test_loop_chain_orientation(tri3):
    pres = fg.Presentation(tri3, "a")
    chain = pres.loop_chain(["a", "b", "c", "a"])
    assert chain == {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): -1}


def test_abelianization_coordinates(lattice_spaces):
    for label, K, _ in lattice_spaces:
        pres = fg.Presentation(K, min(K.vertex_ids()))
        ab = fg.abelianization(pres)
        assert fg.abelianization(pres) is ab
        m = ab.ngens()
        for j in range(m):
            assert ab.project_vector(ab.generator_exponents(j)) == \
                tuple(int(i == j) for i in range(m)), (label, j)
        assert all(ab.project(r) == (0,) * m for r in pres.relators), label


def test_hurewicz_surjectivity(corpus):
    h = fg.hurewicz_h1(corpus["tri3"][0], "a")
    assert h.is_surjective()
    h.gen_classes = [(2,)]
    assert not h.is_surjective()
    h.gen_classes = [(-1,)]
    assert h.is_surjective()
    # H_1 = Z/2: an odd class generates it, even ones do not
    h = fg.hurewicz_h1(corpus["rp6"][0], "p1")
    others = [(0,)] * (len(h.gen_classes) - 1)
    h.gen_classes = [(2,)] + others
    assert not h.is_surjective()
    h.gen_classes = [(3,)] + others
    assert h.is_surjective()
