"""Edge-path fundamental groups, Hurewicz comparison, and pi_2."""

import copy
import random

import pytest

from plhtpy import fungroup as fg
from plhtpy import homology as hm
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import validate
from plhtpy.errors import (BaseVertexMismatch, NotCertifiablySimplyConnected,
                           NotClosed, NotConnected, StartNotInA)
from plhtpy.homology import AbelianGroup, AbelianQuotient
from conftest import make_deg2, random_closure
from test_scx_cli import run_cli

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
    assert fg.boundary_component(two_segments(), ["c", "d"],
                                 two_segments()) == ("c", "d")


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


@pytest.mark.parametrize("cmd", ["pi1", "hurewicz", "pi2"])
def test_cli_two_components_exit2(tmp_path, cmd):
    """The component count is computed only on the failure path, and the
    message still names it."""
    path = tmp_path / "two.scx"
    path.write_text(scx.emit_scx(two_segments()))
    code, out = run_cli(cmd, str(path))
    assert code == 2
    assert "error: NotConnected: complex has 2 components" in out


def test_walks_reject_a_non_closed_complex(tmp_path):
    """An edge without its vertex simplices: pi_0, boundary components
    and the presentation all raise NotClosed, never a KeyError."""
    K = validate(1, {"a": (0,), "b": (1,)}, [["a", "b"]],
                 check_disjoint=False)
    with pytest.raises(NotClosed):
        fg.pi0(K)
    with pytest.raises(NotClosed):
        fg.boundary_component(K, ["a"], K)
    with pytest.raises(NotClosed):
        fg.Presentation(K, "a")
    path = tmp_path / "edge.scx"
    path.write_text("ambient 1\nvertex a 0\nvertex b 1\nsimplex a b\n")
    code, out = run_cli("pi0", str(path))
    assert code == 2
    assert "error: NotClosed: the 1-skeleton needs a closed complex" in out


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
            assert ab.coords(ab.generator(j)) == \
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


# ---------------------------------------------------------------------------
# The abelianization over the live generators against the dense reference
# ---------------------------------------------------------------------------

def exponent_vector(pres, w):
    """Exponents of a word's letters over every generator of pres."""
    out = [0] * pres.ngens()
    for x in w.letters:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


def full_relator_quotient(pres):
    """Reference abelianization: Z^gens modulo the exponent vectors of all
    relators, one dense Smith normal form."""
    return AbelianQuotient(pres.ngens(),
                           [exponent_vector(pres, r) for r in pres.relators])


def check_abelianization(K):
    """The live quotient equals the dense reference, every dead generator
    lies in the relator lattice, and the three-case verdict equals the
    five-case one it replaced."""
    pres = fg.Presentation(K, min(K.vertex_ids()))
    ab = fg.abelianization(pres)
    ref = full_relator_quotient(pres)
    assert ab.group == ref.group, scx.emit_scx(K)
    dead, leftover = pres.eliminated()
    assert list(ab.live) == [g for g in range(1, pres.ngens() + 1)
                             if g not in dead]
    for g in dead:
        assert not any(ref.coords(exponent_vector(pres, fg.Word((g,))))), \
            scx.emit_scx(K)
        assert not any(ab.project(fg.Word((g,)))), scx.emit_scx(K)
    assert all(not any(ab.project(r)) for r in pres.relators), scx.emit_scx(K)
    if len(dead) == pres.ngens():
        expected = fg.GroupVerdict.Trivial
    elif not leftover or not ref.group.is_trivial():
        expected = fg.GroupVerdict.Nontrivial
    else:
        expected = fg.GroupVerdict.Unknown
    assert fg.group_verdict(pres) is expected, scx.emit_scx(K)


@pytest.mark.parametrize("rounds", [0, 1, 2])
def test_abelianization_matches_the_full_relator_quotient(corpus, rounds):
    for name, (K, _) in sorted(corpus.items()):
        check_abelianization(sd.iterated_subdivision(K, rounds).fine)


def test_abelianization_of_random_closures(corpus):
    rng = random.Random(30)
    connected = 0
    for name, (K, _) in sorted(corpus.items()):
        for r in (1, 2):
            fine = sd.iterated_subdivision(K, r).fine
            for _ in range(3):
                A = fine.restrict(random_closure(fine, rng))
                if len(fg.pi0(A)) == 1:
                    connected += 1
                    check_abelianization(A)
    assert connected >= 10


def test_class_of_matches_the_exponent_vector_sum(corpus):
    rng = random.Random(30)
    for name, r in [("wedge2", 0), ("tri3", 1), ("torus7", 1), ("rp6", 1)]:
        K = sd.iterated_subdivision(corpus[name][0], r).fine
        h = fg.hurewicz_h1(K, min(K.vertex_ids()))
        k = h.pres.ngens()
        letters = [s * g for g in range(1, k + 1) for s in (1, -1)]
        for _ in range(200):
            w = fg.Word(rng.choices(letters, k=rng.randrange(12)))
            e = exponent_vector(h.pres, w)
            dense = h.h1.group.reduce(
                [sum(x * c[j] for x, c in zip(e, h.gen_classes))
                 for j in range(h.h1.ngens())])
            assert h.class_of(w) == dense, (name, w)


def loop_classes(h):
    """Reference generator classes: each generator's whole based loop,
    projected through the reduction as one cycle."""
    return [h.h1.coords_of_chain(h.pres.loop_chain(h.pres.generator_loop(i)))
            for i in range(1, h.pres.ngens() + 1)]


def check_generator_classes(K, x0):
    """The tree-prefix generator classes equal the loop route's, and the
    three Hurewicz checks read the same from either."""
    h = fg.hurewicz_h1(K, x0)
    ref = copy.copy(h)
    ref.gen_classes = loop_classes(h)
    assert h.gen_classes == ref.gen_classes, (x0, scx.emit_scx(K))
    checks = [(g.kills_relators(), g.is_surjective(), g.is_isomorphism())
              for g in (h, ref)]
    assert checks == [(True, True, True)] * 2, (x0, scx.emit_scx(K))


@pytest.mark.parametrize("rounds", [0, 1, 2])
def test_generator_classes_match_the_loop_route(corpus, rounds):
    rng = random.Random(31 + rounds)
    for name, (K, _) in sorted(corpus.items()):
        fine = sd.iterated_subdivision(K, rounds).fine
        ids = fine.vertex_ids()
        for x0 in (ids[0], ids[-1], rng.choice(ids)):
            check_generator_classes(fine, x0)


def test_generator_classes_of_random_closures(corpus):
    rng = random.Random(31)
    connected = 0
    for name, (K, _) in sorted(corpus.items()):
        for r in (1, 2):
            fine = sd.iterated_subdivision(K, r).fine
            for _ in range(3):
                A = fine.restrict(random_closure(fine, rng))
                if len(fg.pi0(A)) == 1:
                    connected += 1
                    check_generator_classes(A, rng.choice(A.vertex_ids()))
    assert connected >= 10


def test_abelianization_eliminates_before_its_smith_normal_form(corpus,
                                                                monkeypatch):
    # torus7 r=2 has 505 generators; length-one relators kill all but 87,
    # and the one Smith normal form sees only those
    K = sd.iterated_subdivision(corpus["torus7"][0], 2).fine
    pres = fg.Presentation(K, min(K.vertex_ids()))
    columns = []
    snf = hm.smith_normal_form

    def counting(A, ncols=0):
        columns.append(ncols or len(A[0]))
        return snf(A, ncols)

    monkeypatch.setattr(hm, "smith_normal_form", counting)
    ab = fg.Abelianization(pres)
    assert pres.ngens() == 505 and len(ab.live) == 87
    assert ab.group == AbelianGroup(2)
    assert columns and max(columns) <= 87
