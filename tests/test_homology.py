"""Integer simplicial homology: SNF groups, induced maps, exact sequences."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

import plhtpy
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.complexes import proper_faces, simplex, validate
from plhtpy.errors import NotClosed, NotSimplicial, NotSubcomplex
from plhtpy.homology import (AbelianGroup, ChainComplex, HomologyData,
                             chain_complex, euler_characteristic,
                             fundamental_class, homology, identity_matrix,
                             induced_map, induced_map_on_vertices,
                             lattice_subset, mat_mul, relative_homology,
                             smith_normal_form, unimodular_inverse,
                             verify_les)
from conftest import make_deg2, make_rot

Z = AbelianGroup(1)
Z2 = AbelianGroup(2)
ZERO = AbelianGroup(0)
Z_MOD2 = AbelianGroup(0, (2,))


def test_smith_normal_form_transforms():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, S, V, Uinv, Vinv = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert mat_mul(U, Uinv) == identity_matrix(3)
    assert mat_mul(V, Vinv) == identity_matrix(3)
    diag = [S[i][i] for i in range(3)]
    # frozen oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4,
    # d1*d2*d3 = |det A| = 624
    assert diag == [2, 2, 156]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert S[i][j] == 0


def test_lattice_subset():
    assert lattice_subset([[2, 0]], [[1, 0]])
    assert not lattice_subset([[1, 0]], [[2, 0]])
    assert lattice_subset([[1, 1]], [[1, 0], [0, 1]])
    assert not lattice_subset([[0, 1]], [[1, 0]])
    # 6Z + 4Z = 2Z
    assert lattice_subset([[2]], [[6], [4]])
    assert not lattice_subset([[3]], [[6], [4]])
    assert lattice_subset([[0, 0]], [])
    assert not lattice_subset([[0, 1]], [])
    assert lattice_subset([], [[1, 0]])


def test_chain_complex_shapes(corpus):
    torus7 = corpus["torus7"][0]
    cc = chain_complex(torus7)
    assert len(cc.boundary[1]) == 7 and len(cc.boundary[1][0]) == 21
    assert len(cc.boundary[2]) == 21 and len(cc.boundary[2][0]) == 14
    prod = mat_mul(cc.boundary[1], cc.boundary[2])
    assert all(x == 0 for row in prod for x in row)


def test_chain_complex_tri3_column_sums(tri3):
    cc = chain_complex(tri3)
    for j in range(3):
        assert sum(cc.boundary[1][i][j] for i in range(3)) == 0


def test_chain_complex_requires_closed():
    K = validate(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                 [["a", "b", "c"]], check_disjoint=False)
    with pytest.raises(NotClosed):
        chain_complex(K)


HOMOLOGY_ORACLES = {
    # name -> {n: group}; textbook values for these spaces
    "tri3": {0: Z, 1: Z},
    "disk": {0: Z, 1: ZERO, 2: ZERO},
    "s2": {0: Z, 1: ZERO, 2: Z},
    "torus7": {0: Z, 1: Z2, 2: Z},
    "rp6": {0: Z, 1: Z_MOD2, 2: ZERO},
    "wedge2": {0: Z, 1: Z2},
    "cube1": {0: Z, 1: ZERO},
    "cube2": {0: Z, 1: ZERO, 2: ZERO},
}


def test_homology_oracles(corpus):
    for name, groups in HOMOLOGY_ORACLES.items():
        K = corpus[name][0]
        for n, expected in groups.items():
            assert homology(K, n) == expected, (name, n)


def test_homology_invariant_under_subdivision(corpus):
    for name in ("tri3", "disk", "rp6", "s2", "wedge2"):
        K = corpus[name][0]
        fine = sd.barycentric_subdivide(K).fine
        for n in HOMOLOGY_ORACLES[name]:
            assert homology(fine, n) == HOMOLOGY_ORACLES[name][n], (name, n)


def test_relative_homology(corpus, disk, disk_boundary):
    assert relative_homology(disk, disk_boundary, 2) == Z
    assert relative_homology(disk, disk_boundary, 1) == ZERO
    for n in range(3):
        assert relative_homology(disk, disk.subcomplex(disk.simplices),
                                 n) == ZERO
    cube1, subs = corpus["cube1"]
    assert relative_homology(cube1, subs["ends"], 1) == Z


def test_relative_homology_requires_closed_subcomplex(disk):
    with pytest.raises(NotClosed):
        relative_homology(disk, disk.subcomplex([("a", "b", "c")]), 1)
    with pytest.raises(NotSubcomplex):
        relative_homology(disk, [("x", "y")], 1)


def test_euler_characteristics(corpus):
    # by hand: disk 1, torus7 7-21+14=0, rp6 6-15+10=1, s2 2, cube2 1
    expected = {"disk": 1, "torus7": 0, "rp6": 1, "s2": 2, "cube2": 1,
                "tri3": 0, "wedge2": -1, "cube1": 1}
    for name, chi in expected.items():
        assert euler_characteristic(corpus[name][0]) == chi, name


def test_boundary_squares_to_zero_on_random_complexes():
    rng = random.Random(20260101)
    verts = {f"v{i}": tuple(1 if j == i else 0 for j in range(4))
             for i in range(4)}
    verts["v4"] = (0, 0, 0, 0)
    names = sorted(verts)
    all_faces = [simplex(c) for size in range(1, 6)
                 for c in combinations(names, size)]
    for _ in range(100):
        picked = {s for s in all_faces if rng.random() < 0.3}
        closed = set()
        for s in picked:
            closed.add(s)
            closed.update(f for f in proper_faces(s))
        if not closed:
            continue
        K = validate(4, verts, [list(s) for s in closed],
                     check_disjoint=False)
        cc = chain_complex(K)  # asserts boundary-of-boundary = 0
        for n in sorted(cc.boundary):
            if n - 1 in cc.boundary:
                prod = mat_mul(cc.boundary[n - 1], cc.boundary[n])
                assert all(x == 0 for row in prod for x in row)


def test_induced_identity(tri3):
    m = induced_map(pm.identity_map(tri3), 1)
    assert m.is_identity()


def test_induced_deg2(tri3):
    m = induced_map(make_deg2(tri3), 1)
    assert m.matrix == [[2]] or m.matrix == [[-2]]
    assert abs(m.matrix[0][0]) == 2


def test_induced_constant_is_zero(tri3):
    const = pm.constant_map(tri3, tri3, tri3.vertices["a"])
    assert induced_map(const, 1).is_zero()


def test_induced_not_simplicial(rot):
    with pytest.raises(NotSimplicial):
        induced_map(rot, 1)


def test_induced_functoriality(tri3):
    deg2 = make_deg2(tri3)
    hexagon = deg2.domain
    spin = pm.simplicial_map(hexagon, hexagon,
                             {f"h{i}": f"h{(i + 1) % 6}" for i in range(6)})
    dv = deg2.simplicial_vertex_map()
    sv = spin.simplicial_vertex_map()
    composed = pm.simplicial_map(hexagon, tri3, {v: dv[sv[v]] for v in sv})
    lhs = induced_map(composed, 1)
    rhs = induced_map(deg2, 1).compose(induced_map(spin, 1))
    assert lhs.matrix == rhs.matrix
    assert abs(lhs.matrix[0][0]) == 2


def test_certified_homotopic_maps_agree_on_h1(rot):
    g, cert = pm.simplicial_approximation(rot)
    ok, _ = pm.verify_certificate(cert)
    assert ok
    g2, _ = pm.simplicial_approximation(cert.initial)
    assert induced_map(g2, 1).matrix == induced_map(g, 1).matrix


def test_fundamental_class_n1():
    K, ends, chain = fundamental_class(1)
    data = HomologyData(chain_complex(K, rel=ends), 1)
    assert data.group == Z
    coords = data.coords_of_chain(chain)
    assert coords in ((1,), (-1,))
    double = {s: 2 * c for s, c in chain.items()}
    assert data.coords_of_chain(double) in ((2,), (-2,))


def test_fundamental_class_n2():
    K, boundary, chain = fundamental_class(2)
    data = HomologyData(chain_complex(K, rel=boundary), 2)
    assert data.group == Z
    assert data.coords_of_chain(chain) in ((1,), (-1,))
    with pytest.raises(ValueError):
        fundamental_class(3)


def test_les_disk_pair(disk, disk_boundary):
    report = verify_les(disk, disk_boundary)
    assert report["exact"]
    # connecting map: H_2(X,A) = Z maps onto H_1(A) = Z
    assert report["pair_groups"][2] == ("0", "0", "Z")
    assert report["pair_groups"][1] == ("Z", "0", "0")


def test_les_self_pair(tri3):
    report = verify_les(tri3, tri3.subcomplex(tri3.simplices))
    assert report["exact"]
    for n, (_, _, rel) in report["pair_groups"].items():
        assert rel == "0"


def test_les_torus_vertex(corpus):
    torus7 = corpus["torus7"][0]
    report = verify_les(torus7, torus7.subcomplex([("t1",)]))
    assert report["exact"]
    assert report["pair_groups"][1][2] == "Z^2"
    assert report["pair_groups"][2][2] == "Z"


def test_group_printing():
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert str(Z) == "Z"
    assert str(ZERO) == "0"


def unit(j, m):
    return tuple(int(i == j) for i in range(m))


def test_integer_homology_coordinates(lattice_spaces):
    for label, K, subs in lattice_spaces:
        ccs = [chain_complex(K)] + [chain_complex(K, rel=m)
                                    for m in subs.values()]
        for cc in ccs:
            for n in range(K.dim() + 1):
                H = HomologyData(cc, n)
                m = H.ngens()
                for j in range(m):
                    assert H.coords_of_chain(H.generator_chain(j)) == \
                        unit(j, m), (label, n, j)
                D1 = cc.boundary.get(n + 1)
                for col in zip(*D1) if D1 else ():
                    assert H.coords_of_vector(list(col)) == (0,) * m
                k = len(cc.basis.get(n, []))
                Dn = cc.boundary.get(n) or []
                moved = [j for j in range(k) if any(row[j] for row in Dn)]
                if moved:
                    with pytest.raises(ValueError):
                        H.coords_of_vector(list(unit(moved[0], k)))


def test_smith_normal_form_inverses_on_boundaries(lattice_spaces):
    for label, K, _ in lattice_spaces:
        for n, D in chain_complex(K).boundary.items():
            rows, cols = len(D), len(D[0])
            U, S, V, Uinv, Vinv = smith_normal_form(D)
            assert mat_mul(mat_mul(U, D), V) == S, (label, n)
            assert mat_mul(U, Uinv) == identity_matrix(rows), (label, n)
            assert mat_mul(V, Vinv) == identity_matrix(cols), (label, n)
            assert mat_mul(unimodular_inverse(U), U) == identity_matrix(rows)
            diag = [S[i][i] for i in range(min(rows, cols))]
            assert all(S[i][j] == 0 for i in range(rows) for j in range(cols)
                       if i != j)
            assert all(d >= 0 for d in diag)
            assert all(b % a == 0 if a else b == 0
                       for a, b in zip(diag, diag[1:]))


def test_validation_survives_python_O():
    code = textwrap.dedent("""
        from plhtpy.errors import InvalidGroup, NotAChainComplex
        from plhtpy.homology import AbelianGroup, ChainComplex
        print(__debug__)
        for rank, torsion in [(-1, (0, 4, 6)), (0, (4, 6)), (-1, ())]:
            try:
                AbelianGroup(rank, torsion)
            except InvalidGroup:
                print("InvalidGroup")
        try:
            # an unsorted triangle misses its face (b, a): dd != 0
            ChainComplex({0: [("a",), ("b",), ("c",)],
                          1: [("a", "b"), ("a", "c"), ("b", "c")],
                          2: [("b", "a", "c")]})
        except NotAChainComplex:
            print("NotAChainComplex")
    """)
    src = str(Path(plhtpy.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False"] + ["InvalidGroup"] * 3 + [
        "NotAChainComplex"], proc.stderr
