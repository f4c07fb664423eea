"""Integer simplicial homology: SNF groups, induced maps, exact sequences."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

import pytest

import plhtpy
from plhtpy import fungroup as fg
from plhtpy import plmaps as pm
from plhtpy import scx
from plhtpy import subdivision as sd
from plhtpy.complexes import (Complex, faces_with_self, proper_faces,
                               simplex, validate)
from plhtpy import homology as hm
from plhtpy.errors import (Incompatible, NotAChainComplex, NotClosed,
                           NotSimplicial, NotSubcomplex)
from plhtpy.homology import (AbelianGroup, AbelianQuotient, ChainComplex,
                             HomologyClassMap, HomologyData, chain_complex,
                             euler_characteristic, fundamental_class,
                             homology, identity_matrix, induced_map,
                             induced_map_on_vertices, lattice_subset,
                             mat_mul, push_chain, relative_homology,
                             smith_normal_form, snf_rank,
                             unimodular_inverse, verify_les)
from conftest import make_deg2, make_rot, random_closure

Z = AbelianGroup(1)
Z2 = AbelianGroup(2)
ZERO = AbelianGroup(0)
Z_MOD2 = AbelianGroup(0, (2,))


def check_column_side(A, S, Vcols, Vinv):
    """What a one-sided SNF P A V = S certifies without P: V V^-1 = I, S
    is diagonal and nonnegative with the divisibility chain, and column i
    of A V is divisible by d_i below the rank r and zero past it."""
    rows, cols = len(A), len(Vcols)
    V = [list(row) for row in zip(*Vcols)]
    assert mat_mul(V, Vinv) == identity_matrix(cols)
    assert all(S[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j)
    diag = [S[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    r = sum(1 for d in diag if d)
    for i, col in enumerate(Vcols):
        image = [sum(a * x for a, x in zip(row, col)) for row in A]
        if i < r:
            assert all(y % diag[i] == 0 for y in image), i
        else:
            assert not any(image), i
    return diag


def check_row_side(A, diag):
    """The row side through the transpose: Z^rows modulo the columns of A
    is the group of diag, every relation has zero coordinates and
    generator j has coordinates e_j."""
    Q = AbelianQuotient(len(A), [list(col) for col in zip(*A)])
    r = sum(1 for d in diag if d)
    assert Q.group == AbelianGroup(len(A) - r, [d for d in diag if d > 1])
    m = Q.ngens()
    assert all(not any(Q.coords(col)) for col in zip(*A))
    for j in range(m):
        assert Q.coords(Q.generator(j)) == unit(j, m), j


def test_smith_normal_form_transforms():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    S, Vcols, Vinv = smith_normal_form(A)
    diag = check_column_side(A, S, Vcols, Vinv)
    # frozen oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 4,
    # d1*d2*d3 = |det A| = 624
    assert diag == [2, 2, 156]
    check_row_side(A, diag)


def test_smith_normal_form_of_a_zero_matrix():
    """A matrix with no nonzero entry returns at once, with the values the
    pivot loop gives it: S a copy of A, and V and V^-1 two fresh
    identities."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        A = [[0] * cols for _ in range(rows)]
        S, Vcols, Vinv = smith_normal_form(A, cols)
        I = identity_matrix(cols)
        assert (S, Vcols, Vinv) == (A, I, I), (rows, cols)
        assert S is not A and not any(s is a for s, a in zip(S, A))
        assert Vcols is not Vinv and not any(
            v is w for v, w in zip(Vcols, Vinv))
        check_row_side(A, check_column_side(A, S, Vcols, Vinv))


def brute_det(M):
    """Determinant by the permutation expansion."""
    total = 0
    for perm in permutations(range(len(M))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = sign
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


def minors_gcd(A, k):
    """gcd of the k x k minors of A."""
    g = 0
    for rs in combinations(range(len(A)), k):
        for cs in combinations(range(len(A[0])), k):
            g = gcd(g, brute_det([[A[i][j] for j in cs] for i in rs]))
    return g


def test_smith_normal_form_matches_minor_gcds():
    # d_1 ... d_k is the gcd of the k x k minors, on A and on its
    # transpose: an oracle for the row side the kernel no longer returns
    rng = random.Random(20141)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        for M in (A, [list(col) for col in zip(*A)]):
            S, Vcols, Vinv = smith_normal_form(M)
            diag = check_column_side(M, S, Vcols, Vinv)
            check_row_side(M, diag)
            prod = 1
            for k, d in enumerate(diag, 1):
                prod *= d
                assert prod == minors_gcd(M, k), (M, k)


# a dense matrix on which a kernel that swaps a remainder into the pivot
# position in mid-pass, instead of searching the block again, grows its
# entries past a million bits
DENSE_9X7 = [[0, 2, 5, -2, -3, 0, 4], [-1, -8, 4, -8, 7, -6, -2],
             [6, 6, -2, 6, -8, 4, -8], [-3, 7, -3, -7, 0, -7, -4],
             [-3, 5, 6, 3, -5, 0, -2], [-5, -7, -1, 1, 8, -2, 4],
             [0, -1, -2, -3, 2, -7, 1], [8, 0, -5, 5, -9, 4, 3],
             [1, -4, 6, 0, 8, 8, -6]]


def test_smith_normal_form_terminates_on_dense_input():
    # in a child process, so that a kernel that never returns fails the
    # test at the timeout instead of stalling the suite
    code = textwrap.dedent("""
        import random
        from plhtpy.homology import (AbelianGroup, AbelianQuotient,
                                     identity_matrix, smith_normal_form)
        from test_homology import (DENSE_9X7, check_column_side,
                                   check_row_side, unit)
        rng = random.Random(16)
        mats = [DENSE_9X7] + [
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            for rows, cols in ((rng.randint(1, 10), rng.randint(1, 10))
                               for _ in range(300))]
        for A in mats:
            for M in (A, [list(col) for col in zip(*A)]):
                check_row_side(M, check_column_side(M, *smith_normal_form(M)))
        # a matrix with no rows: V is the identity, the quotient Z^k
        for k in range(4):
            I = identity_matrix(k)
            assert smith_normal_form([], k) == ([], I, I)
            Q = AbelianQuotient(k, [])
            assert Q.group == AbelianGroup(k)
            assert [Q.coords(Q.generator(j)) for j in range(k)] == [
                unit(j, k) for j in range(k)]
        print("ok")
    """)
    path = os.pathsep.join([str(Path(plhtpy.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.split() == ["ok"], proc.stderr


def test_unimodular_inverse_rejects_non_unimodular_matrices():
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert unimodular_inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    for M in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0]]):
        with pytest.raises(ValueError):
            unimodular_inverse(M)


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
    D1, D2 = cc.matrix(1), cc.matrix(2)
    assert len(D1) == 7 and len(D1[0]) == 21
    assert len(D2) == 21 and len(D2[0]) == 14
    prod = mat_mul(D1, D2)
    assert all(x == 0 for row in prod for x in row)


def test_chain_complex_tri3_column_sums(tri3):
    D = chain_complex(tri3).matrix(1)
    for j in range(3):
        assert sum(D[i][j] for i in range(3)) == 0


TRIANGLE = {0: [("a",), ("b",), ("c",)],
            1: [("a", "b"), ("a", "c"), ("b", "c")],
            2: [("a", "b", "c")]}


def test_chain_complex_sparse_columns():
    cc = ChainComplex(TRIANGLE)
    assert cc.boundary[2] == [[(2, 1), (1, -1), (0, 1)]]
    assert cc.boundary[0] == [[], [], []]
    assert cc.boundary_chain({("a", "b", "c"): 1}) == {
        ("b", "c"): 1, ("a", "c"): -1, ("a", "b"): 1}
    assert cc.boundary_chain({("a", "b"): 1, ("b", "c"): 1,
                              ("a", "c"): -1}) == {}


def test_chain_complex_rejects_a_missing_edge():
    for e in TRIANGLE[1]:
        basis = {**TRIANGLE, 1: [f for f in TRIANGLE[1] if f != e]}
        with pytest.raises(NotAChainComplex):
            ChainComplex(basis)


def test_homology_builds_no_dense_product(corpus, monkeypatch):
    """Chain complexes, groups, exact sequences and induced maps read the
    sparse boundary columns: none of them multiplies dense matrices."""
    def refuse(A, B):
        raise AssertionError("dense matrix product")

    monkeypatch.setattr(hm, "mat_mul", refuse)
    for name in ("disk", "s2", "torus7"):
        K, subs = corpus[name]
        w = sd.iterated_subdivision(K, 1)
        cc = chain_complex(w.fine)
        for n in range(-1, w.fine.dim() + 2):
            HomologyData(cc, n)
        A = subs.get("boundary")
        members = ([t for t in w.fine.simplices if w.carrier[t] in A.members]
                   if A else [(min(w.fine.vertex_ids()),)])
        assert verify_les(w.fine, members)["exact"]
        vmap = {v: min(w.carrier[(v,)]) for v in w.fine.vertex_ids()}
        g = pm.simplicial_map(w.fine, K, vmap)
        for n in range(w.fine.dim() + 1):
            m = induced_map(g, n)
            assert m.source == m.target == homology(K, n)


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


def dense_boundary(basis, n):
    """Reference dense d_n: entry (-1)^i in the row of facet i of each
    n-simplex's column, facets missing from basis[n-1] left out."""
    lower = {s: i for i, s in enumerate(basis.get(n - 1, []))}
    D = [[0] * len(basis.get(n, [])) for _ in lower]
    for j, s in enumerate(basis.get(n, [])):
        for drop in range(len(s)):
            i = lower.get(s[:drop] + s[drop + 1:])
            if i is not None:
                D[i][j] = (-1) ** drop
    return D


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
        for n in range(cc.dim + 2):
            assert cc.matrix(n) == dense_boundary(cc.basis, n), n
        for n in range(2, cc.dim + 1):
            prod = mat_mul(cc.matrix(n - 1), cc.matrix(n))
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


def test_push_chain_signs_and_degeneracies(tri3):
    cc = chain_complex(tri3)
    swap = {"a": "b", "b": "a", "c": "c"}
    assert push_chain(swap, {("a", "b"): 2, ("a", "c"): 1}, cc) == {
        ("a", "b"): -2, ("b", "c"): 1}
    flat = {"a": "a", "b": "a", "c": "c"}
    assert push_chain(flat, {("a", "b"): 1, ("b", "c"): 1}, cc) == {
        ("a", "c"): 1}
    with pytest.raises(NotSimplicial):
        push_chain({"a": "a", "b": "x", "c": "c"}, {("a", "b"): 1}, cc)


def test_compose_requires_matching_groups():
    to_z2 = HomologyClassMap(Z, Z_MOD2, [[1]])
    to_z_z = HomologyClassMap(Z, Z2, [[1], [0]])
    triple = HomologyClassMap(Z, Z, [[3]])
    assert triple.compose(triple).matrix == [[9]]
    with pytest.raises(Incompatible, match=r"from Z after a map into Z/2"):
        triple.compose(to_z2)
    with pytest.raises(Incompatible, match=r"from Z after a map into Z\^2"):
        triple.compose(to_z_z)


def test_class_map_rejects_a_matrix_of_the_wrong_shape(tri3):
    # one row per target coordinate, one entry per source coordinate: a
    # second entry in Z -> Z would be dropped by compose
    for source, target, matrix in [(Z, Z, [[1, 5]]), (Z, Z, [[1], [0]]),
                                   (Z, Z, []), (Z2, Z2, [[1, 0], [0]])]:
        with pytest.raises(Incompatible, match="needs"):
            HomologyClassMap(source, target, matrix)
    assert HomologyClassMap(ZERO, Z2, [[], []]).is_zero()
    assert HomologyClassMap(Z2, ZERO, []).is_zero()
    # class_map with no generator on either side: tri3 and a point
    point = tri3.restrict([("a",)])
    onto = induced_map_on_vertices(tri3, point, dict.fromkeys("abc", "a"), 1)
    into = induced_map_on_vertices(point, tri3, {"a": "a"}, 1)
    assert (onto.source, onto.target, onto.matrix) == (Z, ZERO, [])
    assert (into.source, into.target, into.matrix) == (ZERO, Z, [[]])
    assert onto.compose(into).is_zero()


def test_coords_of_chain_rejects_non_basis_simplices(tri3, disk,
                                                      disk_boundary):
    H = HomologyData(chain_complex(tri3), 1)
    with pytest.raises(NotSubcomplex):
        H.coords_of_chain({("a", "x"): 1})
    with pytest.raises(ValueError, match="not a cycle"):
        H.coords_of_chain({("a", "b"): 1})
    rel = HomologyData(chain_complex(disk, rel=disk_boundary), 1)
    with pytest.raises(NotSubcomplex):
        rel.coords_of_chain({("a", "b"): 1})


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


@pytest.mark.parametrize("r", [0, 1])
def test_les_with_torsion(corpus, r):
    # H_1(rp6) = Z/2, so the sequence meets torsion coordinates, alone and
    # beside free ones
    K = sd.iterated_subdivision(corpus["rp6"][0], r).fine
    rng = random.Random(f"les-torsion@{r}")
    subs = [K.skeleton(0), K.skeleton(1),
            K.closed_star(K.subcomplex([(min(K.vertex_ids()),)]))]
    subs += [random_closure(K, rng) for _ in range(3)]
    for members in subs:
        report = verify_les(K, members)
        assert all(all(node.values()) for node in report["nodes"].values())
        assert report["exact"]
    if r == 0:
        pair = verify_les(K, K.skeleton(0))["pair_groups"][1]
        assert pair == ("0", "Z/2", "Z^5 + Z/2")


def test_exact_at_hand_built_sequences(monkeypatch):
    def times(k):
        return HomologyClassMap(Z, Z, [[k]])

    mod2 = HomologyClassMap(Z, Z_MOD2, [[1]])

    def refuse(a, b):
        raise AssertionError("lattice test reached")

    # Z -x1-> Z -> Z/2: g f = mod2 is not zero, which decides before the
    # lattice test
    with monkeypatch.context() as m:
        m.setattr(hm, "lattice_subset", refuse)
        assert not hm._exact_at(times(1), mod2)
    # Z -x4-> Z -> Z/2: g f = 0, but the kernel 2Z is not in the image 4Z
    assert mod2.compose(times(4)).is_zero()
    assert not hm._exact_at(times(4), mod2)
    # Z -x2-> Z -> Z/2 is exact
    assert hm._exact_at(times(2), mod2)


def test_group_printing():
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert str(Z) == "Z"
    assert str(ZERO) == "0"


def test_abelian_group_owns_its_coordinates():
    # torsion coordinates first, each reduced mod its order, then free ones
    G = AbelianGroup(2, (2, 4))
    assert G.orders == (2, 4, 0, 0)
    assert G.reduce((3, 5, 7, -1)) == (1, 1, 7, -1)
    assert G.relations() == [[2, 0, 0, 0], [0, 4, 0, 0]]
    assert (ZERO.orders, ZERO.reduce(()), ZERO.relations()) == ((), (), [])


def test_quotient_orders_are_the_invariant_factors():
    # the SNF lists its invariant factors as 1s, then the d > 1 in
    # divisibility order, then 0s: dropping the 1s leaves the group's orders
    rng = random.Random(34)
    for _ in range(300):
        k = rng.randint(0, 5)
        R = [[rng.choice((0, 0, 1, -2, 3, 4, -6, 8)) for _ in range(k)]
             for _ in range(rng.randint(0, 5))]
        S, _, _ = smith_normal_form(R, k)
        factors = [S[i][i] for i in range(min(len(R), k))]
        nonzero = [d for d in factors if d]
        Q = AbelianQuotient(k, R)
        assert Q.group.orders == (tuple(d for d in nonzero if d != 1)
                                  + (0,) * (k - len(nonzero))), R
        # each torsion relation d_i e_i is the class of d_i times generator i
        for rel in Q.group.relations():
            x = [sum(c * g for c, g in zip(rel, col))
                 for col in zip(*map(Q.generator, range(Q.ngens())))]
            assert not any(Q.coords(x)), R


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
                for s in cc.basis.get(n + 1, []):
                    assert H.coords_of_chain(
                        cc.boundary_chain({s: 1})) == (0,) * m
                moved = [s for s in cc.basis.get(n, [])
                         if cc.boundary_chain({s: 1})]
                if moved:
                    with pytest.raises(ValueError):
                        H.coords_of_chain({moved[0]: 1})


def dense_groups(cc):
    """H_n of a chain complex from the dense Smith normal forms of the full
    d_n and d_{n+1}, each taken on its shorter side (a matrix and its
    transpose have the same invariant factors): the reference for the
    groups of the Morse reduction."""
    factors = {}
    for n in range(cc.dim + 2):
        D = cc.matrix(n)
        if D and len(D[0]) > len(D):
            D = [list(col) for col in zip(*D)]
        S = smith_normal_form(D, len(cc.basis.get(n, [])))[0]
        factors[n] = [S[i][i] for i in range(snf_rank(S))]
    return {n: AbelianGroup(
        len(cc.basis.get(n, [])) - len(factors[n]) - len(factors[n + 1]),
        [d for d in factors[n + 1] if d > 1]) for n in range(cc.dim + 1)}


def test_reduction_matches_the_dense_smith_normal_form(corpus):
    for name, (K, subs) in sorted(corpus.items()):
        for r in range(3):
            w = sd.iterated_subdivision(K, r)
            for rel in [None] + [[t for t in w.fine.simplices
                                  if w.carrier[t] in ref.members]
                                 for ref in subs.values()]:
                cc = chain_complex(w.fine, rel=rel)
                groups = dense_groups(cc)
                for n in range(cc.dim + 1):
                    assert HomologyData(cc, n).group == groups[n], (name, r)
                # pi iota = 1 on the residual, and iota and pi are chain
                # maps
                red = cc.reduction()
                for s in (s for b in red.basis.values() for s in b):
                    assert red.project(red.include({s: 1})) == {s: 1}
                    assert cc.boundary_chain(red.include({s: 1})) == \
                        red.include(red.boundary_chain({s: 1})), (name, r)
                for s in (s for b in cc.basis.values() for s in b):
                    assert red.project(cc.boundary_chain({s: 1})) == \
                        red.boundary_chain(red.project({s: 1})), (name, r)
    for name, cells in (("torus7", (1, 2, 1)), ("s2", (1, 0, 1)),
                        ("disk", (1, 0, 0))):
        fine = sd.iterated_subdivision(corpus[name][0], 2).fine
        red = chain_complex(fine).reduction()
        assert tuple(len(red.basis.get(n, [])) for n in range(3)) == cells


def test_random_closed_subcomplexes_agree_across_routes(corpus):
    """Seeded closures of random simplex samples of each corpus complex
    at r=1 and r=2: the Morse-reduced groups equal the dense Smith normal
    forms, the Euler characteristic is the alternating sum of ranks, pi_0
    counts rank H_0, and on a connected sample abelianized pi_1 -> H_1 is
    an isomorphism.  A failure prints the sample's SCX."""
    rng = random.Random(29)
    connected = higher = 0
    for name in scx.CORPUS_NAMES:
        for r in (1, 2):
            fine = sd.iterated_subdivision(corpus[name][0], r).fine
            for _ in range(4):
                A = fine.restrict(random_closure(fine, rng))
                cc = chain_complex(A)
                dense = dense_groups(cc)
                groups = [HomologyData(cc, n).group
                          for n in range(cc.dim + 1)]
                assert groups == [dense[n] for n in range(cc.dim + 1)], \
                    scx.emit_scx(A)
                assert euler_characteristic(A) == sum(
                    (-1) ** n * g.rank for n, g in enumerate(groups)), \
                    scx.emit_scx(A)
                components = fg.pi0(A)
                assert len(components) == groups[0].rank, scx.emit_scx(A)
                if len(components) == 1:
                    connected += 1
                    assert fg.Hurewicz1(A, components[0][0]) \
                        .is_isomorphism(), scx.emit_scx(A)
                higher += any(not g.is_trivial() for g in groups[1:])
    assert connected >= 10 and higher >= 10


def chain_unreduced_reference(h, chain):
    """`HomologyData.chain_unreduced` as it read before an empty Morse
    projection returned zeros: the relations and coordinates of every
    projection, empty or not."""
    pos = h.red.index.get(h.n, {})
    z = h.red.project(chain)
    return h.unreduced(h._relations([[(pos[s], x) for s, x in z.items()]])[0])


def test_empty_projections_have_zero_coordinates(corpus, monkeypatch):
    """Seeded closures of random samples of each corpus complex at r=1 and
    r=2: every edge's unreduced H_1 coordinates are those of the full
    route, whether its Morse projection is empty or not, and on a
    connected sample the Hurewicz generator classes are too."""
    rng = random.Random(3436)
    seen = Counter()
    for name in scx.CORPUS_NAMES:
        for r in (1, 2):
            fine = sd.iterated_subdivision(corpus[name][0], r).fine
            for _ in range(4):
                A = fine.restrict(random_closure(fine, rng))
                h1 = chain_complex(A).homology(1)
                for e in A.by_dim(1):
                    assert h1.chain_unreduced({e: 1}) == \
                        chain_unreduced_reference(h1, {e: 1}), \
                        scx.emit_scx(A)
                    seen[bool(h1.red.project({e: 1}))] += 1
                components = fg.pi0(A)
                if len(components) != 1:
                    continue
                x0 = rng.choice(A.vertex_ids())
                got = fg.Hurewicz1(A, x0).gen_classes
                with monkeypatch.context() as m:
                    m.setattr(hm.HomologyData, "chain_unreduced",
                              chain_unreduced_reference)
                    expected = fg.Hurewicz1(A, x0).gen_classes
                assert got == expected, scx.emit_scx(A)
                seen["connected"] += 1
                seen["nontrivial"] += any(map(any, got))
    assert seen[False] > seen[True] > 0, seen
    assert seen["connected"] >= 5 and seen["nontrivial"] >= 3, seen


def test_one_morse_reduction_per_complex(corpus, monkeypatch):
    """Every degree and every caller on one complex share its kept chain
    complex, reduction and H_n; an equal complex, a closure, a
    restriction and a relative chain complex each build their own."""
    built = []

    class Counted(hm.MorseReduction):
        def __init__(self, cc):
            built.append(cc)
            super().__init__(cc)

    monkeypatch.setattr(hm, "MorseReduction", Counted)
    S = sd.iterated_subdivision(corpus["s2"][0], 1).fine
    K = Complex(S.ambient_dim, S.vertices, S.simplices)
    x0, x1 = min(K.vertex_ids()), max(K.vertex_ids())
    assert [homology(K, n) for n in range(-1, K.dim() + 2)] == [
        ZERO, Z, ZERO, Z, ZERO]
    for x in (x0, x1):
        assert fg.hurewicz_h1(K, x).is_isomorphism()
    assert fg.pi2_via_hurewicz(K, x0, True).group == Z
    ident = pm.simplicial_map(K, K, {v: v for v in K.vertex_ids()})
    assert induced_map(ident, 2).is_identity()
    assert built == [chain_complex(K)]
    assert chain_complex(K).homology(2) is chain_complex(K).homology(2)
    for L in (K.closure(), K.restrict(K.simplices),
              Complex(K.ambient_dim, K.vertices, K.simplices)):
        assert homology(L, 2) == Z
    assert len(built) == 4
    star = frozenset(f for s in K.simplices if x0 in s
                     for f in faces_with_self(s))
    for _ in range(2):
        assert chain_complex(K, rel=star).homology(2).group == Z
    assert len(built) == 6


def test_kept_homology_equals_a_fresh_one(corpus):
    """On seeded random closures, the H_n kept on a complex has the
    groups and generator cycles of one built afresh."""
    rng = random.Random(31)
    for name, r in ((name, r) for name in scx.CORPUS_NAMES for r in (1, 2)):
        fine = sd.iterated_subdivision(corpus[name][0], r).fine
        for _ in range(3):
            A = fine.restrict(random_closure(fine, rng))
            fresh = ChainComplex({n: A.by_dim(n)
                                  for n in range(A.dim() + 1)})
            for n in range(A.dim() + 1):
                kept, new = chain_complex(A).homology(n), HomologyData(fresh, n)
                assert homology(A, n) == kept.group == new.group, \
                    scx.emit_scx(A)
                assert [kept.generator_chain(j) for j in range(kept.ngens())] \
                    == [new.generator_chain(j) for j in range(new.ngens())], \
                    scx.emit_scx(A)


def test_generator_chains_are_seed_independent():
    # the matching never iterates a set, so the generators of H_1 on
    # torus7 r=1, their order included, are one text under four hash seeds
    code = textwrap.dedent("""
        from plhtpy import scx, subdivision
        from plhtpy.homology import HomologyData, chain_complex
        K, _ = scx.load_corpus("torus7")
        fine = subdivision.iterated_subdivision(K, 1).fine
        H = HomologyData(chain_complex(fine), 1)
        for j in range(H.ngens()):
            print(list(H.generator_chain(j).items()))
    """)
    src = str(Path(plhtpy.__file__).resolve().parents[1])
    outs = set()
    for seed in "1234":
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed,
                                   "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    [out] = outs
    assert len(out.splitlines()) == 2


def test_relations_match_the_row_by_row_cycle_coordinates(lattice_spaces):
    # the relations sum columns of V^-1 and skip rows ..r; the row-by-row
    # products of V^-1 with the residual columns, whose entries may be any
    # integer, are the reference
    for label, K, subs in lattice_spaces:
        for cc in [chain_complex(K)] + [chain_complex(K, rel=m)
                                        for m in subs.values()]:
            for n in range(K.dim() + 1):
                H = HomologyData(cc, n)
                cols = cc.reduction().boundary.get(n + 1, [])
                assert H._relations(cols) == [
                    [sum(row[j] * x for j, x in col) for row in H.Vinv[H.r:]]
                    for col in cols], (label, n)


def test_relations_are_the_dense_product_with_the_low_rows(corpus):
    # each residual column, boundary or random chain, made a dense vector
    # and multiplied by the rows r.. of V^-1
    rng = random.Random(3401)
    for name, (K, _) in sorted(corpus.items()):
        fine = sd.iterated_subdivision(K, 1).fine
        for _ in range(2):
            cc = chain_complex(fine.restrict(random_closure(fine, rng)))
            red = cc.reduction()
            for n in range(cc.dim + 1):
                H = cc.homology(n)
                size = len(red.basis.get(n, []))
                cols = red.boundary.get(n + 1, []) + [
                    [(j, rng.randint(-3, 3))
                     for j in rng.sample(range(size), min(size, 3))]]
                dense = []
                for col in cols:
                    v = [[0] for _ in range(size)]
                    for j, x in col:
                        v[j][0] += x
                    dense.append([y for y, in mat_mul(H.Vinv[H.r:], v)])
                assert H._relations(cols) == dense, (name, n)


def test_smith_normal_form_inverses_on_boundaries(lattice_spaces):
    for label, K, _ in lattice_spaces:
        cc = chain_complex(K)
        for n in range(1, cc.dim + 1):
            D = cc.matrix(n)
            S, Vcols, Vinv = smith_normal_form(D)
            diag = check_column_side(D, S, Vcols, Vinv)
            check_row_side(D, diag)
            V = [list(row) for row in zip(*Vcols)]
            assert unimodular_inverse(V) == Vinv, (label, n)


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
        from plhtpy.complexes import validate
        from plhtpy.errors import ValueOutOfRange
        from plhtpy.plmaps import PLFunction
        from plhtpy.subdivision import identity_witness
        K = validate(1, {"a": (0,), "b": (1,)}, [["a"], ["b"], ["a", "b"]])
        for values in [{"a": 0, "b": 2}, {"a": -1, "b": 1}]:
            try:
                PLFunction(identity_witness(K), values)
            except ValueOutOfRange:
                print("ValueOutOfRange")
    """)
    src = str(Path(plhtpy.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False"] + ["InvalidGroup"] * 3 + [
        "NotAChainComplex"] + ["ValueOutOfRange"] * 2, proc.stderr
