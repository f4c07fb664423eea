"""Integer simplicial homology via Smith normal form.

Chain groups are free on the simplices of a closed complex, oriented by the
sorted order of their vertex identifiers.  Everything is computed over the
integers with exact arithmetic: homology groups, relative homology of a
closed pair, maps induced by simplicial maps, connecting homomorphisms, and
an exactness check for the long sequence of a pair.

Chains are sparse throughout: a chain is a dict from simplices to
coefficients, and each boundary column is the list of (facet row, +-1)
pairs of one simplex, so d d = 0 is checked column by column and chain
maps (inclusion, projection, connecting map, simplicial push-forward) map
dicts to dicts.  The dense boundary matrix is built only as the input of
the Smith normal form.

One Smith normal form kernel serves all of it, empty matrices included.
Each pivot is the least entry of the remaining block, searched again after
any nonzero remainder, so |pivot| falls and the kernel ends on dense input
too; entry growth has no proven bound (a modular SNF is future work).  It
keeps the column transform V and its inverse only, so H_n needs no rational
solve: the SNF P D_n V = S of the boundary map gives the cycles (the
columns of V past the rank r) and, through V^-1, cycle coordinates (rows
r.. of V^-1 v).  The quotient of Z^k by a lattice of relations, with its
coordinates and generators, is the class `AbelianQuotient`, shared with the
abelianized fundamental group; it passes the relations as rows, so the row
side it needs is the column side of the transpose.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, sub

from .complexes import Complex, Simplex, facets, sdim, sname
from .errors import (Incompatible, InvalidGroup, NotAChainComplex,
                     NotClosed, NotSimplicial, NotSubcomplex)
from .linalg import eliminate


# ---------------------------------------------------------------------------
# Integer matrices (lists of lists of int)
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out

def identity_matrix(n):
    # zero rows by list repetition, then the diagonal: every Smith normal
    # form starts from two of these, empty matrices included
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows

def smith_normal_form(A, ncols=0):
    """P @ A @ V = S with P, V unimodular and S in Smith normal form.

    Returns (S, Vcols, Vinv): Vcols[j] is column j of V, and Vinv = V^-1
    follows the inverse elementary operations (a column operation on V is
    the opposite row operation on Vinv).  P is not kept: a caller that
    needs the row side passes the transpose, as V^T A^T P^T = S^T.  A has
    `ncols` columns when it has no rows; then V is the identity.

    Step t moves the first entry of least absolute value in the block t..
    to (t, t) and reduces column t and row t by it once.  A nonzero
    remainder is smaller than the pivot, and the step restarts with the
    pivot search; when an entry of the block is not divisible by the
    pivot, the step adds that entry's row to row t and restarts too.
    |pivot| strictly decreases at least every second restart of a step, so
    the loop ends.  No bound on the growth of the other entries is proved;
    a modular SNF (Kannan and Bachem, SIAM J. Comput. 8, 1979) would give
    one, and is future work.
    """
    S = [list(r) for r in A]
    n = len(S)
    m = len(S[0]) if n else ncols
    Vinv = identity_matrix(m)
    # kept transposed, so that its column operations act on rows
    V_t = identity_matrix(m)

    def addmul_row(dst, src, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]

    def addmul_col(dst, src, c):
        for r in S:
            r[dst] += c * r[src]
        V_t[dst] = [x + c * y for x, y in zip(V_t[dst], V_t[src])]
        Vinv[src] = [x - c * y for x, y in zip(Vinv[src], Vinv[dst])]

    def pivot(t):
        """First entry of least absolute value in the block t.., if any,
        in row-major order; builtins scan each row, so zero rows are cheap."""
        best = None
        for i in range(t, n):
            row = S[i][t:]
            x = min(map(abs, filter(None, row)), default=0)
            if x and (best is None or x < best[0]):
                best = (x, i, t + list(map(abs, row)).index(x))
                if x == 1:      # nothing later is smaller
                    return best
        return best

    t = 0
    while t < min(n, m):
        best = pivot(t)
        if best is None:
            break
        _, bi, bj = best
        S[t], S[bi] = S[bi], S[t]
        for r in S:
            r[t], r[bj] = r[bj], r[t]
        V_t[t], V_t[bj] = V_t[bj], V_t[t]
        Vinv[t], Vinv[bj] = Vinv[bj], Vinv[t]
        piv = S[t][t]
        for i in range(t + 1, n):
            if S[i][t]:
                addmul_row(i, t, -(S[i][t] // piv))
        for j in range(t + 1, m):
            if S[t][j]:
                addmul_col(j, t, -(S[t][j] // piv))
        if any(S[i][t] for i in range(t + 1, n)) or any(S[t][t + 1:]):
            continue
        # enforce divisibility of the rest of the block by the pivot (a
        # unit pivot divides everything)
        if abs(piv) > 1:
            offender = next((i for i in range(t + 1, n)
                             for j in range(t + 1, m) if S[i][j] % piv), None)
            if offender is not None:
                addmul_row(t, offender, 1)
                continue
        if piv < 0:
            S[t] = [-x for x in S[t]]
        t += 1
    return S, V_t, Vinv

def snf_rank(S):
    """Number of nonzero invariant factors of a Smith normal form."""
    return sum(1 for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i])

def kernel_basis(A, ncols=0):
    """Lattice basis of {x : A x = 0} (columns of V past the SNF rank); A
    has `ncols` columns when it has no rows."""
    S, Vcols, _ = smith_normal_form(A, ncols)
    return Vcols[snf_rank(S):]

def lattice_subset(gens_a, gens_b):
    """Is the lattice spanned by gens_a contained in the one spanned by
    gens_b?  Generators are vectors in Z^n."""
    if not gens_a:
        return True
    quotient = AbelianQuotient(len(gens_a[0]), gens_b)
    return not any(any(quotient.coords(g)) for g in gens_a)

def unimodular_inverse(U):
    """Inverse of a unimodular integer matrix: Gauss-Jordan elimination of
    [U | I] ends at [d I | d U^-1] with d = det U = +-1."""
    n = len(U)
    if any(len(row) != n for row in U):
        raise ValueError("matrix is not square")
    m = [list(row) + e for row, e in zip(U, identity_matrix(n))]
    pivots, d = eliminate(m, n)
    if len(pivots) != n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row[n:]] for row in m]


# ---------------------------------------------------------------------------
# Groups and chain complexes
# ---------------------------------------------------------------------------

class AbelianGroup:
    """Finitely generated abelian group: Z^rank + Z/d_1 + ... (d_1|d_2|...)."""

    def __init__(self, rank: int, torsion=()):
        torsion = tuple(int(d) for d in torsion)
        if rank < 0:
            raise InvalidGroup(f"negative rank {rank}")
        if any(d <= 1 for d in torsion):
            raise InvalidGroup(f"torsion orders {torsion} must exceed 1")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise InvalidGroup(
                f"torsion orders {torsion} must each divide the next")
        self.rank = rank
        self.torsion = torsion

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and (self.rank, self.torsion) == (other.rank, other.torsion))

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"AbelianGroup(rank={self.rank}, torsion={self.torsion})"

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class AbelianQuotient:
    """Z^k modulo the lattice spanned by `relations` (vectors of Z^k),
    with coordinates and generators from one Smith normal form.

    With P R V = S for the relations as the rows of R, the class of x in
    Z^k has SNF coordinates x V.  Coordinates with invariant factor 1 are
    dropped; the rest are the group's: torsion ones (order d > 1) first,
    in divisibility order, then free ones (order 0).  Generator j is the
    matching row of V^-1.
    """

    def __init__(self, k: int, relations: list[list[int]]):
        S, Vcols, Vinv = smith_normal_form(relations, k)
        r = snf_rank(S)
        invs = [S[i][i] for i in range(r)] + [0] * (k - r)
        self.coord_idx = [i for i in range(k) if invs[i] != 1]
        self.coord_cols = [Vcols[i] for i in self.coord_idx]
        self.gen_rows = [Vinv[i] for i in self.coord_idx]
        self.orders = [invs[i] for i in self.coord_idx]
        self.group = AbelianGroup(self.orders.count(0),
                                  [d for d in self.orders if d])

    def ngens(self) -> int:
        return len(self.coord_idx)

    def reduce(self, c) -> tuple[int, ...]:
        """Group coordinates with each torsion entry reduced mod its order."""
        return tuple(x % d if d else x for x, d in zip(c, self.orders))

    def coords(self, x: list[int]) -> tuple[int, ...]:
        """Class of x in Z^k, in group coordinates."""
        support = [(j, v) for j, v in enumerate(x) if v]
        return self.reduce([sum(col[j] * v for j, v in support)
                            for col in self.coord_cols])

    def generator(self, j: int) -> list[int]:
        """Vector of Z^k representing the j-th group generator."""
        return list(self.gen_rows[j])

    def negate(self, j: int) -> None:
        """Replace the j-th generator by its negative."""
        self.coord_cols[j] = [-x for x in self.coord_cols[j]]
        self.gen_rows[j] = [-x for x in self.gen_rows[j]]


class ChainComplex:
    """Free integer chain complex on the simplices of a closed complex.

    basis[n] is the sorted list of n-simplices.  boundary[n][j] is the
    boundary of basis[n][j] as (row, +-1) pairs, rows indexing basis[n-1].
    Chains are dicts from simplices to coefficients; `matrix(n)` is the
    dense d_n that the Smith normal form reads.
    """

    def __init__(self, basis: dict[int, list[Simplex]]):
        self.basis = {n: list(b) for n, b in basis.items() if b}
        self.dim = max(self.basis, default=-1)
        self.index = {n: {s: i for i, s in enumerate(b)}
                      for n, b in self.basis.items()}
        self.boundary: dict[int, list[list[tuple[int, int]]]] = {}
        for n, b in self.basis.items():
            lower = self.index.get(n - 1, {})
            self.boundary[n] = [[(lower[f], (-1) ** drop)
                                 for drop, f in enumerate(facets(s))
                                 if f in lower] for s in b]
        for n, b in self.basis.items():
            for s in b:
                if self.boundary_chain(self.boundary_chain({s: 1})):
                    raise NotAChainComplex(
                        f"d_{n - 1} d_{n} != 0 on {sname(s)}")

    def matrix(self, n: int) -> list[list[int]]:
        """Dense d_n, with len(basis[n-1]) rows and len(basis[n]) columns."""
        cols = self.boundary.get(n, [])
        D = [[0] * len(cols) for _ in self.basis.get(n - 1, [])]
        for j, col in enumerate(cols):
            for i, c in col:
                D[i][j] = c
        return D

    def boundary_chain(self, chain: dict[Simplex, int]) -> dict[Simplex, int]:
        """Boundary of a chain of basis simplices, zero terms dropped."""
        out: dict[Simplex, int] = {}
        for s, c in chain.items():
            n = len(s) - 1
            faces = self.basis.get(n - 1, [])
            for i, e in self.boundary[n][self.index[n][s]]:
                out[faces[i]] = out.get(faces[i], 0) + c * e
        return {f: c for f, c in out.items() if c}


def chain_complex(K: Complex, rel=None) -> ChainComplex:
    """Chain complex of a closed K; with `rel`, the quotient by a closed
    subcomplex (its simplices are dropped from every basis)."""
    if not K.is_closed():
        raise NotClosed("chain complex requires a closed complex")
    drop = frozenset()
    if rel is not None:
        members = frozenset(tuple(s) for s in getattr(rel, "members", rel))
        if not members <= K.simplices:
            raise NotSubcomplex("relative part is not a subcomplex")
        sub = K.subcomplex(members)
        if not sub.is_closed():
            raise NotClosed("relative part must be closed")
        drop = members
    basis: dict[int, list[Simplex]] = {}
    for s in sorted(K.simplices, key=lambda s: (len(s), s)):
        if s not in drop:
            basis.setdefault(sdim(s), []).append(s)
    return ChainComplex(basis)


class HomologyData(AbelianQuotient):
    """H_n of a chain complex with explicit generators and coordinates.

    Computed over the integers from two Smith normal forms.  The SNF
    P D_n V = S of rank r gives the cycle lattice Z_n: its basis is the
    columns r.. of V, and a chain v has cycle coordinates rows r.. of
    V^-1 v (rows ..r vanish exactly when v is a cycle).  The boundaries,
    the sparse columns of d_{n+1}, are cycles; their cycle coordinates are
    the relations of H_n as an `AbelianQuotient` of Z^(rank Z_n).
    Generators are signed so that their first nonzero simplex coefficient
    is positive.
    """

    def __init__(self, cc: ChainComplex, n: int):
        self.cc = cc
        self.n = n
        self.simplices = cc.basis.get(n, [])
        k = len(self.simplices)
        S, Vcols, self.Vinv = smith_normal_form(cc.matrix(n), k)
        self.r = snf_rank(S)
        # lattice basis of Z_n, one vector per cycle coordinate
        self.cycles = Vcols[self.r:]
        super().__init__(len(self.cycles),
                         self._relations(cc.boundary.get(n + 1, [])))
        for j in range(self.ngens()):
            if next(iter(self.generator_chain(j).values()), 0) < 0:
                self.negate(j)

    def _relations(self, columns) -> list[list[int]]:
        """Cycle coordinates, rows r.. of V^-1 v, of the sparse columns v
        of d_{n+1}: each adds or subtracts (the entries are +-1) the few
        columns of V^-1 that v meets.  Rows ..r are not computed; they
        vanish, as boundaries are cycles (`ChainComplex` checks dd = 0
        column by column)."""
        low = self.Vinv[self.r:]
        cols = list(zip(*low)) if low else [()] * len(self.simplices)
        relations = []
        for support in columns:
            y = [0] * len(low)
            for j, x in support:
                y = list(map(add if x > 0 else sub, y, cols[j]))
            relations.append(y)
        return relations

    def _cycle_coords(self, support) -> list[int]:
        """Rows of V^-1 v, v given by its (index, entry) pairs: zero up to
        r exactly when v is a cycle."""
        return [sum(row[j] * x for j, x in support) for row in self.Vinv]

    def coords_of_chain(self, chain: dict[Simplex, int]) -> tuple[int, ...]:
        """Class of a cycle in group coordinates (torsion reduced)."""
        idx = self.cc.index.get(self.n, {})
        support = []
        for s, c in chain.items():
            if s not in idx:
                raise NotSubcomplex(f"{sname(s)} is not a basis simplex")
            support.append((idx[s], c))
        y = self._cycle_coords(support)
        if any(y[:self.r]):
            raise ValueError("chain is not a cycle")
        return self.coords(y[self.r:])

    def generator_chain(self, j: int) -> dict[Simplex, int]:
        """Cycle representing the j-th group generator."""
        v = [0] * len(self.simplices)
        for z, x in zip(self.cycles, self.generator(j)):
            if x:
                v = [a + x * b for a, b in zip(v, z)]
        return {s: c for s, c in zip(self.simplices, v) if c}


def homology(K: Complex, n: int) -> AbelianGroup:
    return HomologyData(chain_complex(K), n).group


def relative_homology(K: Complex, K_A, n: int) -> AbelianGroup:
    return HomologyData(chain_complex(K, rel=K_A), n).group


def euler_characteristic(K: Complex) -> int:
    return sum((-1) ** sdim(s) for s in K.simplices)


# ---------------------------------------------------------------------------
# Induced maps
# ---------------------------------------------------------------------------

class HomologyClassMap:
    """Map between homology groups, as a matrix in group coordinates."""

    def __init__(self, source: AbelianGroup, target: AbelianGroup,
                 matrix: list[list[int]]):
        self.source = source
        self.target = target
        tors = target.torsion
        toff = len(tors)
        red = []
        for i, row in enumerate(matrix):
            d = tors[i] if i < toff else 0
            red.append([x % d if d else x for x in row])
        self.matrix = red

    def __eq__(self, other):
        return (isinstance(other, HomologyClassMap)
                and (self.source, self.target, self.matrix)
                    == (other.source, other.target, other.matrix))

    def is_identity(self):
        n = len(self.matrix)
        return (self.source == self.target
                and all(len(r) == n for r in self.matrix)
                and all(self.matrix[i][j] == (1 if i == j else 0)
                        for i in range(n) for j in range(n)))

    def is_zero(self):
        return all(x == 0 for row in self.matrix for x in row)

    def compose(self, first: "HomologyClassMap") -> "HomologyClassMap":
        """self after first."""
        if first.target != self.source:
            raise Incompatible(f"cannot compose a map from {self.source} "
                               f"after a map into {first.target}")
        return HomologyClassMap(first.source, self.target,
                                mat_mul(self.matrix, first.matrix))


def push_chain(vmap: dict[str, str], chain: dict[Simplex, int],
               dst: ChainComplex) -> dict[Simplex, int]:
    """Image of a chain under a simplicial vertex map, as a chain of dst.

    A simplex whose vertices collide maps to zero; the others carry the
    sign of the permutation that sorts their image vertices.
    """
    out: dict[Simplex, int] = {}
    for s, c in chain.items():
        imgs = [vmap[x] for x in s]
        if len(set(imgs)) != len(imgs):
            continue  # degenerate: collapses, contributes zero
        t = tuple(sorted(imgs))
        if t not in dst.index.get(len(t) - 1, {}):
            raise NotSimplicial(f"image of {sname(s)} is not a simplex")
        # the sign of the sorting permutation is that of its inversions
        inversions = sum(a > b for a, b in combinations(imgs, 2))
        out[t] = out.get(t, 0) + (-1) ** inversions * c
    return {t: c for t, c in out.items() if c}


def class_map(src: HomologyData, dst: HomologyData,
              push) -> HomologyClassMap:
    """The map of a chain map `push` (a chain of src's complex to one of
    dst's) on homology, in the groups' coordinates."""
    cols = [dst.coords_of_chain(push(src.generator_chain(j)))
            for j in range(src.ngens())]
    matrix = [[cols[j][i] for j in range(len(cols))]
              for i in range(dst.ngens())]
    return HomologyClassMap(src.group, dst.group, matrix)


def induced_map_on_vertices(K: Complex, L: Complex, vmap: dict[str, str],
                            n: int) -> HomologyClassMap:
    """H_n map induced by a simplicial vertex map K -> L."""
    src_cc, dst_cc = chain_complex(K), chain_complex(L)
    return class_map(HomologyData(src_cc, n), HomologyData(dst_cc, n),
                     lambda z: push_chain(vmap, z, dst_cc))


def induced_map(g, n: int) -> HomologyClassMap:
    """Induced H_n map of a simplicial piecewise-linear map."""
    vmap = g.simplicial_vertex_map()
    if vmap is None:
        raise NotSimplicial("map is not simplicial")
    domain = getattr(g, "fine", g.domain)
    return induced_map_on_vertices(domain, g.codomain, vmap, n)


# ---------------------------------------------------------------------------
# Fundamental classes of the triangulated cubes
# ---------------------------------------------------------------------------

def fundamental_class(n: int):
    """(cube complex, boundary subcomplex, generating relative cycle) for
    n in {1, 2}; the chain generates H_n(cube, boundary) = Z."""
    from . import scx
    if n == 1:
        K, subs = scx.load_corpus("cube1")
        return K, subs["ends"], {("u0", "u1"): 1}
    if n == 2:
        K, subs = scx.load_corpus("cube2")
        return K, subs["boundary"], {("q00", "q10", "q11"): 1,
                                     ("q00", "q01", "q11"): -1}
    raise ValueError("fundamental classes available for n in {1, 2}")


# ---------------------------------------------------------------------------
# Long exact sequence of a closed pair
# ---------------------------------------------------------------------------

def relation_gens(group: AbelianGroup) -> list[list[int]]:
    """The relations d e_i of the torsion coordinates, which come first."""
    k = group.rank + len(group.torsion)
    return [[d if j == i else 0 for j in range(k)]
            for i, d in enumerate(group.torsion)]


def _exact_at(f: HomologyClassMap, g: HomologyClassMap) -> bool:
    """Exactness of  . --f--> G --g--> .  (image f = kernel g)."""
    kmid = f.target.rank + len(f.target.torsion)
    # image lattice: columns of f plus relations of the middle group
    im = [list(col) for col in zip(*f.matrix)] + relation_gens(f.target)
    # kernel lattice: y with g y in relations of the end group
    rel3 = relation_gens(g.target)
    A = [row + [rel[i] for rel in rel3] for i, row in enumerate(g.matrix)]
    ker = [k[:kmid] for k in kernel_basis(A, kmid + len(rel3))]
    return lattice_subset(im, ker) and lattice_subset(ker, im)


def verify_les(K: Complex, K_A) -> dict:
    """Exactness report for H_n(A) -> H_n(X) -> H_n(X,A) -> H_{n-1}(A)."""
    members = frozenset(tuple(s) for s in getattr(K_A, "members", K_A))
    A = K.restrict(members)
    cc_A, cc_X = chain_complex(A), chain_complex(K)
    cc_rel = chain_complex(K, rel=members)
    top = max(K.dim(), 0) + 1
    HA = {n: HomologyData(cc_A, n) for n in range(-1, top + 1)}
    HX = {n: HomologyData(cc_X, n) for n in range(top + 1)}
    HR = {n: HomologyData(cc_rel, n) for n in range(top + 1)}

    report = {"pair_groups": {}, "exact": True, "nodes": {}}
    maps_i, maps_j, maps_d = {}, {}, {}
    for n in range(top + 1):
        # on chains: i includes A, j drops A, d is the boundary in X
        maps_i[n] = class_map(HA[n], HX[n], lambda z: z)
        maps_j[n] = class_map(HX[n], HR[n], lambda z: {
            s: c for s, c in z.items() if s not in members})
        maps_d[n] = class_map(HR[n], HA[n - 1], cc_X.boundary_chain)
        report["pair_groups"][n] = (str(HA[n].group), str(HX[n].group),
                                    str(HR[n].group))
    for n in range(top + 1):
        at_X = _exact_at(maps_i[n], maps_j[n])
        at_rel = _exact_at(maps_j[n], maps_d[n])
        at_A = True
        if n + 1 <= top:
            at_A = _exact_at(maps_d[n + 1], maps_i[n])
        report["nodes"][n] = {"H_n(X)": at_X, "H_n(X,A)": at_rel, "H_n(A)": at_A}
        if not (at_X and at_rel and at_A):
            report["exact"] = False
    return report
