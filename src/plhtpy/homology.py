"""Integer simplicial homology via Smith normal form.

Chain groups are free on the simplices of a closed complex, oriented by the
sorted order of their vertex identifiers.  Everything is computed over the
integers with exact arithmetic: homology groups, relative homology of a
closed pair, maps induced by simplicial maps, connecting homomorphisms, and
an exactness check for the long sequence of a pair.

One Smith normal form kernel serves all of it.  It returns the unimodular
transforms together with their inverses, so H_n needs no rational solve:
the SNF U D_n V = S of the boundary map gives the cycles (the columns of V
past the rank r) and, through V^-1, cycle coordinates (rows r.. of V^-1 v);
a second SNF of the boundaries in those coordinates gives the group.  The
quotient of Z^k by a lattice of relations, with its coordinates and
generators, is the class `AbelianQuotient`, shared with the abelianized
fundamental group.
"""

from __future__ import annotations

from .complexes import Complex, Simplex, sdim, sname
from .errors import (InvalidGroup, NotAChainComplex, NotClosed,
                     NotSimplicial, NotSubcomplex)


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
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

def transpose(A, m):
    """Transpose of a matrix with m columns (m is needed when A has no rows)."""
    return [[row[j] for row in A] for j in range(m)]

def smith_normal_form(A):
    """U @ A @ V = S with U, V unimodular and S in Smith normal form.

    Returns (U, S, V, Uinv, Vinv).  The inverses follow the inverse
    elementary operations: a row operation on U is the opposite column
    operation on Uinv, a column operation on V the opposite row operation
    on Vinv.  Pivoting on the smallest nonzero entry keeps coefficient
    growth in check; arbitrary-precision ints absorb the rest.
    """
    S = [list(r) for r in A]
    n = len(S)
    m = len(S[0]) if n else 0
    U = identity_matrix(n)
    Vinv = identity_matrix(m)
    # kept transposed, so that their column operations act on rows
    Uinv_t = identity_matrix(n)
    V_t = identity_matrix(m)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        Uinv_t[i], Uinv_t[j] = Uinv_t[j], Uinv_t[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        V_t[i], V_t[j] = V_t[j], V_t[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def addmul_row(dst, src, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]
        Uinv_t[src] = [x - c * y for x, y in zip(Uinv_t[src], Uinv_t[dst])]

    def addmul_col(dst, src, c):
        for r in S:
            r[dst] += c * r[src]
        V_t[dst] = [x + c * y for x, y in zip(V_t[dst], V_t[src])]
        Vinv[src] = [x - c * y for x, y in zip(Vinv[src], Vinv[dst])]

    def pivot(t):
        """First entry of least absolute value in the block t.., if any."""
        best = None
        for i in range(t, n):
            row = S[i]
            for j in range(t, m):
                x = abs(row[j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
                    if x == 1:      # nothing later is smaller
                        return best
        return best

    t = 0
    while t < min(n, m):
        best = pivot(t)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, n):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    addmul_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    addmul_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the rest of the block by the pivot (a
        # unit pivot divides everything)
        piv = S[t][t]
        if abs(piv) > 1:
            offender = next((i for i in range(t + 1, n)
                             for j in range(t + 1, m) if S[i][j] % piv), None)
            if offender is not None:
                addmul_row(t, offender, 1)
                continue
        if piv < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
            Uinv_t[t] = [-x for x in Uinv_t[t]]
        t += 1
    return U, S, transpose(V_t, m), transpose(Uinv_t, n), Vinv

def snf_rank(S):
    """Number of nonzero invariant factors of a Smith normal form."""
    return sum(1 for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i])

def kernel_basis(A):
    """Lattice basis of {x : A x = 0} (columns of V past the SNF rank)."""
    n = len(A)
    m = len(A[0]) if n else 0
    if m == 0:
        return []
    if n == 0:
        return identity_matrix(m)
    _, S, V, _, _ = smith_normal_form(A)
    return transpose(V, m)[snf_rank(S):]

def lattice_subset(gens_a, gens_b):
    """Is the lattice spanned by gens_a contained in the one spanned by
    gens_b?  Generators are vectors in Z^n."""
    if not gens_a:
        return True
    quotient = AbelianQuotient(len(gens_a[0]), gens_b)
    return not any(any(quotient.coords(g)) for g in gens_a)

def unimodular_inverse(U):
    """Inverse of a unimodular integer matrix: P U Q = I gives U^-1 = Q P."""
    P, S, Q, _, _ = smith_normal_form(U)
    if S != identity_matrix(len(U)):
        raise ValueError("matrix is not unimodular")
    return mat_mul(Q, P)


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

    With U R V = S for the relation matrix R, the class of x in Z^k has
    SNF coordinates U x.  Coordinates with invariant factor 1 are dropped;
    the rest are the group's: torsion ones (order d > 1) first, in
    divisibility order, then free ones (order 0).  Generator j is the
    matching column of U^-1.
    """

    def __init__(self, k: int, relations: list[list[int]]):
        if k and relations:
            U, S, _, Uinv, _ = smith_normal_form(
                [[rel[i] for rel in relations] for i in range(k)])
        else:
            U, S, Uinv = identity_matrix(k), [], identity_matrix(k)
        r = snf_rank(S)
        invs = [S[i][i] for i in range(r)] + [0] * (k - r)
        self.U, self.Uinv = U, Uinv
        self.coord_idx = [i for i in range(k) if invs[i] != 1]
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
        return self.reduce([sum(self.U[i][j] * v for j, v in support)
                            for i in self.coord_idx])

    def generator(self, j: int) -> list[int]:
        """Vector of Z^k representing the j-th group generator."""
        i = self.coord_idx[j]
        return [row[i] for row in self.Uinv]

    def negate(self, j: int) -> None:
        """Replace the j-th generator by its negative."""
        i = self.coord_idx[j]
        self.U[i] = [-x for x in self.U[i]]
        for row in self.Uinv:
            row[i] = -row[i]


class ChainComplex:
    """Free integer chain complex on the simplices of a closed complex.

    basis[n] is the sorted list of n-simplices; boundary[n] maps C_n -> C_{n-1}
    as a matrix with len(basis[n-1]) rows and len(basis[n]) columns.
    """

    def __init__(self, basis: dict[int, list[Simplex]]):
        self.basis = {n: list(b) for n, b in basis.items() if b}
        self.dim = max(self.basis, default=-1)
        self.index = {n: {s: i for i, s in enumerate(b)}
                      for n, b in self.basis.items()}
        self.boundary: dict[int, list[list[int]]] = {}
        for n in range(1, self.dim + 1):
            rows = len(self.basis.get(n - 1, []))
            cols = len(self.basis.get(n, []))
            D = [[0] * cols for _ in range(rows)]
            lower = self.index.get(n - 1, {})
            for j, s in enumerate(self.basis.get(n, [])):
                for drop in range(len(s)):
                    face = s[:drop] + s[drop + 1:]
                    i = lower.get(face)
                    if i is not None:
                        D[i][j] = (-1) ** drop
            self.boundary[n] = D
        for n in range(2, self.dim + 1):
            prod = mat_mul(self.boundary[n - 1], self.boundary[n])
            if any(x for row in prod for x in row):
                raise NotAChainComplex(f"d_{n - 1} d_{n} != 0")

    def chain_vector(self, n: int, chain: dict[Simplex, int]) -> list[int]:
        v = [0] * len(self.basis.get(n, []))
        idx = self.index.get(n, {})
        for s, c in chain.items():
            s = tuple(s)
            if s not in idx:
                raise NotSubcomplex(f"{sname(s)} is not a basis simplex")
            v[idx[s]] = c
        return v

    def boundary_of(self, n: int, v: list[int]) -> list[int]:
        D = self.boundary.get(n)
        if D is None:
            return [0] * len(self.basis.get(n - 1, []))
        return [sum(D[i][j] * v[j] for j in range(len(v))) for i in range(len(D))]


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
    U D_n V = S of rank r gives the cycle lattice Z_n: its basis is the
    columns r.. of V, and a vector v has cycle coordinates rows r.. of
    V^-1 v (rows ..r vanish exactly when v is a cycle).  The boundaries,
    the columns of D_{n+1}, are cycles; their cycle coordinates are the
    relations of H_n as an `AbelianQuotient` of Z^(rank Z_n).  Generators
    are signed so that their first nonzero simplex coefficient is
    positive.
    """

    def __init__(self, cc: ChainComplex, n: int):
        self.cc = cc
        self.n = n
        self.simplices = cc.basis.get(n, [])
        k = len(self.simplices)
        Dn = cc.boundary.get(n)
        if Dn:
            _, S, V, _, self.Vinv = smith_normal_form(Dn)
            self.r = snf_rank(S)
        else:
            V = self.Vinv = identity_matrix(k)
            self.r = 0
        # lattice basis of Z_n, one vector per cycle coordinate
        self.cycles = transpose(V, k)[self.r:]
        D1 = cc.boundary.get(n + 1)
        bnd = transpose(D1, len(D1[0])) if D1 else []
        super().__init__(len(self.cycles),
                         [self._cycle_coords(b)[self.r:] for b in bnd])
        for j in range(self.ngens()):
            if next((e for e in self.generator_vector(j) if e), 0) < 0:
                self.negate(j)

    def _cycle_coords(self, v: list[int]) -> list[int]:
        """Rows of V^-1 v: zero up to r exactly when v is a cycle."""
        support = [(j, x) for j, x in enumerate(v) if x]
        return [sum(row[j] * x for j, x in support) for row in self.Vinv]

    def coords_of_vector(self, v: list[int]) -> tuple[int, ...]:
        """Class of a cycle vector in group coordinates (torsion reduced)."""
        y = self._cycle_coords(v)
        if any(y[:self.r]):
            raise ValueError("vector is not a cycle")
        return self.coords(y[self.r:])

    def coords_of_chain(self, chain: dict[Simplex, int]) -> tuple[int, ...]:
        return self.coords_of_vector(self.cc.chain_vector(self.n, chain))

    def generator_vector(self, j: int) -> list[int]:
        """Cycle vector representing the j-th group generator."""
        v = [0] * len(self.simplices)
        for z, x in zip(self.cycles, self.generator(j)):
            if x:
                v = [a + x * b for a, b in zip(v, z)]
        return v

    def generator_chain(self, j: int) -> dict[Simplex, int]:
        v = self.generator_vector(j)
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
        return HomologyClassMap(first.source, self.target,
                                mat_mul(self.matrix, first.matrix))


def chain_image_vector(src: ChainComplex, dst: ChainComplex, vmap: dict[str, str],
                       n: int, v: list[int]) -> list[int]:
    out = [0] * len(dst.basis.get(n, []))
    idx = dst.index.get(n, {})
    for j, s in enumerate(src.basis.get(n, [])):
        if v[j] == 0:
            continue
        imgs = [vmap[x] for x in s]
        if len(set(imgs)) != len(imgs):
            continue  # degenerate: collapses, contributes zero
        order = sorted(range(len(imgs)), key=lambda i: imgs[i])
        sign = 1
        perm = list(order)
        for a in range(len(perm)):
            while perm[a] != a:
                b = perm[a]
                perm[a], perm[b] = perm[b], perm[a]
                sign = -sign
        t = tuple(imgs[i] for i in order)
        if t not in idx:
            raise NotSimplicial(f"image of {sname(s)} is not a simplex")
        out[idx[t]] += sign * v[j]
    return out


def induced_map_on_vertices(K: Complex, L: Complex, vmap: dict[str, str],
                            n: int) -> HomologyClassMap:
    """H_n map induced by a simplicial vertex map K -> L."""
    src_cc, dst_cc = chain_complex(K), chain_complex(L)
    src, dst = HomologyData(src_cc, n), HomologyData(dst_cc, n)
    cols = []
    for j in range(src.ngens()):
        img = chain_image_vector(src_cc, dst_cc, vmap, n, src.generator_vector(j))
        cols.append(dst.coords_of_vector(img))
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(dst.ngens())]
    return HomologyClassMap(src.group, dst.group, matrix)


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

def _relation_gens(group: AbelianGroup):
    k = group.rank + len(group.torsion)
    gens = []
    for i, d in enumerate(group.torsion):
        v = [0] * k
        v[i] = d
        gens.append(v)
    return gens

def _exact_at(f: HomologyClassMap, g: HomologyClassMap) -> bool:
    """Exactness of  . --f--> G --g--> .  (image f = kernel g)."""
    kmid = f.target.rank + len(f.target.torsion)
    # image lattice: columns of f plus relations of the middle group
    fcols = [[f.matrix[i][j] for i in range(kmid)]
             for j in range(len(f.matrix[0]) if f.matrix else 0)]
    im = fcols + _relation_gens(f.target)
    # kernel lattice: y with g y in relations of the end group
    ktgt = g.target.rank + len(g.target.torsion)
    rel3 = _relation_gens(g.target)
    cols = [[g.matrix[i][j] for i in range(ktgt)] for j in range(kmid)] + rel3
    A = [[cols[j][i] for j in range(len(cols))] for i in range(ktgt)]
    ker_full = kernel_basis(A) if A else identity_matrix(kmid + len(rel3))
    ker = [k[:kmid] for k in ker_full]
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
    ident = {v: v for s in K.simplices for v in s}

    def mk_map(src: HomologyData, dst: HomologyData, push) -> HomologyClassMap:
        cols = [dst.coords_of_vector(push(src.generator_vector(j)))
                for j in range(src.ngens())]
        matrix = [[cols[j][i] for j in range(len(cols))]
                  for i in range(dst.ngens())]
        return HomologyClassMap(src.group, dst.group, matrix)

    report = {"pair_groups": {}, "exact": True, "nodes": {}}
    maps_i, maps_j, maps_d = {}, {}, {}
    for n in range(top + 1):
        maps_i[n] = mk_map(HA[n], HX[n],
                           lambda v, n=n: chain_image_vector(cc_A, cc_X, ident, n, v))

        def proj(v, n=n):
            out = [0] * len(cc_rel.basis.get(n, []))
            idx = cc_rel.index.get(n, {})
            for j, s in enumerate(cc_X.basis.get(n, [])):
                if v[j] and s in idx:
                    out[idx[s]] = v[j]
            return out

        maps_j[n] = mk_map(HX[n], HR[n], proj)

        def connect(v, n=n):
            # lift rel cycle to X-chain, take boundary, read off in A
            lift = [0] * len(cc_X.basis.get(n, []))
            for j, s in enumerate(cc_rel.basis.get(n, [])):
                if v[j]:
                    lift[cc_X.index[n][s]] = v[j]
            bnd = cc_X.boundary_of(n, lift)
            out = [0] * len(cc_A.basis.get(n - 1, []))
            idxA = cc_A.index.get(n - 1, {})
            for i, s in enumerate(cc_X.basis.get(n - 1, [])):
                if bnd[i]:
                    out[idxA[s]] = bnd[i]
            return out

        maps_d[n] = mk_map(HR[n], HA[n - 1], connect)
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
