"""Integer simplicial homology: an algebraic Morse reduction, then the
Smith normal form on the critical cells.

Chain groups are free on the simplices of a closed complex, oriented by the
sorted order of their vertex identifiers.  Everything is computed over the
integers with exact arithmetic: homology groups, relative homology of a
closed pair, maps induced by simplicial maps, connecting homomorphisms, and
an exactness check for the long sequence of a pair.

Chains are sparse throughout: a chain is a dict from simplices to
coefficients, and each boundary column is the list of (facet row, +-1)
pairs of one simplex, so d d = 0 is checked column by column and chain
maps (inclusion, projection, connecting map, simplicial push-forward) map
dicts to dicts.

Homology first reduces the chain complex, once per complex: pairs of cells
with a unit incidence are eliminated (`MorseReduction`) until none is
left, starting with each vertex and its edge in the spanning forest that
pi_0 and pi_1 walk (`complexes.spanning_tree`), and each elimination is a
chain homotopy equivalence with explicit maps both ways.  A closed
Complex keeps its chain complex, and that keeps its reduction and each
H_n, so every degree and every caller on one complex share them.  Only the
residual complex on the critical cells, a few cells where the complex has
thousands, is made dense for the Smith normal form; generators come back
through the inclusion and chains go in through the projection.

One Smith normal form kernel serves all of it, empty matrices included.
Each pivot is the least entry of the remaining block, searched again after
any nonzero remainder, so |pivot| falls and the kernel ends on dense input
too; entry growth has no proven bound (a modular SNF is future work).  It
keeps the column transform V and its inverse only, so H_n needs no rational
solve: the SNF P D_n V = S of the residual boundary map gives the cycles
(the columns of V past the rank r) and, through V^-1, cycle coordinates
(rows r.. of V^-1 v).  The quotient of Z^k by a lattice of relations, with
its coordinates and generators, is the class `AbelianQuotient`, shared
with the abelianized fundamental group; it passes the relations as rows,
so the row side it needs is the column side of the transpose.

`AbelianGroup` owns the coordinate convention of every group here: its
`orders` are the torsion coordinates' (first) then the free ones' (0),
`reduce` takes each coordinate mod its order, and `relations` are the
d_i e_i of the torsion coordinates.  Class coordinates, induced maps, the
exactness check and the Hurewicz comparison read them from the group.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import combinations

from .complexes import (Complex, Simplex, facets, sdim, sname,
                        spanning_tree)
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
    if not any(map(any, S)):
        # no pivot: the loop below would return these as they are
        return S, V_t, Vinv

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
        # one order per coordinate: the torsion ones first, then the free
        self.orders = torsion + (0,) * rank

    def reduce(self, c) -> tuple[int, ...]:
        """Coordinates c with each torsion entry reduced mod its order."""
        return tuple(x % d if d else x for x, d in zip(c, self.orders))

    def relations(self) -> list[list[int]]:
        """The relations d_i e_i of the torsion coordinates."""
        return [[d if j == i else 0 for j in range(len(self.orders))]
                for i, d in enumerate(self.torsion)]

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
    in divisibility order, then free ones (order 0), as `AbelianGroup`
    orders them.  Generator j is the matching row of V^-1.
    """

    def __init__(self, k: int, relations: list[list[int]]):
        S, Vcols, Vinv = smith_normal_form(relations, k)
        r = snf_rank(S)
        invs = [S[i][i] for i in range(r)] + [0] * (k - r)
        self.coord_idx = [i for i in range(k) if invs[i] != 1]
        self.coord_cols = [Vcols[i] for i in self.coord_idx]
        self.gen_rows = [Vinv[i] for i in self.coord_idx]
        orders = [invs[i] for i in self.coord_idx]
        self.group = AbelianGroup(orders.count(0), [d for d in orders if d])

    def ngens(self) -> int:
        return len(self.coord_idx)

    def unreduced(self, x: list[int]) -> list[int]:
        """Group coordinates of x in Z^k before torsion reduction: linear
        in x, so sums may be reduced once at the end."""
        support = [(j, v) for j, v in enumerate(x) if v]
        return [sum(col[j] * v for j, v in support) for col in self.coord_cols]

    def coords(self, x: list[int]) -> tuple[int, ...]:
        """Class of x in Z^k, in group coordinates."""
        return self.group.reduce(self.unreduced(x))

    def generator(self, j: int) -> list[int]:
        """Vector of Z^k representing the j-th group generator."""
        return list(self.gen_rows[j])

    def _negate(self, j: int) -> None:
        """Replace the j-th generator by its negative; only a constructor
        may, since a kept `HomologyData` is shared by its callers."""
        self.coord_cols[j] = [-x for x in self.coord_cols[j]]
        self.gen_rows[j] = [-x for x in self.gen_rows[j]]


class ChainComplex:
    """Free integer chain complex on the simplices of a closed complex.

    basis[n] is the sorted list of n-simplices.  boundary[n][j] is the
    boundary of basis[n][j] as (row, +-1) pairs, rows indexing basis[n-1].
    Chains are dicts from simplices to coefficients; `matrix(n)` is the
    dense d_n.  `reduction()` is the complex's Morse reduction and
    `homology(n)` its H_n, each built on first use and kept, so every
    degree and every caller of one chain complex share one reduction.
    `chain_complex` keeps a closed complex's own chain complex on it.
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
        self._reduction: MorseReduction | None = None
        self._homology: dict[int, HomologyData] = {}
        # d d = 0, column by column on the integer rows
        for n, cols in self.boundary.items():
            lower = self.boundary.get(n - 1)
            for j, col in enumerate(cols):
                dd: dict[int, int] = {}
                for i, e in col:
                    for k, f in lower[i]:
                        dd[k] = dd.get(k, 0) + e * f
                if any(dd.values()):
                    raise NotAChainComplex(
                        f"d_{n - 1} d_{n} != 0 on {sname(self.basis[n][j])}")

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

    def reduction(self) -> "MorseReduction":
        if self._reduction is None:
            self._reduction = MorseReduction(self)
        return self._reduction

    def homology(self, n: int) -> "HomologyData":
        """H_n of this complex, built on first use and kept: callers share
        it and must not change it."""
        if n not in self._homology:
            self._homology[n] = HomologyData(self, n)
        return self._homology[n]


class MorseReduction(ChainComplex):
    """Algebraic Morse reduction of a chain complex: the residual complex
    on the critical cells, and the chain equivalences to and from it.

    Eliminating a pair (a, b) with <d b, a> = eps = +-1 gives every other
    coface x of a the boundary d x - eps <d x, a> d b and drops b from its
    cofaces' boundaries.  Pairs are taken in a fixed order (Kaczynski,
    Mrozek and Slusarek, Comput. Math. Appl. 35, 1998):
      1. per component, `complexes.spanning_tree` (pi_0's and pi_1's walk)
         from the least vertex over the edges whose two vertices are live
         pairs each newly reached vertex with its tree edge;
      2. then zero-fill pairs from a worklist: a cell whose boundary is
         one unit term, or a face with a single coface of unit incidence;
      3. only when the worklist is empty, the unit pair of least fill
         (|cofaces(a)| - 1)(|d b| - 1), ties in basis order.
    The cells left are critical; `basis`, `index` and `boundary` describe
    the residual complex on them as for a `ChainComplex`, except that its
    entries may be any integer.

    Each elimination is a chain homotopy equivalence (Skoldberg, Trans.
    AMS 358, 2006), with d as at that step: the projection pi(a) =
    -eps (d b - eps a), pi(b) = 0, the quotient by span{b, d b}, and the
    inclusion iota(x) = x - eps <d x, a> b.  The log keeps (a, b, eps,
    d b less its a term) per step, and `up` the steps whose iota reads a
    cell, with <d x, a>; `project` replays pi in step order and `include`
    replays iota in reverse.  Cells are numbered in basis order, dimension
    by dimension.
    """

    def __init__(self, cc: ChainComplex):
        dims = sorted(cc.basis)
        self.cells = cells = [s for n in dims for s in cc.basis[n]]
        self.source_index = cc.index
        # working tables, dropped once the residual is read: the boundary
        # of each live cell and its cofaces (a dict used as an ordered set)
        self.offset: dict[int, int] = {}
        bd: list = []
        for n in dims:
            self.offset[n] = len(bd)
            low = self.offset.get(n - 1, 0)
            bd.extend({low + i: e for i, e in col} for col in cc.boundary[n])
        cob: list = [{} for _ in cells]
        for c, d in enumerate(bd):
            for f in d:
                cob[f][c] = None
        self.log: list[tuple[int, int, int, tuple]] = []
        self.step = [-1] * len(cells)
        self.up: dict[int, list[tuple[int, int]]] = {}
        work = deque(range(len(cells)))

        def eliminate(a, b):
            k = len(self.log)
            eps = bd[b][a]
            rest = tuple((y, e) for y, e in bd[b].items() if y != a)
            for x in cob[a]:
                if x == b:
                    continue
                dx = bd[x]
                c = dx.pop(a)
                self.up.setdefault(x, []).append((k, c))
                m = -eps * c
                for y, e in rest:
                    v = dx.get(y, 0) + m * e
                    if v:
                        dx[y] = v
                        cob[y][x] = None
                    else:
                        del dx[y], cob[y][x]
                work.append(x)
            for y in bd[b]:
                del cob[y][b]
            for w in cob[b]:
                del bd[w][b]
            for z in bd[a]:
                del cob[z][a]
            work.extend(y for y, _ in rest)
            work.extend(cob[b])
            work.extend(bd[a])
            self.log.append((a, b, eps, rest))
            self.step[a] = self.step[b] = k
            bd[a] = bd[b] = cob[a] = cob[b] = None

        # vertex -> {neighbour: edge} over the edges whose two vertices are
        # live; cell numbers order the vertices as their ids do
        adj = {u: {v: e for e in cob[u] if len(bd[e]) == 2
                   for v in bd[e] if v != u}
               for u in range(len(cc.basis.get(0, [])))}
        tree = {}
        for root in adj:
            if root not in tree:
                tree.update(spanning_tree(adj, root))
        for v, u in tree.items():
            if u != v:
                eliminate(v, adj[u][v])
        while True:
            while work:
                c = work.popleft()
                if bd[c] is None:
                    continue
                if len(bd[c]) == 1:
                    (a, e), = bd[c].items()
                    if e in (1, -1):
                        eliminate(a, c)
                        continue
                if len(cob[c]) == 1:
                    x, = cob[c]
                    if bd[x][c] in (1, -1):
                        eliminate(c, x)
            best = min((((len(cob[a]) - 1) * (len(d) - 1), b, a)
                        for b, d in enumerate(bd) if d
                        for a, e in d.items() if e in (1, -1)), default=None)
            if best is None:
                break
            eliminate(best[2], best[1])
        self.basis, self.index, self.boundary = {}, {}, {}
        for c, d in enumerate(bd):
            if d is not None:
                n, s = len(cells[c]) - 1, cells[c]
                idx = self.index.setdefault(n, {})
                idx[s] = len(idx)
                self.basis.setdefault(n, []).append(s)
                self.boundary.setdefault(n, []).append(
                    [(self.index[n - 1][cells[f]], e) for f, e in d.items()])
        self.dim = max(self.basis, default=-1)
        self._reduction = None
        self._homology = {}

    def _id(self, s: Simplex) -> int:
        n = len(s) - 1
        return self.offset[n] + self.source_index[n][s]

    def project(self, chain: dict[Simplex, int]) -> dict[Simplex, int]:
        """pi of a chain of the source complex: a chain of critical cells.
        Each step expands its a into cells still live at that step, so the
        steps come off a heap of step indices in increasing order."""
        log, step = self.log, self.step
        out = {self._id(s): x for s, x in chain.items()}
        heap = [step[c] for c in out if step[c] >= 0]
        heapify(heap)
        while heap:
            a, b, eps, rest = log[heappop(heap)]
            out.pop(b, None)
            x = out.pop(a, 0)
            for y, e in rest if x else ():
                out[y] = out.get(y, 0) - eps * x * e
                if step[y] >= 0:
                    heappush(heap, step[y])
        return {self.cells[c]: x for c, x in out.items() if x}

    def include(self, chain: dict[Simplex, int]) -> dict[Simplex, int]:
        """iota of a chain of critical cells: a chain of the source
        complex, in basis order.  The b of step k gets -eps times the sum
        of <d x, a> over the chain's cells x, all of them critical or the
        b of a later step, so the steps come off a heap in decreasing
        order."""
        out: dict[int, int] = {}
        acc: dict[int, int] = {}
        heap: list[int] = []

        def put(c, x):
            out[c] = x
            for k, e in self.up.get(c, ()):
                if k not in acc:
                    acc[k] = 0
                    heappush(heap, -k)
                acc[k] += x * e

        for s, x in chain.items():
            put(self._id(s), x)
        while heap:
            k = -heappop(heap)
            _, b, eps, _ = self.log[k]
            x = -eps * acc.pop(k)
            if x:
                put(b, x)
        return {self.cells[c]: out[c] for c in sorted(out) if out[c]}


def chain_complex(K: Complex, rel=None) -> ChainComplex:
    """Chain complex of a closed K; with `rel`, the quotient by a closed
    subcomplex (its simplices are dropped from every basis).

    K's own chain complex is built here on first use and kept on K (a
    Complex is immutable), so its reduction and each H_n are built once
    per complex however many callers ask; a relative one is built per
    call."""
    if not K.is_closed():
        raise NotClosed("chain complex requires a closed complex")
    if rel is None:
        if K._chains is None:
            K._chains = ChainComplex({n: K.by_dim(n)
                                      for n in range(K.dim() + 1)})
        return K._chains
    drop = frozenset(tuple(s) for s in getattr(rel, "members", rel))
    if not drop <= K.simplices:
        raise NotSubcomplex("relative part is not a subcomplex")
    if not K.subcomplex(drop).is_closed():
        raise NotClosed("relative part must be closed")
    return ChainComplex({n: [s for s in K.by_dim(n) if s not in drop]
                         for n in range(K.dim() + 1)})


class HomologyData(AbelianQuotient):
    """H_n of a chain complex with explicit generators and coordinates.

    Computed over the integers from two Smith normal forms on the
    complex's Morse reduction.  The SNF P D_n V = S of the residual d_n, of
    rank r, gives the residual cycle lattice Z_n: its basis is the columns
    r.. of V, and a residual chain v has cycle coordinates rows r.. of
    V^-1 v.  The residual boundaries, the columns of d_{n+1}, are cycles;
    their cycle coordinates are the relations of H_n as an
    `AbelianQuotient` of Z^(rank Z_n).  A generator is the inclusion of a
    residual cycle, and a cycle's class is read from its projection.
    Generators are signed so that their first nonzero simplex coefficient
    is positive.
    """

    def __init__(self, cc: ChainComplex, n: int):
        self.cc = cc
        self.n = n
        self.red = cc.reduction()
        S, Vcols, self.Vinv = smith_normal_form(
            self.red.matrix(n), len(self.red.basis.get(n, [])))
        self.r = snf_rank(S)
        # lattice basis of the residual Z_n, one vector per cycle coordinate
        self.cycles = Vcols[self.r:]
        super().__init__(len(self.cycles),
                         self._relations(self.red.boundary.get(n + 1, [])))
        for j in range(self.ngens()):
            if next(iter(self.generator_chain(j).values()), 0) < 0:
                self._negate(j)

    def _relations(self, columns) -> list[list[int]]:
        """Cycle coordinates, rows r.. of V^-1 v, of residual columns v
        given as (row, entry) pairs: each row's product with v reads only
        v's pairs.  Rows ..r are not computed; they vanish on cycles."""
        low = self.Vinv[self.r:]
        return [[sum(row[j] * x for j, x in support) for row in low]
                for support in columns]

    def coords_of_chain(self, chain: dict[Simplex, int]) -> tuple[int, ...]:
        """Class of a cycle in group coordinates (torsion reduced)."""
        idx = self.cc.index.get(self.n, {})
        for s in chain:
            if s not in idx:
                raise NotSubcomplex(f"{sname(s)} is not a basis simplex")
        if self.cc.boundary_chain(chain):
            raise ValueError("chain is not a cycle")
        return self.group.reduce(self.chain_unreduced(chain))

    def chain_unreduced(self, chain: dict[Simplex, int]) -> list[int]:
        """Group coordinates, before torsion reduction, of the projection
        of any n-chain: linear in the chain (the projection and the cycle
        coordinates are), and on a cycle its reduction is the class.  A
        chain that projects to nothing has zero coordinates."""
        z = self.red.project(chain)
        if not z:
            return [0] * self.ngens()
        pos = self.red.index.get(self.n, {})
        return self.unreduced(self._relations(
            [[(pos[s], x) for s, x in z.items()]])[0])

    def generator_chain(self, j: int) -> dict[Simplex, int]:
        """Cycle representing the j-th group generator."""
        crit = self.red.basis.get(self.n, [])
        v = [0] * len(crit)
        for z, x in zip(self.cycles, self.generator(j)):
            if x:
                v = [a + x * b for a, b in zip(v, z)]
        return self.red.include({s: c for s, c in zip(crit, v) if c})


def homology(K: Complex, n: int) -> AbelianGroup:
    """H_n of a closed K: the H_n kept on the chain complex kept on K,
    each built by its first caller (`chain_complex`,
    `ChainComplex.homology`) and shared with every later one."""
    return chain_complex(K).homology(n).group


def relative_homology(K: Complex, K_A, n: int) -> AbelianGroup:
    return HomologyData(chain_complex(K, rel=K_A), n).group


def euler_characteristic(K: Complex) -> int:
    return sum((-1) ** sdim(s) for s in K.simplices)


# ---------------------------------------------------------------------------
# Induced maps
# ---------------------------------------------------------------------------

class HomologyClassMap:
    """Map between homology groups, as a matrix in group coordinates: one
    row per coordinate of the target, reduced mod its order, and one column
    per coordinate of the source."""

    def __init__(self, source: AbelianGroup, target: AbelianGroup,
                 matrix: list[list[int]]):
        rows, cols = len(target.orders), len(source.orders)
        if len(matrix) != rows or any(len(row) != cols for row in matrix):
            raise Incompatible(f"a map from {source} to {target} needs "
                               f"{rows} rows of {cols} entries")
        self.source = source
        self.target = target
        self.matrix = [[x % d if d else x for x in row]
                       for row, d in zip(matrix, target.orders)]

    def __eq__(self, other):
        return (isinstance(other, HomologyClassMap)
                and (self.source, self.target, self.matrix)
                    == (other.source, other.target, other.matrix))

    def is_identity(self):
        return (self.source == self.target
                and self.matrix == identity_matrix(len(self.matrix)))

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
    return class_map(src_cc.homology(n), dst_cc.homology(n),
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

def _exact_at(f: HomologyClassMap, g: HomologyClassMap) -> bool:
    """Exactness of  . --f--> G --g--> .  (image f = kernel g): g sends
    each column of f to 0, then kernel g lies in image f."""
    for col in zip(*f.matrix):
        if any(g.target.reduce(sum(a * b for a, b in zip(row, col))
                               for row in g.matrix)):
            return False
    kmid = len(f.target.orders)
    # image lattice: columns of f plus relations of the middle group
    im = [list(col) for col in zip(*f.matrix)] + f.target.relations()
    # kernel lattice: y with g y in relations of the end group
    rel3 = g.target.relations()
    A = [row + [rel[i] for rel in rel3] for i, row in enumerate(g.matrix)]
    ker = [k[:kmid] for k in kernel_basis(A, kmid + len(rel3))]
    return lattice_subset(ker, im)


def verify_les(K: Complex, K_A) -> dict:
    """Exactness report for H_n(A) -> H_n(X) -> H_n(X,A) -> H_{n-1}(A)."""
    members = frozenset(tuple(s) for s in getattr(K_A, "members", K_A))
    A = K.restrict(members)
    cc_A, cc_X = chain_complex(A), chain_complex(K)
    cc_rel = chain_complex(K, rel=members)
    top = max(K.dim(), 0) + 1
    HA = {n: cc_A.homology(n) for n in range(-1, top + 1)}
    HX = {n: cc_X.homology(n) for n in range(top + 1)}
    HR = {n: cc_rel.homology(n) for n in range(top + 1)}

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
