"""Edge-path fundamental groups.

One breadth-first walk of the 1-skeleton, `spanning_tree`, serves pi_0
(one tree per component), the presentation and `boundary_component`.
Presentations are built from the spanning tree at the base vertex
(generators = non-tree edges, one relator per 2-simplex); one length-one
relator elimination each certifies triviality and leaves the generators
the abelianization's Smith normal form runs on.  Also here: the degree-1
Hurewicz map to simplicial H_1, the conjugation action on words, and
pi_2 for certified simply connected complexes.  The word problem is
undecidable in general, so triviality verdicts are three-valued and
`Trivial` / `Nontrivial` are only returned with a certificate.
"""

from __future__ import annotations

import enum
from collections import deque

from .complexes import Complex, Simplex, SubcomplexRef, simplex
from .errors import (BaseVertexMismatch, NotCertifiablySimplyConnected,
                     NotClosed, NotConnected, StartNotInA)
from .homology import (AbelianGroup, AbelianQuotient, chain_complex,
                       homology)


# ---------------------------------------------------------------------------
# pi_0
# ---------------------------------------------------------------------------

def adjacency(K: Complex) -> dict[str, set[str]]:
    """Neighbours of every vertex in the 1-skeleton of a closed complex."""
    if not K.is_closed():
        raise NotClosed("the 1-skeleton needs a closed complex")
    adj: dict[str, set[str]] = {v: set() for v in K.vertex_ids()}
    for (u, v) in K.by_dim(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def spanning_tree(adj: dict[str, set[str]], start: str) -> dict[str, str]:
    """Breadth-first tree of start's component, neighbours visited in
    identifier order: vertex -> parent, the start its own parent, in the
    order the walk reaches them."""
    parent = {start: start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def pi0(K: Complex) -> list[tuple[str, ...]]:
    """Connected components of the 1-skeleton, as sorted vertex tuples."""
    adj = adjacency(K)
    seen: set[str] = set()
    comps = []
    for start in sorted(adj):
        if start not in seen:
            comp = spanning_tree(adj, start)
            seen.update(comp)
            comps.append(tuple(sorted(comp)))
    return sorted(comps)


def boundary_component(K: Complex, path: list[str], K_A) -> tuple[str, ...]:
    """Component of K_A containing the start vertex of an edge path in K.

    `path` is a vertex sequence; consecutive vertices must be equal or
    span an edge of K.
    """
    if not path:
        raise StartNotInA("empty path")
    for u, v in zip(path, path[1:]):
        if u != v and simplex((u, v)) not in K.simplices:
            raise StartNotInA(f"({u},{v}) is not an edge of the complex")
    A = K_A.as_complex() if isinstance(K_A, SubcomplexRef) else K_A
    start = path[0]
    adj = adjacency(A)
    if start not in adj:
        raise StartNotInA(f"path starts at {start!r}, outside the subcomplex")
    return tuple(sorted(spanning_tree(adj, start)))


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """Freely reduced word over signed presentation generators.

    Letters are nonzero integers: +i / -i for the i-th generator (1-based)
    and its inverse.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce(letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(f"g{x}" if x > 0 else f"g{-x}^-1"
                        for x in self.letters)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

class Presentation:
    """Edge-path presentation of the fundamental group of a closed
    connected complex, from a breadth-first spanning tree."""

    def __init__(self, K: Complex, x0: str):
        adj = adjacency(K)
        if x0 not in adj:
            raise NotConnected(f"base vertex {x0!r} is not in the complex")
        self.parent = spanning_tree(adj, x0)
        if len(self.parent) != len(adj):
            raise NotConnected(f"complex has {len(pi0(K))} components")
        self.K = K
        self.base = x0
        self.tree_edges = {simplex((u, w)) for w, u in self.parent.items()
                           if w != u}
        self.generator_edges: list[Simplex] = [
            e for e in K.by_dim(1) if e not in self.tree_edges]
        self._gen_index = {e: i + 1 for i, e in enumerate(self.generator_edges)}
        self.relators: list[Word] = []
        for (a, b, c) in K.by_dim(2):
            w = self.word_of_path([a, b, c, a])
            if w:
                self.relators.append(w)
        self._eliminated = None

    def ngens(self) -> int:
        return len(self.generator_edges)

    def letter(self, u: str, v: str) -> tuple[int, ...]:
        """Signed generator for the oriented edge u -> v; () on tree edges."""
        e = simplex((u, v))
        if e not in self.K.simplices:
            raise ValueError(f"({u},{v}) is not an edge")
        if e in self.tree_edges:
            return ()
        i = self._gen_index[e]
        return (i,) if (u, v) == e else (-i,)

    def word_of_path(self, path: list[str]) -> Word:
        """Word of an edge path (vertex sequence; repeats allowed)."""
        letters: list[int] = []
        for u, v in zip(path, path[1:]):
            if u != v:
                letters.extend(self.letter(u, v))
        return Word(letters)

    def tree_path(self, v: str) -> list[str]:
        """Vertex path from the base to v through the spanning tree."""
        back = [v]
        while back[-1] != self.base:
            back.append(self.parent[back[-1]])
        return back[::-1]

    def generator_loop(self, i: int) -> list[str]:
        """Based vertex loop representing generator i (1-based)."""
        u, v = self.generator_edges[i - 1]
        up = self.tree_path(u)
        down = self.tree_path(v)
        return up + down[::-1]

    def eliminated(self) -> tuple[set[int], list[tuple[int, ...]]]:
        """(dead generators, relators left over the live ones) of
        length-one Tietze elimination, built once: each pass deletes the
        dead letters of every relator and freely reduces it, and one
        letter left kills its generator, until a pass kills none."""
        if self._eliminated is None:
            dead: set[int] = set()
            relators = [r.letters for r in self.relators]
            changed = True
            while changed:
                changed = False
                nxt = []
                for r in relators:
                    r = _reduce(x for x in r if abs(x) not in dead)
                    if len(r) == 1:
                        dead.add(abs(r[0]))
                        changed = True
                    elif r:
                        nxt.append(r)
                relators = nxt
            self._eliminated = dead, relators
        return self._eliminated

    def loop_chain(self, path: list[str]) -> dict[Simplex, int]:
        """Oriented 1-chain of a closed vertex path."""
        chain: dict[Simplex, int] = {}
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            e = simplex((u, v))
            chain[e] = chain.get(e, 0) + (1 if (u, v) == e else -1)
        return {e: c for e, c in chain.items() if c}

    def __str__(self):
        gens = ", ".join(f"g{i + 1}" for i in range(self.ngens()))
        rels = ", ".join(str(r) for r in self.relators)
        return f"<{gens} | {rels}>"


def edge_path_presentation(K: Complex, x0: str) -> Presentation:
    return Presentation(K, x0)


# ---------------------------------------------------------------------------
# Abelianization
# ---------------------------------------------------------------------------

class Abelianization(AbelianQuotient):
    """Z^live modulo the exponent vectors of the relators that
    `Presentation.eliminated` leaves, in Smith normal form coordinates
    (torsion first, then free); `live` maps each live generator, in
    increasing order, to its coordinate.

    This is the abelianization Z^gens / L, L spanned by all relators:
    the relator that kills g has exponent vector +-e_g plus multiples of
    the unit vectors of generators dead before g, so by induction every
    dead unit vector lies in L, and dropping the dead coordinates maps L
    onto the span of the leftover relators (one that killed or was
    dropped maps to 0).
    """

    def __init__(self, pres: Presentation):
        dead, relators = pres.eliminated()
        self.live = {g: i for i, g in enumerate(
            g for g in range(1, pres.ngens() + 1) if g not in dead)}
        super().__init__(len(self.live),
                         [self._exponents(r) for r in relators])

    def _exponents(self, letters) -> list[int]:
        """Exponents over the live generators; dead letters count 0."""
        x = [0] * len(self.live)
        for g in letters:
            if abs(g) in self.live:
                x[self.live[abs(g)]] += 1 if g > 0 else -1
        return x

    def project(self, w: Word) -> tuple[int, ...]:
        return self.coords(self._exponents(w.letters))


def abelianization(pres: Presentation) -> Abelianization:
    """The abelianization of `pres`, built once per presentation."""
    ab = getattr(pres, "_abelianization", None)
    if ab is None:
        ab = pres._abelianization = Abelianization(pres)
    return ab


# ---------------------------------------------------------------------------
# Triviality verdicts
# ---------------------------------------------------------------------------

class GroupVerdict(enum.Enum):
    Trivial = "trivial"
    Nontrivial = "nontrivial"
    Unknown = "unknown"


def group_verdict(pres: Presentation) -> GroupVerdict:
    """Certified three-valued triviality verdict.

    Trivial: `Presentation.eliminated` kills every generator.
    Nontrivial: the abelianization is nontrivial, a free presentation of
    positive rank included.  Otherwise Unknown.
    """
    if len(pres.eliminated()[0]) == pres.ngens():
        return GroupVerdict.Trivial
    if not abelianization(pres).group.is_trivial():
        return GroupVerdict.Nontrivial
    return GroupVerdict.Unknown


# ---------------------------------------------------------------------------
# Hurewicz map at degree 1
# ---------------------------------------------------------------------------

class Hurewicz1:
    """Degree-1 Hurewicz map: presentation words to H_1 classes.

    Each generator edge, closed into a based loop through the spanning
    tree, gives a 1-cycle; a word maps to the sum of its letters'
    classes.  The map kills relators and factors through the
    abelianization.

    The loop of generator uv is the chain T(u) + uv - T(v), T(x) the tree
    path from the base to x.  The Morse projection and the cycle
    coordinates are linear, so the loop's class is the torsion reduction
    of the sum of the unreduced coordinates of those three chains, though
    only the sum is a cycle.  Each edge is projected once, and T(x) is
    T(parent) plus the tree edge into x, summed in the tree's walk order.
    H_1 is the one kept on K's chain complex.
    """

    def __init__(self, K: Complex, x0: str):
        self.pres = Presentation(K, x0)
        self.ab = abelianization(self.pres)
        self.h1 = h1 = chain_complex(K).homology(1)
        edge = {e: h1.chain_unreduced({e: 1}) for e in K.by_dim(1)}
        tree = {x0: [0] * h1.ngens()}
        for w, u in self.pres.parent.items():
            if w != u:
                sign = 1 if u < w else -1
                tree[w] = [a + sign * b
                           for a, b in zip(tree[u], edge[simplex((u, w))])]
        self.gen_classes = [
            h1.group.reduce([a + b - c for a, b, c
                             in zip(tree[u], edge[(u, v)], tree[v])])
            for u, v in self.pres.generator_edges]

    def class_of(self, w: Word) -> tuple[int, ...]:
        """H_1 class of a word, in the homology group's coordinates."""
        out = [0] * self.h1.ngens()
        for x in w.letters:
            sign = 1 if x > 0 else -1
            for j, c in enumerate(self.gen_classes[abs(x) - 1]):
                out[j] += sign * c
        return self.h1.group.reduce(out)

    def kills_relators(self) -> bool:
        zero = (0,) * self.h1.ngens()
        return all(self.class_of(r) == zero for r in self.pres.relators)

    def is_surjective(self) -> bool:
        """Every H_1 generator is the class of some word: the generator
        classes and the torsion relations span Z^m, i.e. their quotient
        (one Smith normal form) is trivial."""
        rels = self.gen_classes + self.h1.group.relations()
        return AbelianQuotient(self.h1.ngens(), rels).group.is_trivial()

    def is_isomorphism(self) -> bool:
        """True when abelianized pi_1 -> H_1 is an isomorphism.

        A surjection between finitely generated abelian groups of the
        same isomorphism type is an isomorphism, so equality of the
        Smith normal forms plus surjectivity certifies this.
        """
        return (self.ab.group == self.h1.group
                and self.kills_relators()
                and self.is_surjective())


def hurewicz_h1(K: Complex, x0: str) -> Hurewicz1:
    return Hurewicz1(K, x0)


# ---------------------------------------------------------------------------
# Conjugation action and naturality
# ---------------------------------------------------------------------------

def beta_action(u: Word, v: Word) -> Word:
    """Conjugation action of a based loop: v mapped to u v u^-1."""
    return u * v * u.inverse()


def push_word(psi, src: Presentation, dst: Presentation, w: Word) -> Word:
    """Image of a word under a simplicial map between presented complexes."""
    vmap = psi.simplicial_vertex_map()
    if vmap is None:
        raise ValueError("map is not simplicial")
    if vmap[src.base] != dst.base:
        raise BaseVertexMismatch(
            f"base {src.base!r} maps to {vmap[src.base]!r}, "
            f"target presentation is based at {dst.base!r}")
    out = Word()
    for x in w.letters:
        path = [vmap[v] for v in src.generator_loop(abs(x))]
        pushed = dst.word_of_path(path)
        out = out * (pushed if x > 0 else pushed.inverse())
    return out


def naturality_check(psi, src: Presentation, dst: Presentation,
                     u: Word, v: Word) -> bool:
    """Check that pushing forward commutes with the conjugation action.

    Equal freely reduced images certify True; distinct normal forms in a
    free target certify False; otherwise the abelianized comparison is
    returned as a documented weaker fallback.
    """
    lhs = push_word(psi, src, dst, beta_action(u, v))
    rhs = beta_action(push_word(psi, src, dst, u),
                      push_word(psi, src, dst, v))
    if lhs == rhs:
        return True
    if not dst.relators:
        return False  # free group: reduced words are normal forms
    ab = abelianization(dst)
    return ab.project(lhs) == ab.project(rhs)


# ---------------------------------------------------------------------------
# pi_2 through the Hurewicz theorem
# ---------------------------------------------------------------------------

class Pi2Result:
    """H_2 relabeled as pi_2, valid only under certified simple
    connectivity; carries the certificate provenance."""

    def __init__(self, group: AbelianGroup, provenance: str):
        self.group = group
        self.provenance = provenance

    def __str__(self):
        return str(self.group)


def pi2_via_hurewicz(K: Complex, x0: str,
                     simply_connected_assertion: bool) -> Pi2Result:
    """pi_2 of a simply connected complex, as H_2.

    Requires the caller's assertion plus an internal certificate: the
    triviality verdict must be Trivial (bounded relator elimination),
    which makes the abelianization trivial too; otherwise refuses, naming
    a nontrivial abelianization when there is one.
    """
    if not simply_connected_assertion:
        raise NotCertifiablySimplyConnected(
            "caller did not assert simple connectivity")
    pres = Presentation(K, x0)
    verdict = group_verdict(pres)
    if verdict is not GroupVerdict.Trivial:
        ab = abelianization(pres)
        if not ab.group.is_trivial():
            raise NotCertifiablySimplyConnected(
                f"abelianized fundamental group is {ab.group}, not trivial")
        raise NotCertifiablySimplyConnected(
            f"triviality verdict is {verdict.value}; no certificate found")
    return Pi2Result(
        homology(K, 2),
        "caller assertion + trivial abelianization "
        "+ relator-elimination certificate")
