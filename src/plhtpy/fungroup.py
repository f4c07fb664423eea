"""Edge-path fundamental groups.

Presentations are built from a breadth-first spanning tree of the
1-skeleton (generators = non-tree edges, one relator per 2-simplex),
with abelianization via Smith normal form, the degree-1 Hurewicz map to
simplicial H_1, the conjugation action on words, and pi_2 for certified
simply connected complexes.  The word problem is undecidable in
general, so triviality verdicts are three-valued and `Trivial` /
`Nontrivial` are only returned with a certificate.
"""

from __future__ import annotations

import enum
from collections import deque

from .complexes import Complex, Simplex, SubcomplexRef, simplex, sname
from .errors import (BaseVertexMismatch, NotCertifiablySimplyConnected,
                     NotClosed, NotConnected, StartNotInA)
from .homology import (AbelianGroup, AbelianQuotient, HomologyData,
                       chain_complex, homology)


# ---------------------------------------------------------------------------
# pi_0
# ---------------------------------------------------------------------------

def pi0(K: Complex) -> list[tuple[str, ...]]:
    """Connected components of the 1-skeleton, as sorted vertex tuples."""
    adj: dict[str, set[str]] = {v: set() for v in K.vertex_ids()}
    for (u, v) in K.by_dim(1):
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
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
    for comp in pi0(A):
        if start in comp:
            return comp
    raise StartNotInA(f"path starts at {start!r}, outside the subcomplex")


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
        if not K.is_closed():
            raise NotClosed("presentation needs a closed complex")
        if x0 not in K.vertices or (x0,) not in K.simplices:
            raise NotConnected(f"base vertex {x0!r} is not in the complex")
        comps = pi0(K)
        if len(comps) != 1:
            raise NotConnected(f"complex has {len(comps)} components")
        self.K = K
        self.base = x0
        adj: dict[str, set[str]] = {v: set() for v in K.vertex_ids()}
        for (u, v) in K.by_dim(1):
            adj[u].add(v)
            adj[v].add(u)
        # breadth-first tree, neighbors visited in identifier order
        self.parent: dict[str, str] = {x0: x0}
        tree: set[Simplex] = set()
        queue = deque([x0])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in self.parent:
                    self.parent[w] = u
                    tree.add(simplex((u, w)))
                    queue.append(w)
        self.tree_edges = tree
        self.generator_edges: list[Simplex] = [
            e for e in sorted(K.by_dim(1)) if e not in tree]
        self._gen_index = {e: i + 1 for i, e in enumerate(self.generator_edges)}
        self.relators: list[Word] = []
        for (a, b, c) in sorted(K.by_dim(2)):
            w = self.word_of_path([a, b, c, a])
            if w:
                self.relators.append(w)

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

    def word(self, *letters) -> Word:
        return Word(letters)

    def exponent_vector(self, w: Word) -> list[int]:
        out = [0] * self.ngens()
        for x in w.letters:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return out

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
    """Quotient of Z^gens by the relator exponent lattice, in Smith
    normal form coordinates (torsion coordinates first, then free)."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        super().__init__(pres.ngens(),
                         [pres.exponent_vector(r) for r in pres.relators])

    project_vector = AbelianQuotient.coords
    generator_exponents = AbelianQuotient.generator

    def project(self, w: Word) -> tuple[int, ...]:
        return self.coords(self.pres.exponent_vector(w))


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

    Trivial: every generator is killed by iterating free reduction and
    length-one relator elimination.  Nontrivial: the presentation is free
    of positive rank, or the abelianization is nontrivial.  Otherwise
    Unknown.
    """
    k = pres.ngens()
    if k == 0:
        return GroupVerdict.Trivial
    dead: set[int] = set()
    relators = [r.letters for r in pres.relators]
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
    if len(dead) == k:
        return GroupVerdict.Trivial
    if not relators:
        return GroupVerdict.Nontrivial  # free of positive rank
    if not abelianization(pres).group.is_trivial():
        return GroupVerdict.Nontrivial
    return GroupVerdict.Unknown


# ---------------------------------------------------------------------------
# Hurewicz map at degree 1
# ---------------------------------------------------------------------------

class Hurewicz1:
    """Degree-1 Hurewicz map: presentation words to H_1 classes.

    Each generator edge, closed into a based loop through the spanning
    tree, gives a 1-cycle; words map linearly through their exponent
    vectors.  The map kills relators and factors through the
    abelianization.
    """

    def __init__(self, K: Complex, x0: str):
        self.pres = Presentation(K, x0)
        self.ab = abelianization(self.pres)
        self.h1 = HomologyData(chain_complex(K), 1)
        self.gen_classes = [
            self.h1.coords_of_chain(
                self.pres.loop_chain(self.pres.generator_loop(i + 1)))
            for i in range(self.pres.ngens())]

    def class_of(self, w: Word) -> tuple[int, ...]:
        """H_1 class of a word, in the homology group's coordinates."""
        e = self.pres.exponent_vector(w)
        return self.h1.reduce(
            [sum(x * c[j] for x, c in zip(e, self.gen_classes))
             for j in range(self.h1.ngens())])

    def kills_relators(self) -> bool:
        zero = (0,) * self.h1.ngens()
        return all(self.class_of(r) == zero for r in self.pres.relators)

    def is_surjective(self) -> bool:
        """Every H_1 generator is the class of some word: the generator
        classes and the torsion relations span Z^m, i.e. their quotient
        (one Smith normal form) is trivial."""
        m = self.h1.ngens()
        tors = [[d if i == t else 0 for i in range(m)]
                for t, d in enumerate(self.h1.group.torsion)]
        return AbelianQuotient(m, self.gen_classes + tors).group.is_trivial()

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
    abelianization must be trivial and the triviality verdict must be
    Trivial (bounded relator elimination); otherwise refuses.
    """
    if not simply_connected_assertion:
        raise NotCertifiablySimplyConnected(
            "caller did not assert simple connectivity")
    pres = Presentation(K, x0)
    ab = abelianization(pres)
    if not ab.group.is_trivial():
        raise NotCertifiablySimplyConnected(
            f"abelianized fundamental group is {ab.group}, not trivial")
    verdict = group_verdict(pres)
    if verdict is not GroupVerdict.Trivial:
        raise NotCertifiablySimplyConnected(
            f"triviality verdict is {verdict.value}; no certificate found")
    return Pi2Result(
        homology(K, 2),
        "caller assertion + trivial abelianization "
        "+ relator-elimination certificate")
