"""SCX / SCX-M text formats and the built-in corpus.

SCX is one declaration per line, ``#`` comments allowed:

    ambient <p>
    vertex <id> <q_1> ... <q_p>        coordinates as `num/den` or integers
    simplex <id_1> ... <id_k>
    subcomplex <name> <simplex-name> ...   simplex names use dashes: a-b-c

SCX-M extends SCX with per-vertex images and per-simplex carriers:

    image <vertex-id> <q_1> ... <q_p>
    carrier <fine-simplex-name> -> <coarse-simplex-name>

Each vertex, image, carrier and subcomplex is declared at most once and
`ambient` exactly once; a repeated declaration is a FormatError naming its
line, never a silent override.  So are a vertex id containing ``-`` (it
would read as a simplex name) and stray tokens after `ambient <p>` or a
carrier line.

Emission is canonical (sorted declarations, reduced fractions), so content
digests are stable across runs.  `simplex` lines and carrier tables over a
whole complex read the order and names it keeps (`Complex.canonical_order`,
`Complex.simplex_names`), and its text, written once, which a certificate
and the map written after it share.
"""

from __future__ import annotations

import hashlib
import os
import sys
from fractions import Fraction
from importlib import resources

from .complexes import (Complex, Point, Simplex, canonical_key,
                        check_pairwise_disjoint, simplex, sname, validate)
from .errors import FormatError
from .linalg import vec


def _parse_coord(tok: str) -> Fraction:
    # Fraction raises 10 to the exponent e of m * 10**e, for hours at
    # 1e1000000000: a zero m is read as 0, and as the terms of m have
    # fewer digits than its text, |e| >= limit + len(m) gives more digits
    # than the int-to-str limit (4300 when off) lets `coord_str` write
    head, _, exp = tok.lower().rpartition("e")
    if head:
        try:
            zero, e = not Fraction(head + "e0"), int(exp)
        except ValueError:
            zero, e = False, 0  # a bad token, which Fraction names below
        if zero:
            return Fraction(0)
        limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
        if abs(e) >= limit + len(head):
            raise ValueError(f"coordinate {tok!r} has more digits than "
                             "can be written back")
    try:
        q = Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coordinate {tok!r}") from exc
    if q.numerator.bit_length() > 2000 or q.denominator.bit_length() > 2000:
        # a token such as 1e5000 parses to more digits than `coord_str` can
        # write back under Python's int-to-str limit; 2000 bits are at most
        # 603 digits, below the least limit Python allows (640)
        try:
            coord_str(q)
        except ValueError as exc:
            raise ValueError(f"coordinate {tok!r} has more digits than "
                             "can be written back") from exc
    return q


def parse_simplex_name(tok: str) -> Simplex:
    return simplex(tok.split("-"))


def coord_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _vertex_id(tok: str) -> str:
    if "-" in tok:
        raise ValueError(f"vertex id {tok!r} contains '-', which joins "
                         "the vertex ids of a simplex name")
    return tok


def _no_stray(toks: list[str], n: int) -> None:
    if len(toks) > n:
        raise ValueError(f"stray tokens {' '.join(toks[n:])!r}")


def _declare(table: dict, key, value, what: str) -> None:
    """Record a declaration; a second one for the same key is an error,
    never a silent override."""
    if key in table:
        raise ValueError(f"duplicate {what}")
    table[key] = value


def _carrier(toks: list[str], carriers: dict) -> Simplex:
    """Record the carrier declaration `<fine> -> <coarse>`, given as its
    tokens, and return its fine simplex.  Stray tokens, a bad arrow or a
    repeated fine simplex are a ValueError."""
    _no_stray(toks, 3)
    if len(toks) < 3 or toks[1] != "->":
        raise ValueError("carrier syntax: carrier <fine> -> <coarse>")
    t = parse_simplex_name(toks[0])
    _declare(carriers, t, parse_simplex_name(toks[2]), f"carrier {toks[0]}")
    return t


_BLOCK_KINDS = frozenset(("ambient", "vertex", "simplex"))


def parse_scx(text: str, blocks: dict | None = None):
    """Parse SCX (and SCX-M) text into raw pieces: ambient, vertices,
    simplices, subcomplexes, images, carriers, and the raw key of the
    text's block, its `ambient`, `vertex` and `simplex` lines in order with
    comments cut off.  When the intern table `blocks` (see `_complex`)
    already holds that key, identical lines passed a full parse before and
    are not parsed again: ambient comes back None, vertices and simplices
    empty, and only the other lines are read, each error naming its own
    line.  Lines that differ in any character, equal values or not, make
    another key and get a full parse."""
    ambient = None
    vertices: dict[str, tuple[Fraction, ...]] = {}
    simplices: list[list[str]] = []
    subcomplexes: dict[str, list[Simplex]] = {}
    images: dict[str, tuple[Fraction, ...]] = {}
    carriers: dict[Simplex, Simplex] = {}
    lines = []
    key = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            lines.append((lineno, raw, toks))
            if toks[0] in _BLOCK_KINDS:
                key.append(line)
    key = tuple(key)
    known = blocks is not None and key in blocks
    for lineno, raw, toks in lines:
        kind = toks[0]
        if known and kind in _BLOCK_KINDS:
            continue
        try:
            if kind == "ambient":
                if ambient is not None:
                    raise ValueError("repeated 'ambient' declaration")
                _no_stray(toks, 2)
                ambient = int(toks[1])
                if ambient < 0:
                    raise ValueError(f"negative ambient dimension {ambient}")
            elif kind == "vertex":
                _declare(vertices, _vertex_id(toks[1]),
                         tuple(_parse_coord(t) for t in toks[2:]),
                         f"vertex {toks[1]}")
            elif kind == "simplex":
                if len(toks) == 1:
                    raise ValueError("simplex with no vertices")
                simplices.append([_vertex_id(t) for t in toks[1:]])
            elif kind == "subcomplex":
                _declare(subcomplexes, toks[1],
                         [parse_simplex_name(t) for t in toks[2:]],
                         f"subcomplex {toks[1]}")
            elif kind == "image":
                _declare(images, _vertex_id(toks[1]),
                         tuple(_parse_coord(t) for t in toks[2:]),
                         f"image {toks[1]}")
            elif kind == "carrier":
                _carrier(toks[1:], carriers)
            else:
                raise ValueError(f"unknown declaration {kind!r}")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    if ambient is None and not known:
        raise FormatError("missing 'ambient' declaration")
    return ambient, vertices, simplices, subcomplexes, images, carriers, key


def _complex(ambient: int, vertices: dict, simplices: list, key: tuple,
             check_disjoint: bool, blocks: dict | None) -> Complex:
    """`validate` on parsed declarations, or the Complex that `blocks` holds
    for `key`, the raw key of `parse_scx`, which skipped parsing the block's
    lines on a hit.  So identical declaration lines of one file share one
    Complex and its frames; a block spelled differently (`2/4` for `1/2`,
    other blanks, a comment) is parsed and validated as its own Complex,
    which compares equal by value.  A block is stored only once it has
    parsed and validated, and one that needs the disjointness check gets it
    on the shared Complex the first time."""
    if blocks is None:
        return validate(ambient, vertices, simplices,
                        check_disjoint=check_disjoint)
    entry = blocks.get(key)
    if entry is None:
        entry = blocks[key] = [
            validate(ambient, vertices, simplices,
                     check_disjoint=check_disjoint), check_disjoint]
    if check_disjoint and not entry[1]:
        check_pairwise_disjoint(entry[0])
        entry[1] = True
    return entry[0]


def load_complex(text: str, check_disjoint: bool = True,
                 blocks: dict | None = None):
    """SCX text -> (Complex, named subcomplexes).  `blocks` is the intern
    table of the file being loaded (see `_complex`)."""
    ambient, vertices, simplices, subcomplexes, images, carriers, key = \
        parse_scx(text, blocks)
    if images or carriers:
        raise FormatError("SCX-M declarations in plain SCX input")
    K = _complex(ambient, vertices, simplices, key, check_disjoint, blocks)
    subs = {name: K.subcomplex(members) for name, members in subcomplexes.items()}
    return K, subs


def emit_scx(K: Complex, subcomplexes: dict | None = None) -> str:
    """Canonical SCX text of K, then one line per named subcomplex.  The
    text of K alone is written once per Complex and kept on it (a Complex
    is immutable); the subcomplex lines are written on every call."""
    if K._scx is None:
        lines = [f"ambient {K.ambient_dim}"]
        for v in sorted(K.used_vertices()):
            coords = " ".join(coord_str(q) for q in K.vertices[v])
            lines.append(f"vertex {v} {coords}")
        lines += ["simplex " + " ".join(s) for s in K.canonical_order()]
        K._scx = "\n".join(lines) + "\n"
    lines = [K._scx]
    for name in sorted(subcomplexes or {}):
        members = subcomplexes[name]
        members = getattr(members, "members", members)
        names = " ".join(sname(m) for m in sorted(members, key=canonical_key))
        lines.append(f"subcomplex {name} {names}\n")
    return "".join(lines)


def carrier_lines(carriers: dict[Simplex, Simplex],
                  fine: Complex) -> list[str]:
    """One `fine -> coarse` line per simplex of `carriers`, by dimension,
    then vertex ids.  A table over all the simplices of the complex `fine`
    reads the order and names that `fine` keeps; any other key set is
    sorted here.  Each distinct coarse carrier is named once per table."""
    if carriers.keys() == fine.simplices:
        order = zip(fine.canonical_order(), fine.simplex_names())
    else:
        order = [(s, sname(s)) for s in sorted(carriers, key=canonical_key)]
    coarse = {c: sname(c) for c in set(carriers.values())}
    return [f"{name} -> {coarse[carriers[s]]}" for s, name in order]


def emit_scxm(fine: Complex, images: dict[str, Point],
              carriers: dict[Simplex, Simplex]) -> str:
    lines = [emit_scx(fine).rstrip("\n")]
    for v in sorted(images):
        # str is coord_str for a Fraction or an int
        coords = " ".join(map(str, images[v]))
        lines.append(f"image {v} {coords}")
    lines += [f"carrier {line}" for line in carrier_lines(carriers, fine)]
    return "\n".join(lines) + "\n"


def load_scxm(text: str, blocks: dict | None = None):
    """SCX-M text -> (fine Complex, vertex images, carriers).  The fine
    complex is not checked for overlaps; `blocks` is as in `load_complex`.
    A vertex that no simplex uses, or an image or carrier line for none of
    the fine complex, is a FormatError naming its line, never silently
    dropped."""
    ambient, vertices, simplices, subcomplexes, images, carriers, key = \
        parse_scx(text, blocks)
    if subcomplexes:
        raise FormatError("subcomplex declarations in SCX-M input")
    fine = _complex(ambient, vertices, simplices, key, False, blocks)
    stray = (fine.vertices.keys() | images.keys()) - fine.used_vertices()
    if stray or carriers.keys() - fine.simplices:
        for lineno, raw in enumerate(text.splitlines(), 1):
            kind, key = (raw.split("#", 1)[0].split() + ["", ""])[:2]
            if (kind in ("vertex", "image") and key in stray
                    or kind == "carrier"
                    and parse_simplex_name(key) not in fine.simplices):
                raise FormatError(
                    f"line {lineno}: {raw.strip()!r}: not in the fine complex")
    images = {v: vec(p) for v, p in images.items()}
    return fine, images, carriers


def load_carriers(lines: list[str], fine: Complex,
                  where: str) -> dict[Simplex, Simplex]:
    """Carrier lines `<fine> -> <coarse>` of a container field, read as
    SCX-M `carrier` lines are, each fine simplex in `fine`.  A bad line is
    a FormatError naming `where` and the line."""
    carriers: dict[Simplex, Simplex] = {}
    for lineno, line in enumerate(lines, 1):
        try:
            if _carrier(line.split(), carriers) not in fine.simplices:
                raise ValueError("not in the fine complex")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{where} line {lineno}: {line!r}: {exc}") \
                from exc
    return carriers


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def complex_digest(K: Complex) -> str:
    return digest(emit_scx(K))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

CORPUS_NAMES = ["cube1", "cube2", "disk", "rp6", "s2", "torus7", "tri3", "wedge2"]


def corpus_text(name: str) -> str:
    override = os.environ.get("PLHTPY_CORPUS")
    if override:
        path = os.path.join(override, name + ".scx")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    ref = resources.files("plhtpy").joinpath("corpus").joinpath(name + ".scx")
    return ref.read_text(encoding="utf-8")


def load_corpus(name: str, check_disjoint: bool = True):
    if name not in CORPUS_NAMES and not os.environ.get("PLHTPY_CORPUS"):
        raise FormatError(f"unknown corpus complex {name!r}; have {CORPUS_NAMES}")
    return load_complex(corpus_text(name), check_disjoint=check_disjoint)
