"""JSON containers for maps, homeomorphisms, and homotopy certificates.

A map file embeds the SCX text of its domain and codomain, the SCX-M
text of its fine complex (with vertex images and target carriers), and
the domain-subdivision carrier lines, read as SCX-M `carrier` lines over
the fine complex of their block.  Certificates bundle the shared
domain and codomain once plus one entry per straight-line step.  All
emission is canonical (sorted keys, sorted lines), so files and their
digests are byte-stable.  `dumps` writes exactly what
`json.dumps(obj, sort_keys=True, indent=1)` writes, byte for byte, but
encodes every string with the C string encoder: CPython's own encoder
leaves C for its pure-Python generators whenever `indent` is set.  The
carrier tables read the canonical order and names that each fine complex
keeps (`Complex.canonical_order`, `Complex.simplex_names`); nothing is kept
on maps, witnesses or steps, whose tables are plain dicts a caller may change.

Loading a container parses and validates each block once per distinct
spelling: blocks whose `ambient`, `vertex` and `simplex` lines are
identical (comments cut off) share one `Complex` (and the frames built on
it) within that file, and a codomain with the domain's text is the domain.
The lookup key is those raw lines, taken before any coordinate is parsed,
so a repeated block (a step's `to` and refinement after its `from`) has
only its `image` and `carrier` lines read.  A block spelled differently
(`2/4` for `1/2`, other blanks, a comment) is parsed and validated as its
own `Complex`, which compares equal by value, so every verdict is the same
(`scx._complex`).  The intern table lives for one call of a loader;
nothing is shared across files.
"""

from __future__ import annotations

import json

from . import scx
from .complexes import Complex, Simplex, sname
from .errors import FormatError
from .plmaps import HomotopyCertificate, HomotopyStep, PLMap
from .subdivision import PLHomeo, SubdivisionWitness

MAP_FORMAT = "plhtpy-map/1"
HOMEO_FORMAT = "plhtpy-homeo/1"
CERT_FORMAT = "plhtpy-cert/1"


_string = json.encoder.encode_basestring_ascii   # C, where CPython has it


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=1) + "\\n"`, byte for byte,
    for a tree of dicts with string keys, lists and strings; any other
    value is written by `json.dumps` of that value."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """obj as `dumps` writes it, where `nl` is a newline and the indent of
    obj's own line."""
    if isinstance(obj, str):
        return _string(obj)
    inner = nl + " "
    if isinstance(obj, dict):
        items = [f"{_string(k)}: {_encode(obj[k], inner)}"
                 for k in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if all(type(x) is str for x in obj):
            items = list(map(_string, obj))
        else:
            items = [_encode(x, inner) for x in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _carriers(obj: dict, key: str, fmt: str,
              fine: Complex) -> dict[Simplex, Simplex]:
    """The carrier lines of field `key` of obj, over the simplices of the
    fine complex `fine` (`scx.load_carriers`)."""
    return scx.load_carriers(_field(obj, key, fmt, list), fine,
                             f"{fmt}: field {key!r}")


def _expect(obj, fmt: str):
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise FormatError(f"expected a {fmt} file")


def _field(obj: dict, key: str, fmt: str, kind=str, item=str):
    """obj[key], which must be a `kind` (a list of `item`s); FormatError
    names the field and the format otherwise."""
    if key not in obj:
        raise FormatError(f"{fmt}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (
            kind is list and not all(isinstance(x, item) for x in value)):
        what = f"list of {item.__name__}" if kind is list else kind.__name__
        raise FormatError(f"{fmt}: field {key!r} is not a {what}")
    return value


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def _map_entry(f: PLMap) -> dict:
    return {"scxm": scx.emit_scxm(f.fine, f.vertex_image, f.target_carrier),
            "witness": scx.carrier_lines(f.dom_subdivision.carrier, f.fine)}


def _check_ambient(fine: Complex, domain: Complex, what: str) -> None:
    if fine.ambient_dim != domain.ambient_dim:
        raise FormatError(f"{what} has ambient {fine.ambient_dim}, "
                          f"but the domain has ambient {domain.ambient_dim}")


def _load_entry(entry: dict, fmt: str, domain: Complex, codomain: Complex,
                blocks: dict):
    """(domain witness, vertex images, target carriers) of a map entry,
    with an image in the codomain's ambient space for every vertex of a
    fine simplex."""
    fine, images, carriers = scx.load_scxm(_field(entry, "scxm", fmt),
                                           blocks)
    _check_ambient(fine, domain, "fine complex")
    missing = sorted(fine.used_vertices() - images.keys())
    if missing:
        raise FormatError(f"no image line for fine vertex {missing[0]}")
    wrong = sorted(v for v, p in images.items()
                   if len(p) != codomain.ambient_dim)
    if wrong:
        raise FormatError(
            f"image of fine vertex {wrong[0]} has {len(images[wrong[0]])} "
            f"coordinates, but the codomain has ambient {codomain.ambient_dim}")
    carrier = _carriers(entry, "witness", fmt, fine)
    return SubdivisionWitness(fine, domain, carrier), images, carriers


def _load_map_entry(entry: dict, fmt: str, domain: Complex,
                    codomain: Complex, blocks: dict) -> PLMap:
    return PLMap(domain, codomain,
                 *_load_entry(entry, fmt, domain, codomain, blocks))


def _load_spaces(obj: dict, fmt: str, blocks: dict):
    """(domain, its named subcomplexes, codomain) of a map or certificate.
    A domain overlap lets a map take two values at a point, so the domain
    is checked for one; the codomain may overlap, as every image is
    proved inside a closed carrier simplex."""
    text = _field(obj, "domain", fmt)
    domain, subs = scx.load_complex(text, blocks=blocks)
    cotext = _field(obj, "codomain", fmt)
    if cotext == text:
        return domain, subs, domain
    codomain, _ = scx.load_complex(cotext, check_disjoint=False,
                                   blocks=blocks)
    return domain, subs, codomain


def map_to_obj(f: PLMap, domain_subcomplexes: dict | None = None) -> dict:
    obj = {"format": MAP_FORMAT,
           "domain": scx.emit_scx(f.domain, domain_subcomplexes),
           "codomain": scx.emit_scx(f.codomain)}
    obj.update(_map_entry(f))
    return obj


def map_from_obj(obj: dict):
    """File object -> (PLMap, named subcomplexes of the domain)."""
    _expect(obj, MAP_FORMAT)
    blocks = {}
    domain, subs, codomain = _load_spaces(obj, MAP_FORMAT, blocks)
    return _load_map_entry(obj, MAP_FORMAT, domain, codomain, blocks), subs


# ---------------------------------------------------------------------------
# Homeomorphisms with normality data
# ---------------------------------------------------------------------------

def homeo_to_obj(phi: PLMap) -> dict:
    return {"format": HOMEO_FORMAT, "complex": scx.emit_scx(phi.domain),
            **_map_entry(phi)}


def homeo_from_obj(obj: dict) -> PLMap:
    _expect(obj, HOMEO_FORMAT)
    blocks = {}
    coarse, _ = scx.load_complex(_field(obj, "complex", HOMEO_FORMAT),
                                 blocks=blocks)
    return PLHomeo(*_load_entry(obj, HOMEO_FORMAT, coarse, coarse, blocks))


# ---------------------------------------------------------------------------
# Homotopy certificates
# ---------------------------------------------------------------------------

def cert_to_obj(cert: HomotopyCertificate) -> dict:
    f0 = cert.initial
    steps = []
    for step in cert.steps:
        ref = step.refinement
        steps.append({
            "from": _map_entry(step.frm),
            "to": _map_entry(step.to),
            "refinement": {
                "scx": scx.emit_scx(ref.fine),
                "witness": scx.carrier_lines(ref.carrier, ref.fine)},
            "carriers": scx.carrier_lines(step.carriers, ref.fine)})
    fixed = sorted(sname(s) for s in cert.fixed_set.members)
    return {"format": CERT_FORMAT,
            "domain": scx.emit_scx(f0.domain),
            "codomain": scx.emit_scx(f0.codomain),
            "fixed": fixed,
            "steps": steps}


def cert_from_obj(obj: dict) -> HomotopyCertificate:
    fmt = CERT_FORMAT
    _expect(obj, fmt)
    blocks = {}
    domain, _, codomain = _load_spaces(obj, fmt, blocks)
    entries = _field(obj, "steps", fmt, list, dict)
    if not entries:
        raise FormatError(f"{fmt}: field 'steps' is empty")
    steps = []
    for entry in entries:
        frm, to = (_load_map_entry(_field(entry, key, fmt, dict), fmt,
                                   domain, codomain, blocks)
                   for key in ("from", "to"))
        refinement = _field(entry, "refinement", fmt, dict)
        rfine, subs = scx.load_complex(_field(refinement, "scx", fmt),
                                       check_disjoint=False, blocks=blocks)
        if subs:
            raise FormatError("subcomplex declarations in a refinement")
        _check_ambient(rfine, domain, "refinement")
        ref = SubdivisionWitness(
            rfine, frm.fine, _carriers(refinement, "witness", fmt, rfine))
        steps.append(HomotopyStep(
            frm, to, ref, _carriers(entry, "carriers", fmt, rfine)))
    fixed = domain.subcomplex(scx.parse_simplex_name(n)
                              for n in _field(obj, "fixed", fmt, list))
    return HomotopyCertificate(steps, fixed)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

_LOADERS = {MAP_FORMAT: map_from_obj,
            HOMEO_FORMAT: homeo_from_obj,
            CERT_FORMAT: cert_from_obj}


def save(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def _object(pairs: list, path: str) -> dict:
    """A JSON object of the container file `path`; a key given twice is a
    FormatError naming it, never a silent override."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise FormatError(f"{path}: repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def load(path: str):
    """Load any container file; returns (format, decoded object)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(
                fh, object_pairs_hook=lambda pairs: _object(pairs, path))
        except (ValueError, RecursionError) as exc:   # bad JSON, UTF-8, depth
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt not in _LOADERS:
        raise FormatError(f"{path}: unknown container format {fmt!r}")
    return fmt, _LOADERS[fmt](obj)
