"""Command-line surface over the SCX / SCX-M formats.

Reports are line-oriented ``key: value`` text (or JSON behind
``--format json``) and byte-stable for identical inputs, so their
digests can be compared across runs; elapsed time goes to stderr only.
Exit codes: 0 all checks pass, 1 a check failed (the report names a
witness), 2 input or usage error: every toolkit error (`PlhtpyError`)
that escapes a command is reported once, in `main`, as
``error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import certio, cylinders, fungroup, homology, plmaps, scx, subdivision
from .complexes import Complex, sname
from .errors import (FormatError, NotCertifiablySimplyConnected,
                     PlhtpyError, RoundsExhausted)


class InputProblem(Exception):
    """Invalid input or usage; maps to exit code 2."""


class Report:
    """Ordered key/value report with pass/fail/unknown checks."""

    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("command", command)]
        self.failed = False

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def check(self, name: str, ok, witness=None) -> None:
        verdict = "unknown" if ok is None else ("pass" if ok else "fail")
        self.lines.append((f"check_{name}", verdict))
        if ok is False:
            self.failed = True
            if witness is not None:
                self.lines.append((f"witness_{name}", str(witness)))

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps({"report": [[k, v] for k, v in self.lines]},
                              indent=1) + "\n"
        return "".join(f"{k}: {v}\n" for k, v in self.lines)


def load_input(source: str):
    """``corpus:NAME`` or an SCX file path -> (Complex, subcomplexes)."""
    try:
        if source.startswith("corpus:"):
            return scx.load_corpus(source[len("corpus:"):])
        with open(source, "r", encoding="utf-8") as fh:
            return scx.load_complex(fh.read())
    except OSError as exc:
        raise InputProblem(f"cannot read {source!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: not UTF-8 text: {exc}") from exc


def named_sub(subs: dict, name: str):
    if name not in subs:
        raise InputProblem(
            f"no subcomplex {name!r}; available: {sorted(subs) or 'none'}")
    return subs[name]


def load_container(path: str, want_fmt: str):
    try:
        fmt, obj = certio.load(path)
    except OSError as exc:
        raise InputProblem(f"cannot read {path!r}: {exc}") from exc
    if fmt != want_fmt:
        raise InputProblem(f"{path}: expected {want_fmt}, found {fmt}")
    return obj


def write_out(path: str, text: str, report: Report, key: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    report.add(key, path)


def base_vertex(K: Complex, base: str | None) -> str:
    if base is None:
        if not K.vertex_ids():
            raise InputProblem("the complex has no vertex to take as base")
        return min(K.vertex_ids())
    if base not in K.vertices:
        raise InputProblem(f"no vertex {base!r}")
    return base


def describe(report: Report, K: Complex, subs: dict | None = None) -> None:
    report.add("ambient", K.ambient_dim)
    report.add("dim", K.dim())
    report.add("simplices", len(K.simplices))
    for d in range(K.dim() + 1):
        report.add(f"count_dim{d}", len(K.by_dim(d)))
    report.add("closed", "yes" if K.is_closed() else "no")
    report.add("digest", scx.complex_digest(K))
    if subs:
        for name in sorted(subs):
            report.add(f"subcomplex_{name}", len(subs[name].members))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, report: Report):
    K, subs = load_input(args.input)
    describe(report, K, subs)
    report.check("valid", True)


def cmd_subdivide(args, report: Report):
    K, _ = load_input(args.input)
    w = subdivision.iterated_subdivision(K, args.rounds)
    ok, violations = subdivision.verify_subdivision(w)
    report.add("rounds", args.rounds)
    report.add("fine_simplices", len(w.fine.simplices))
    report.add("fine_digest", scx.complex_digest(w.fine))
    report.check("subdivision", ok,
                 violations[0] if violations else None)
    if args.out:
        write_out(args.out, scx.emit_scx(w.fine), report, "artifact_fine")


def cmd_star(args, report: Report):
    K, subs = load_input(args.input)
    target = scx.parse_simplex_name(args.simplex)
    if target not in K.simplices:
        raise InputProblem(f"no simplex {args.simplex!r}")
    st = K.star(K.subcomplex([target]))
    report.add("simplex", sname(target))
    report.add("star_size", len(st.members))
    report.add("star_members",
               " ".join(sname(s) for s in sorted(st.members)))


def cmd_core(args, report: Report):
    K, _ = load_input(args.input)
    co = K.core()
    report.add("core_size", len(co.members))
    report.add("core_members",
               " ".join(sname(s) for s in sorted(co.members)))
    core_cx = K.restrict(co.members)
    report.add("core_digest", scx.complex_digest(core_cx))
    report.check("core_closed", core_cx.is_closed())
    if args.out:
        write_out(args.out, scx.emit_scx(core_cx), report, "artifact_core")


def cmd_extend_normal(args, report: Report):
    K, subs = load_input(args.input)
    K_Z = named_sub(subs, args.sub)
    Z = K_Z.as_complex()
    wz = subdivision.iterated_subdivision(Z, args.rounds)
    phi0 = subdivision.identity_homeo_on(wz)
    phi = subdivision.extend_normal(K, K_Z, phi0)
    rep = subdivision.verify_normal(phi)
    report.add("fine_simplices", len(phi.fine.simplices))
    report.check("partitions_simplices", rep.partitions_simplices,
                 rep.violations[0] if rep.violations else None)
    report.check("is_subdivision", rep.is_subdivision)
    report.check("carrier_respecting", rep.carrier_respecting)
    contains = phi0.fine.simplices <= phi.fine.simplices
    report.check("contains_input_subdivision", contains)
    report.check("agrees_on_input",
                 not plmaps.moved_vertices(phi0, phi, phi0.fine.simplices))
    if args.out:
        write_out(args.out, certio.dumps(certio.homeo_to_obj(phi)),
                  report, "artifact_homeo")


def cmd_verify_normal(args, report: Report):
    phi = load_container(args.file, certio.HOMEO_FORMAT)
    rep = subdivision.verify_normal(phi)
    report.add("fine_simplices", len(phi.fine.simplices))
    first = rep.violations[0] if rep.violations else None
    report.check("partitions_simplices", rep.partitions_simplices, first)
    report.check("is_subdivision", rep.is_subdivision, first)
    report.check("carrier_respecting", rep.carrier_respecting, first)


def _report_cert(report: Report, cert) -> None:
    ok, problems = plmaps.verify_certificate(cert)
    report.add("cert_steps", len(cert.steps))
    witness = None
    if problems:
        i, t, msg = problems[0]
        where = sname(t) if t else "-"
        witness = f"step {i} simplex {where}: {msg}"
    report.check("cert_valid", ok, witness)


def cmd_approximate(args, report: Report):
    f, _ = load_container(args.file, certio.MAP_FORMAT)
    report.add("input_fine", len(f.fine.simplices))
    try:
        g, cert = plmaps.simplicial_approximation(f, args.max_rounds)
    except RoundsExhausted as exc:
        report.check("approximated", False,
                     "vertices " + " ".join(sorted(exc.failing_vertices)))
        return
    report.add("output_fine", len(g.fine.simplices))
    report.check("approximated", True)
    report.check("simplicial", g.is_simplicial())
    _report_cert(report, cert)
    if args.out:
        write_out(args.out, certio.dumps(certio.map_to_obj(g)),
                  report, "artifact_map")
    if args.cert:
        write_out(args.cert, certio.dumps(certio.cert_to_obj(cert)),
                  report, "artifact_cert")


def cmd_simplicialize(args, report: Report):
    f, subs = load_container(args.file, certio.MAP_FORMAT)
    K_C = named_sub(subs, args.fixed) if args.fixed else None
    try:
        g, cert = plmaps.simplicialize_rel(f, K_C, args.max_rounds)
    except RoundsExhausted as exc:
        report.check("simplicialized", False,
                     "vertices " + " ".join(sorted(exc.failing_vertices)))
        return
    report.add("output_fine", len(g.fine.simplices))
    report.check("simplicialized", True)
    _report_cert(report, cert)
    if K_C is not None:
        # subdivision keeps vertex names: g has every vertex of f over K_C
        over = plmaps.restrict_members(f.dom_subdivision, K_C.members)
        report.check("fixed_pointwise", not plmaps.moved_vertices(f, g, over))
    if args.out:
        write_out(args.out, certio.dumps(certio.map_to_obj(g)),
                  report, "artifact_map")
    if args.cert:
        write_out(args.cert, certio.dumps(certio.cert_to_obj(cert)),
                  report, "artifact_cert")


def cmd_verify_cert(args, report: Report):
    cert = load_container(args.file, certio.CERT_FORMAT)
    report.add("fixed_size", len(cert.fixed_set.members))
    _report_cert(report, cert)


def cmd_extend_homotopy(args, report: Report):
    f, fsubs = load_container(args.fmap, certio.MAP_FORMAT)
    H, _ = load_container(args.hmap, certio.MAP_FORMAT)
    members = named_sub(fsubs, args.sub).members if args.sub else frozenset()
    r = cylinders.cylinder_retraction(f.domain, members)
    G = cylinders.extend_homotopy(f, H, r)
    report.add("cylinder_simplices", len(G.domain.simplices))
    report.add("output_fine", len(G.fine.simplices))
    # G's fine complex keeps every cylinder vertex, and extend_homotopy
    # proved H's domain is the subcylinder: vertex reads, no location
    bottom_ok = all(
        G.vertex_image[cylinders.lift(v, 0)] == f.vertex_image[v]
        for v in sorted(f.domain.vertex_ids()))
    report.check("agrees_with_map_at_bottom", bottom_ok)
    report.check("agrees_with_homotopy_on_walls",
                 not plmaps.moved_vertices(H, G, H.fine.simplices))
    if args.out:
        write_out(args.out, certio.dumps(certio.map_to_obj(G)),
                  report, "artifact_map")


def cmd_homology(args, report: Report):
    """`homology`, and `rel-homology`, whose parser requires --sub."""
    K, subs = load_input(args.input)
    rel = named_sub(subs, args.sub) if args.sub else None
    cc = homology.chain_complex(K, rel=rel)
    dims = [args.dim] if args.dim is not None else list(range(K.dim() + 1))
    for n in dims:
        group = cc.homology(n).group
        report.add(f"H{n}", group)
    report.check("boundary_squares_to_zero", True)


def cmd_les(args, report: Report):
    K, subs = load_input(args.input)
    K_A = named_sub(subs, args.sub)
    result = homology.verify_les(K, K_A)
    for n in sorted(result["pair_groups"]):
        ha, hx, hp = result["pair_groups"][n]
        report.add(f"H{n}", f"A={ha} X={hx} pair={hp}")
    labels = {"H_n(X)": "X", "H_n(X,A)": "pair", "H_n(A)": "A"}
    for n in sorted(result["nodes"]):
        for label, ok in sorted(result["nodes"][n].items()):
            report.check(f"exact_H{n}_{labels[label]}", ok)


def cmd_pi0(args, report: Report):
    K, _ = load_input(args.input)
    comps = fungroup.pi0(K)
    report.add("components", len(comps))
    for i, comp in enumerate(comps):
        report.add(f"component_{i}", " ".join(comp))


def cmd_pi1(args, report: Report):
    K, _ = load_input(args.input)
    x0 = base_vertex(K, args.base)
    pres = fungroup.edge_path_presentation(K, x0)
    report.add("base", x0)
    report.add("generators", pres.ngens())
    report.add("relators", len(pres.relators))
    report.add("presentation", pres)
    report.add("abelianization", fungroup.abelianization(pres).group)
    report.add("verdict", fungroup.group_verdict(pres).value)


def cmd_hurewicz(args, report: Report):
    K, _ = load_input(args.input)
    x0 = base_vertex(K, args.base)
    h = fungroup.hurewicz_h1(K, x0)
    report.add("base", x0)
    report.add("abelianized_pi1", h.ab.group)
    report.add("H1", h.h1.group)
    report.check("groups_match", h.ab.group == h.h1.group)
    report.check("kills_relators", h.kills_relators())
    report.check("surjective", h.is_surjective())
    report.check("isomorphism_on_abelianization", h.is_isomorphism())


def cmd_pi2(args, report: Report):
    K, _ = load_input(args.input)
    x0 = base_vertex(K, args.base)
    report.add("base", x0)
    try:
        res = fungroup.pi2_via_hurewicz(K, x0, True)
    except NotCertifiablySimplyConnected as exc:
        report.check("simply_connected", False, exc)
        return
    report.check("simply_connected", True)
    report.add("pi2", res.group)
    report.add("provenance", res.provenance)


def cmd_euler(args, report: Report):
    K, _ = load_input(args.input)
    report.add("euler_characteristic", homology.euler_characteristic(K))


def cmd_corpus(args, report: Report):
    if args.action == "list":
        for name in scx.CORPUS_NAMES:
            K, subs = scx.load_corpus(name)
            report.add(name, f"{len(K.simplices)} simplices, "
                             f"dim {K.dim()}, "
                             f"subcomplexes: {' '.join(sorted(subs)) or '-'}")
        return
    if not args.name:
        raise InputProblem("corpus emit needs a complex name")
    K, subs = scx.load_corpus(args.name)
    text = scx.emit_scx(K, subs)
    report.add("digest", scx.digest(text))
    if args.out:
        write_out(args.out, text, report, "artifact_scx")
    else:
        report.add("scx", "\n" + text.rstrip("\n"))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plhtpy",
        description="Exact piecewise-linear homotopy toolkit "
                    "(SCX complexes, subdivision, homology, certificates).")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default: text)")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="validate an SCX complex")
    sp.add_argument("input")

    sp = add("subdivide", cmd_subdivide, help="barycentric subdivision")
    sp.add_argument("input")
    sp.add_argument("--rounds", type=int, default=1)
    sp.add_argument("--out")

    sp = add("star", cmd_star, help="open star of a simplex")
    sp.add_argument("input")
    sp.add_argument("--simplex", required=True)

    sp = add("core", cmd_core, help="maximal closed-realization subcomplex")
    sp.add_argument("input")
    sp.add_argument("--out")

    sp = add("extend-normal", cmd_extend_normal,
             help="extend a normal triangulation of a closed subcomplex")
    sp.add_argument("input")
    sp.add_argument("--sub", required=True)
    sp.add_argument("--rounds", type=int, default=1,
                    help="subdivision rounds of the subcomplex input")
    sp.add_argument("--out")

    sp = add("verify-normal", cmd_verify_normal,
             help="check the three normality conditions")
    sp.add_argument("file")

    sp = add("approximate", cmd_approximate,
             help="simplicial approximation with certificate")
    sp.add_argument("file")
    sp.add_argument("--max-rounds", type=int, default=8)
    sp.add_argument("--out")
    sp.add_argument("--cert")

    sp = add("simplicialize", cmd_simplicialize,
             help="homotope to a simplicial map rel a fixed subcomplex")
    sp.add_argument("file")
    sp.add_argument("--fixed")
    sp.add_argument("--max-rounds", type=int, default=8)
    sp.add_argument("--out")
    sp.add_argument("--cert")

    sp = add("verify-cert", cmd_verify_cert,
             help="re-check every witness in a homotopy certificate")
    sp.add_argument("file")

    sp = add("extend-homotopy", cmd_extend_homotopy,
             help="extend a map plus a subcomplex homotopy over the cylinder")
    sp.add_argument("fmap")
    sp.add_argument("hmap")
    sp.add_argument("--sub")
    sp.add_argument("--out")

    sp = add("homology", cmd_homology, help="integral simplicial homology")
    sp.add_argument("input")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--sub")

    sp = add("rel-homology", cmd_homology, help="relative homology")
    sp.add_argument("input")
    sp.add_argument("--sub", required=True)
    sp.add_argument("--dim", type=int)

    sp = add("les", cmd_les,
             help="long exact sequence of a pair, with exactness checks")
    sp.add_argument("input")
    sp.add_argument("--sub", required=True)

    sp = add("pi0", cmd_pi0, help="connected components")
    sp.add_argument("input")

    sp = add("pi1", cmd_pi1, help="edge-path fundamental group presentation")
    sp.add_argument("input")
    sp.add_argument("--base")

    sp = add("hurewicz", cmd_hurewicz,
             help="degree-1 Hurewicz map checks")
    sp.add_argument("input")
    sp.add_argument("--base")

    sp = add("pi2", cmd_pi2,
             help="pi_2 via Hurewicz (requires certified simple connectivity)")
    sp.add_argument("input")
    sp.add_argument("--base")

    sp = add("euler", cmd_euler, help="Euler characteristic")
    sp.add_argument("input")

    sp = add("corpus", cmd_corpus, help="list or emit built-in complexes")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.cmd)
    start = time.monotonic()
    try:
        args.fn(args, report)
    except (InputProblem, PlhtpyError) as exc:
        named = isinstance(exc, PlhtpyError)
        report.add("error", f"{type(exc).__name__}: {exc}" if named else exc)
        sys.stdout.write(report.render(args.format))
        return 2
    finally:
        elapsed = (time.monotonic() - start) * 1000
        print(f"elapsed_ms: {elapsed:.1f}", file=sys.stderr)
    code = 1 if report.failed else 0
    report.add("status", "fail" if report.failed else "ok")
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
