"""Outside-in tracer for the benchmark's traced passes.

It wraps public plhtpy functions and methods from outside the package and
times every call.  Because several modules import functions by name
(``homology`` imports ``solve_linear``; ``fungroup`` imports
``smith_normal_form`` and ``unimodular_inverse``), patching the defining
module alone would miss calls; ``install`` therefore rebinds every alias of
each wrapped function found in the namespaces and classes of all loaded
``plhtpy.*`` modules, and ``uninstall`` restores every one of them.

Per wrapped function the tracer keeps calls, inclusive time (outermost
call only, so recursion is not counted twice) and self time (inclusive
time minus the time of wrapped children).  Time the benchmark spends
inside a call on its own account -- the metric hooks below -- is
subtracted from every open call.  Functions that are not marked
hot also record a span -- id, parent span id, job index, name, start,
end -- kept in memory and written as JSON lines by ``write_jsonl`` once the
run ends.  Hot functions (called up to millions of times per pass) are
aggregated only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, qualified name, hot).  Hot targets are aggregated, not spanned.
TARGETS = [
    ("homology", "smith_normal_form", False),
    ("homology", "unimodular_inverse", False),
    ("homology", "HomologyData.__init__", False),
    ("homology", "chain_complex", False),
    ("homology", "verify_les", False),
    ("fungroup", "Presentation.__init__", False),
    ("fungroup", "Abelianization.__init__", False),
    ("fungroup", "Hurewicz1.__init__", False),
    ("fungroup", "group_verdict", False),
    ("linalg", "convex_positions_intersect", True),
    ("linalg", "solve_linear", True),
    ("linalg", "mat_rank", True),
    ("linalg", "barycentric_coords", True),
    ("complexes", "validate", False),
    ("complexes", "check_pairwise_disjoint", False),
    ("complexes", "Complex.try_locate", True),
    ("subdivision", "verify_normal", False),
    ("subdivision", "verify_subdivision", False),
    ("subdivision", "relative_volume", True),
    ("subdivision", "barycentric_subdivide", False),
    ("subdivision", "extend_normal", False),
    ("plmaps", "subdivide_map", False),
    ("plmaps", "minimal_carrier", True),
    ("plmaps", "carrier_face", True),
    ("plmaps", "PLMap.evaluate", True),
    ("plmaps", "simplicial_approximation", False),
    ("plmaps", "simplicialize_rel", False),
    ("plmaps", "verify_certificate", False),
    ("cylinders", "cylinder_retraction", False),
    ("cylinders", "extend_homotopy", False),
    ("scx", "parse_scx", False),
    ("scx", "emit_scx", False),
    ("certio", "cert_from_obj", False),
    ("certio", "homeo_from_obj", False),
    ("certio", "dumps", False),
]

MAX_SPANS = 200_000        # stored spans; later ones are only counted

# (ancestor, descendant): count descendant calls made under the ancestor.
WATCHES = [
    ("homology.HomologyData.__init__", "linalg.solve_linear"),
    ("complexes.Complex.try_locate", "linalg.solve_linear"),
    ("complexes.check_pairwise_disjoint", "linalg.convex_positions_intersect"),
    ("plmaps.simplicial_approximation", "plmaps.subdivide_map"),
]


def _max_bits(result):
    return max((abs(x).bit_length() for mat in result for row in mat
                for x in row), default=0)


def _hook_snf(probe, args, result):
    A = args[0]
    probe.extra["cells"] += len(A) * (len(A[0]) if A else 0)
    probe.extra["max_bits"] = max(probe.extra["max_bits"], _max_bits(result))


def _hook_hit(probe, args, result):
    probe.extra["hits"] += bool(result)


def _hook_pairs(probe, args):
    n = len(args[0].simplices)
    probe.extra["pairs"] += n * (n - 1) // 2


def _hook_bytes(probe, args, result):
    probe.extra["bytes"] += len(result.encode("utf-8"))


def _hook_fine(probe, args, result):
    probe.extra["fine_simplices"] += len(result.map.fine.simplices)


# Hooks run on entry with the arguments, so a call that raises still counts
# (check_pairwise_disjoint raises on the first overlap) ...
ENTRY_HOOKS = {
    "complexes.check_pairwise_disjoint": _hook_pairs,
}
# ... or on return with the arguments and the result.
HOOKS = {
    "homology.smith_normal_form": _hook_snf,
    "linalg.convex_positions_intersect": _hook_hit,
    "scx.emit_scx": _hook_bytes,
    "certio.dumps": _hook_bytes,
    "cylinders.cylinder_retraction": _hook_fine,
}


class Probe:
    """Running totals of one wrapped function."""

    __slots__ = ("name", "hot", "calls", "total", "self_time", "active",
                 "extra", "entry_hook", "hook", "watchers")

    def __init__(self, name: str, hot: bool):
        self.name = name
        self.hot = hot
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0
        self.extra = defaultdict(int)
        self.entry_hook = ENTRY_HOOKS.get(name)
        self.hook = HOOKS.get(name)
        self.watchers: list[Probe] = []   # ancestors counting this probe


class Tracer:
    """Wraps the TARGETS of a loaded plhtpy; see the module docstring."""

    def __init__(self):
        self.probes = {f"{m}.{q}": Probe(f"{m}.{q}", hot)
                       for m, q, hot in TARGETS}
        for anc, desc in WATCHES:
            self.probes[desc].watchers.append(self.probes[anc])
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.job = -1
        # frame: [child time, span id that children report as parent]
        self._stack: list[list] = [[0.0, 0]]
        # seconds of benchmark work inside wrapped calls, ever increasing
        self._excluded = [0.0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping --------------------------------------------------------

    def begin_job(self, index: int) -> None:
        """Start a job; a timeout may have left frames behind, drop them."""
        self.job = index
        del self._stack[1:]
        for p in self.probes.values():
            p.active = 0

    def _wrap(self, probe: Probe, fn):
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans
        excluded = self._excluded
        entry_hook = probe.entry_hook
        hook = probe.hook
        watchers = probe.watchers
        hot = probe.hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for anc in watchers:
                if anc.active:
                    anc.extra["desc"] += 1
            if hot:
                frame = [0.0, stack[-1][1]]
                span_id = 0
            else:
                span_id = self._next_id
                self._next_id += 1
                frame = [0.0, span_id]
            parent = stack[-1][1]
            if entry_hook is not None:
                t = clock()
                entry_hook(probe, args)
                excluded[0] += clock() - t
            stack.append(frame)
            probe.active += 1
            skip = excluded[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                probe.active -= 1
                dur = end - start - (excluded[0] - skip)
                probe.calls += 1
                probe.self_time += dur - frame[0]
                if not probe.active:
                    probe.total += dur
                stack[-1][0] += dur
                if span_id:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, self.job, probe.name,
                                       start, end))
                    else:
                        self.dropped_spans += 1
            if hook is not None:
                t = clock()
                hook(probe, args, result)
                excluded[0] += clock() - t
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind all of its aliases."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == "plhtpy" or name.startswith("plhtpy."))]
        owners = []
        for m in mods:
            owners.append(m)
            owners.extend(v for v in vars(m).values()
                          if isinstance(v, type)
                          and getattr(v, "__module__", "").startswith("plhtpy"))
        for mod_name, qual, _ in TARGETS:
            owner = sys.modules[f"plhtpy.{mod_name}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(self.probes[f"{mod_name}.{qual}"], original)
            seen = set()
            for o in owners:
                if id(o) in seen:
                    continue
                seen.add(id(o))
                for key, val in list(vars(o).items()):
                    if val is original:
                        self._patches.append((o, key, original))
                        setattr(o, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str, run_info: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": run_info,
                                 "dropped_spans": self.dropped_spans}) + "\n")
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            for p in self.probes.values():
                fh.write(json.dumps({"probe": p.name, "calls": p.calls,
                                     "total_s": p.total,
                                     "self_s": p.self_time,
                                     **p.extra}) + "\n")


# (metric, unit): every per-layer metric the traced run reports.
LAYER_METRICS = [
    ("homology.smith_normal_form.calls", "count"),
    ("homology.smith_normal_form.self_s", "s"),
    ("homology.smith_normal_form.cells", "count"),
    ("homology.smith_normal_form.max_bits", "bits"),
    ("homology.unimodular_inverse.calls", "count"),
    ("homology.unimodular_inverse.total_s", "s"),
    ("homology.HomologyData.__init__.self_s", "s"),
    ("homology.HomologyData.__init__.solves", "count"),
    ("homology.chain_complex.total_s", "s"),
    ("homology.verify_les.total_s", "s"),
    ("fungroup.Presentation.__init__.total_s", "s"),
    ("fungroup.Abelianization.__init__.calls", "count"),
    ("fungroup.Abelianization.__init__.total_s", "s"),
    ("fungroup.Hurewicz1.__init__.total_s", "s"),
    ("fungroup.group_verdict.total_s", "s"),
    ("linalg.convex_positions_intersect.calls", "count"),
    ("linalg.convex_positions_intersect.total_s", "s"),
    ("linalg.convex_positions_intersect.hit_ratio", "ratio"),
    ("complexes.validate.total_s", "s"),
    ("complexes.check_pairwise_disjoint.total_s", "s"),
    ("complexes.check_pairwise_disjoint.lp_per_pair", "lp/pair"),
    ("subdivision.verify_normal.total_s", "s"),
    ("complexes.Complex.try_locate.calls", "count"),
    ("complexes.Complex.try_locate.self_s", "s"),
    ("complexes.Complex.try_locate.solves_per_call", "solves/call"),
    ("plmaps.subdivide_map.total_s", "s"),
    ("plmaps.minimal_carrier.calls", "count"),
    ("plmaps.minimal_carrier.total_s", "s"),
    ("plmaps.carrier_face.calls", "count"),
    ("plmaps.PLMap.evaluate.calls", "count"),
    ("plmaps.simplicial_approximation.total_s", "s"),
    ("plmaps.simplicial_approximation.rounds", "count"),
    ("plmaps.simplicialize_rel.total_s", "s"),
    ("subdivision.barycentric_subdivide.total_s", "s"),
    ("subdivision.extend_normal.total_s", "s"),
    ("cylinders.cylinder_retraction.total_s", "s"),
    ("cylinders.cylinder_retraction.fine_simplices", "count"),
    ("cylinders.extend_homotopy.total_s", "s"),
    ("plmaps.verify_certificate.total_s", "s"),
    ("subdivision.verify_subdivision.total_s", "s"),
    ("subdivision.relative_volume.calls", "count"),
    ("subdivision.relative_volume.self_s", "s"),
    ("linalg.solve_linear.calls", "count"),
    ("linalg.solve_linear.self_s", "s"),
    ("linalg.mat_rank.calls", "count"),
    ("linalg.mat_rank.self_s", "s"),
    ("linalg.barycentric_coords.calls", "count"),
    ("scx.parse_scx.self_s", "s"),
    ("scx.emit_scx.self_s", "s"),
    ("scx.emit_scx.bytes", "bytes"),
    ("certio.cert_from_obj.total_s", "s"),
    ("certio.homeo_from_obj.total_s", "s"),
    ("certio.dumps.self_s", "s"),
    ("certio.dumps.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_values(tracer: Tracer, passes: int,
                 scale: float = 1.0) -> dict[str, float]:
    """Per-pass values of every LAYER_METRICS entry except the overhead;
    times are multiplied by ``scale``, the host-speed factor of the traced
    passes, so they are in the units of the end-to-end times."""
    out = {}
    for metric, _ in LAYER_METRICS:
        probe_name, _, stat = metric.rpartition(".")
        p = tracer.probes.get(probe_name)
        if p is None:
            continue
        ex = p.extra
        if stat == "calls":
            v = p.calls / passes
        elif stat == "total_s":
            v = p.total * scale / passes
        elif stat == "self_s":
            v = p.self_time * scale / passes
        elif stat == "max_bits":
            v = ex["max_bits"]
        elif stat == "hit_ratio":
            v = ex["hits"] / p.calls if p.calls else 0.0
        elif stat == "lp_per_pair":
            v = ex["desc"] / ex["pairs"] if ex["pairs"] else 0.0
        elif stat == "solves_per_call":
            v = ex["desc"] / p.calls if p.calls else 0.0
        elif stat in ("solves", "rounds"):
            v = ex["desc"] / passes
        else:                      # cells, bytes, fine_simplices
            v = ex[stat] / passes
        out[metric] = v
    return out
