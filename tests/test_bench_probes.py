"""The benchmark tracer (bench/tracer.py) wraps plhtpy functions by name.

Installing it on the loaded package fails when a refactor deletes or
renames a probed name, so that break shows here instead of in the
benchmark.  The tracer is imported from its file, read-only.
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

from plhtpy import linalg

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probed(module, qual):
    owner = importlib.import_module(f"plhtpy.{module}")
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_on_the_package():
    tr = load_tracer()
    originals = {(m, q): probed(m, q) for m, q, _ in tr.TARGETS}
    tracer = tr.Tracer()
    try:
        tracer.install()
        for (m, q), original in originals.items():
            assert probed(m, q).__bench_original__ is original, f"{m}.{q}"
        # the hit-ratio probe counts a boolean verdict
        square = [(F(0), F(0)), (F(1), F(1))]
        cross = [(F(0), F(1)), (F(1), F(0))]
        assert linalg.convex_positions_intersect(square, cross) is True
        assert linalg.convex_positions_intersect(square, [(F(2), F(0))]) \
            is False
        probe = tracer.probes["linalg.convex_positions_intersect"]
        assert probe.calls == 2 and probe.extra["hits"] == 1
    finally:
        tracer.uninstall()
    for (m, q), original in originals.items():
        assert probed(m, q) is original, f"{m}.{q}"
