"""The verifiers' trusted base: which plhtpy code `verify-cert` and
`verify-normal` run, traced with `sys.setprofile`.

The two commands are the trust anchors, so the code they run is pinned:
the modules it lies in, the producer and search routes it must never run,
and an upper bound on its distinct code objects, so that code joining the
base shows here first."""

import sys
from pathlib import Path

import pytest

import plhtpy
from plhtpy import certio, scx
from plhtpy import plmaps as pm
from plhtpy import subdivision as sd
from plhtpy.complexes import Complex

from conftest import make_rot
from test_scx_cli import run_cli

PACKAGE = Path(plhtpy.__file__).resolve().parent

TRUSTED_MODULES = {"cli", "certio", "scx", "complexes", "linalg", "errors",
                   "plmaps", "subdivision"}

# searches of a complex and producer steps: a verifier reads the witnesses
# it is given and proves containment through `complexes.WeightRows`
UNTRUSTED = {"Complex.try_locate": Complex.try_locate,
             "Complex.locate": Complex.locate,
             "Complex.support": Complex.support,
             "Complex.point_in_closure": Complex.point_in_closure,
             "Complex.star": Complex.star,
             "minimal_carrier": pm.minimal_carrier,
             "carrier_face": pm.carrier_face,
             "simplicial_approximation": pm.simplicial_approximation,
             "subdivide_map": pm.subdivide_map,
             "barycentric_subdivide": sd.barycentric_subdivide}

# distinct code objects each command runs (functions, comprehensions and
# generators), counted on Python 3.11 when pinned, the same under hash
# seeds 0-4: a bound to lower when the base shrinks, and to raise only with
# a reason.  Python 3.10 compiles the same code objects (each function,
# lambda, comprehension and generator expression its own); 3.12 inlines
# comprehensions (PEP 709), so there the count can only drop.
MAX_CODE_OBJECTS = {"verify-cert": 133, "verify-normal": 104}


def traced_cli(*args):
    """(exit code, the plhtpy code objects one CLI command runs)."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        code, _ = run_cli(*args)
    finally:
        sys.setprofile(None)
    return code, {c for c in codes
                  if Path(c.co_filename).resolve().parent == PACKAGE}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The rot `approximate` certificate and the disk's normal extension
    rel boundary, one subdivision round, written by the CLI."""
    d = tmp_path_factory.mktemp("trusted")
    tri3, _ = scx.load_corpus("tri3")
    certio.save(str(d / "rot.json"), certio.map_to_obj(make_rot(tri3)))
    assert run_cli("approximate", str(d / "rot.json"),
                   "--cert", str(d / "cert.json"))[0] == 0
    assert run_cli("extend-normal", "corpus:disk", "--sub", "boundary",
                   "--rounds", "1", "--out", str(d / "homeo.json"))[0] == 0
    return {"verify-cert": d / "cert.json", "verify-normal": d / "homeo.json"}


@pytest.mark.parametrize("command", sorted(MAX_CODE_OBJECTS))
def test_verifier_runs_only_its_trusted_base(artifacts, command):
    code, ran = traced_cli(command, str(artifacts[command]))
    assert code == 0
    modules = {Path(c.co_filename).stem for c in ran}
    assert modules <= TRUSTED_MODULES, sorted(modules - TRUSTED_MODULES)
    assert not [name for name, fn in UNTRUSTED.items()
                if fn.__code__ in ran]
    assert len(ran) <= MAX_CODE_OBJECTS[command], len(ran)
