"""The benchmark's layer tracer (`perfbench/spans.py`) wraps almc entry
points by name and reads attributes of their results.  This checks those
names and attributes here, so that a rename fails in the fast tests rather
than in a traced benchmark run.  `perfbench/` is only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from almc.cli import compile_from_path
from almc.tasks import program_fingerprint

from conftest import CORPUS

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans().SPANS


@pytest.mark.parametrize("module,path,name,is_gen", SPANS,
                         ids=[f"{m}:{p}" for m, p, _, _ in SPANS])
def test_span_entry_point_resolves(module, path, name, is_gen):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_results_have_the_attributes_the_tracer_reads():
    cs = compile_from_path(str(CORPUS / "t0.alm"), [])
    prog = cs.grounders[0].build_program(1)
    for attr in ("rules", "cr_rules", "keys"):
        assert isinstance(len(getattr(prog, attr)), int)
    # distinct programs are counted in a set of fingerprints
    assert hash(program_fingerprint(prog)) == hash(program_fingerprint(prog))
