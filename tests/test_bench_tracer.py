"""The benchmark tracer still finds every function and argument it binds.

`perfbench/tracer.py` wraps engine, linalg, classify and families
functions by name and reads some of their arguments; a rename there makes
per-layer benchmark metrics absent.  This runs a few small commands under
the tracer and asks for every metric.
"""

import importlib.util
from pathlib import Path

import pytest

from hkcurves import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
G1 = "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z"


@pytest.fixture()
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = module.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_metric_is_present(tracer, tmp_path, capsys):
    commands = [
        ["classify", "--field", "GF(2)", "--poly", G1, "--nmax", "3", "--no-timestamp",
         "--cache", str(tmp_path / "cache.jsonl")],
        ["classify", "--field", "GF(3)", "--poly", "z^4 - x*y*(x+y)*(x+2*y)", "--nmax", "2",
         "--no-timestamp"],
        ["family", "monsky2", "--k", "2", "--nmax", "2"],
    ]
    tracer.recording = True
    for run_id, argv in enumerate(commands):
        tracer.run_id = run_id
        assert cli.main(argv + ["--threads", "1"]) == 0
    tracer.recording = False
    capsys.readouterr()
    metrics, absent = tracer.layer_metrics()
    assert absent == {}
    assert metrics["engine.blocks"] > 0
    assert metrics["engine.blocks_dense"] > 0
    assert metrics["engine.cache.misses"] > 0
    assert metrics["families.members"] > 0
