"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` patches functions at the names the program calls
them through (mostly ``weibrec.cli`` module globals).  A refactor that
renames or inlines one of them breaks the benchmark's per-layer numbers;
these tests make it break tier-1 first.
"""

import importlib
import sys
from pathlib import Path

import pytest

from weibrec import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = str(PERFBENCH.parent / "data" / "insulating_fluid.csv")


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_every_site_resolves(tracer):
    for module, attr, layer, _ in tracer.SITES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
        assert layer in tracer.LAYERS


def test_cli_calls_record_every_layer(tracer, capsys):
    trace = tracer.Tracer()
    with trace.installed():
        assert cli.main(["mle", "--data", DATA]) == 0
        assert cli.main(["ci-ratio", "--data", DATA, "--gamma", "0.05",
                         "--M", "400", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count('"schema"') == 2
    assert {"cli", "dataio", "records", "weibull", "gpq",
            "gpq.order"} <= {span.layer for span in trace.spans}
    assert [s.name for s in trace.spans if s.parent < 0] == [
        "weibrec.cli.main", "weibrec.cli.main"]
    # Installing patched the call sites only for the block.
    assert cli.main.__module__ == "weibrec.cli"
    assert not hasattr(cli.main, "__wrapped__")
