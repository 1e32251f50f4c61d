"""The benchmark's tracer (perfbench/tracing.py) against eclu's names.

The tracer resolves each entry point it wraps with getattr, so a renamed or
deleted eclu function breaks `perfbench/run.py --trace 1`.  This checks that
every target resolves, is wrapped inside `Tracer().active()`, and is
restored on every module and class that held it once the block exits.
"""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def holders(names):
    """(module name, attribute) -> value of every attribute among names
    that a loaded eclu module holds."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "eclu" or mod_name.startswith("eclu."):
            for attr in names:
                if hasattr(mod, attr):
                    out[(mod_name, attr)] = getattr(mod, attr)
    return out


def test_tracer_wraps_and_restores_every_entry_point(tracing):
    targets = tracing._targets()  # raises AttributeError on a missing name
    originals = [getattr(owner, attr) for owner, attr, _, _ in targets]
    names = {attr for _, attr, _, _ in targets}
    before = holders(names)
    with tracing.Tracer().active():
        for (owner, attr, _, _), orig in zip(targets, originals):
            assert getattr(owner, attr) is not orig, attr
    assert [getattr(owner, attr) for owner, attr, _, _ in targets] == originals
    after = holders(names)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
