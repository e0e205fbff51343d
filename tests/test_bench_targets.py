"""The benchmark's traced targets name what the package still defines.

`bench/layers.py` lists the package functions a traced benchmark pass
wraps.  A non-optional target that no longer resolves makes a traced run
(`bench/run.py --trace 1`) stop with an AttributeError, so trimming a name
from the package must fail here first.
"""

import importlib
from pathlib import Path

import pytest

from cvarbounds import divergences, risk

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("layers")


def _unresolved(targets) -> list[str]:
    """Each non-optional target whose module attribute is missing, or whose
    class does not itself define the method named."""
    missing = []
    for target in targets:
        if target.optional:
            continue
        owner = getattr(importlib.import_module(target.module), target.attr, None)
        if owner is None or (target.method is not None and target.method not in vars(owner)):
            missing.append(f"{target.module}.{target.attr}" + (f".{target.method}" if target.method else ""))
    return missing


def test_every_traced_target_resolves(layers):
    assert layers.TARGETS and _unresolved(layers.TARGETS) == []


def test_a_trimmed_name_is_caught(layers, monkeypatch):
    monkeypatch.delattr(divergences, "kl_bernoulli")
    monkeypatch.delattr(risk.SampleSet, "__post_init__")
    assert _unresolved(layers.TARGETS) == [
        "cvarbounds.risk.SampleSet.__post_init__",
        "cvarbounds.divergences.kl_bernoulli",
    ]
