"""The hunt benchmark's layer probe still finds every layer it times.

``huntbench/layers.py`` patches module functions and class methods by
name, looked up through ``vars(owner)[attr]``. A refactor that moves or
renames one of them breaks the traced benchmark run (``--trace 1``) with
a ``KeyError``; these tests catch that in the ordinary test run.
"""

import importlib
import sys
from pathlib import Path

import pytest

HUNTBENCH = Path(__file__).resolve().parents[1] / "huntbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(HUNTBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(HUNTBENCH))


def test_every_target_resolves_on_its_owner(layers):
    for name, owner, attr in layers.TARGETS:
        assert attr in vars(owner), (
            f"{name}: {owner.__name__}.{attr} is not defined on the owner "
            "itself, so the layer probe cannot patch it")
        assert callable(vars(owner)[attr]), f"{name}: {attr} is not callable"


def test_every_metric_names_a_target_layer(layers):
    timed = {name for name, _, _ in layers.TARGETS}
    for metric, (layer, _, _) in layers.METRICS.items():
        assert layer in timed, f"{metric} reads untimed layer {layer}"


def test_install_then_remove_restores_the_originals(layers):
    originals = [(owner, attr, vars(owner)[attr])
                 for _, owner, attr in layers.TARGETS]
    probe = layers.LayerProbe()
    probe.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
    finally:
        probe.remove()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
