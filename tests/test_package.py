"""Packaging and public API: the canonical model files ship as package data,
and every exported name resolves."""

from importlib import resources
from pathlib import Path

import pytest

import physmodels
from physmodels.model_core import builtin, model_from_spec

CANONICAL = ("baryon", "cannon", "decay")


def test_pyproject_declares_model_specs_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "models/*.spec" in config["tool"]["setuptools"]["package-data"]["physmodels"]


def test_packaged_models_are_the_builtins():
    models = resources.files("physmodels") / "models"
    assert sorted(entry.name for entry in models.iterdir() if entry.is_file()) == [
        f"{name}.spec" for name in CANONICAL
    ]
    for name in CANONICAL:
        packaged = model_from_spec((models / f"{name}.spec").read_text())
        model = builtin(name)
        assert (model.name, model.states) == (packaged.name, packaged.states)
        for got, want in zip(model.observables, packaged.observables, strict=True):
            assert (got.symbol, got.map) == (want.symbol, want.map)
            assert [got.range_decider(n) for n in range(64)] == [
                want.range_decider(n) for n in range(64)
            ]
        for symbol, op in packaged.measuring_ops.items():
            assert [model.measuring_ops[symbol].program(s) for s in range(16)] == [
                op.program(s) for s in range(16)
            ]


def test_every_exported_name_resolves():
    missing = [name for name in physmodels.__all__ if not hasattr(physmodels, name)]
    assert missing == []
