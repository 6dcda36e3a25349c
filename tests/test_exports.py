"""The package namespace: every public library class and function."""

import inspect

import pytest

import fusedstar
from fusedstar import (
    certificate,
    optimizer,
    simulation,
    spectral,
    topology,
    weighting,
)


@pytest.mark.parametrize(
    "module",
    [certificate, optimizer, simulation, spectral, topology, weighting],
    ids=lambda module: module.__name__,
)
def test_every_public_definition_is_exported(module):
    public = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert public - set(fusedstar.__all__) == set()
    for name in public:
        assert getattr(fusedstar, name) is getattr(module, name)
