"""The package namespace: every public product class and function, and the
reference module's own namespace beside it."""

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


def test_the_reference_exports_its_own_names_and_the_package_none_of_them():
    from fusedstar import reference

    public = {
        name
        for name, obj in vars(reference).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == reference.__name__
    }
    assert public - set(reference.__all__) == set()
    assert set(reference.__all__) & set(fusedstar.__all__) == set()
