"""The package namespace: every public product class and function, and the
reference module's own namespace beside it."""

import ast
import importlib
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
    # the skeleton's oracle: blocks written out, read by their own counts
    assert {"CountedTridiagonal", "block_extremes", "counted_blocks"} <= set(reference.__all__)
    # the blocks written out, and weights by label and by scheme, which no
    # CLI command builds
    assert {
        "StratifiedBlocks", "build_blocks", "orbit_weights_from_labels",
        "max_degree_orbit_weights", "metropolis_orbit_weights",
        "best_constant_orbit_weights",
    } <= set(reference.__all__)


PRODUCT = ["certificate", "cli", "optimizer", "simulation", "spectral",
           "topology", "weighting"]


def _run_time_imports(module):
    """The package modules that ``module`` imports at run time, that is
    outside an ``if TYPE_CHECKING:`` block, and the functions that import
    anything in their body."""
    tree = ast.parse(inspect.getsource(module))
    imported, in_functions = set(), []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node)):
                in_functions.append(node.name)
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.add(node.module)
        stack += ast.iter_child_nodes(node)
    return imported, in_functions


def test_product_imports_at_module_level_without_a_cycle():
    graph = {}
    for name in PRODUCT:
        module = importlib.import_module(f"fusedstar.{name}")
        graph[name], in_functions = _run_time_imports(module)
        assert in_functions == [], name
    # spectral is a leaf above topology: weighting builds on it
    assert graph["spectral"] == {"topology"}
    assert "spectral" in graph["weighting"]
    # a module's run-time imports all come before it in some order
    ordered = []
    while len(ordered) < len(graph):
        ready = [m for m in graph if m not in ordered and graph[m] <= set(ordered)]
        assert ready, f"an import cycle among {set(graph) - set(ordered)}"
        ordered += ready
