"""The package's import hygiene and exported surface, read with the standard library alone."""

import ast
from pathlib import Path

import pytest

import symextia

PACKAGE = Path(symextia.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# each retired public name, with the module that exported it
RETIRED = (
    ("align_verify", "orthonormal_basis"),
    ("align_verify", "receiver_composite"),
    ("align_verify", "signal_space_rank"),
    # the sampled chain's two steps, private to run_symbol_chain
    ("link_sim", "transmit_blocks"),
    ("link_sim", "combine_received"),
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds anywhere in ``tree``, with its line; ``__future__`` aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, attribute chains by their root."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"align_verify", "cj_precoder", "extension_core", "link_sim", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x.y)\n")
    assert {name for name in _imported_names(tree) if name not in _used_names(tree)} == {"os", "d"}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from symextia import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(symextia.__all__)
    assert len(set(symextia.__all__)) == len(symextia.__all__)


def test_all_is_every_name_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(_imported_names(tree)) == set(symextia.__all__)


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_names_are_gone(module, name):
    assert name not in symextia.__all__
    assert not hasattr(symextia, name)
    assert not hasattr(getattr(symextia, module), name)


@pytest.mark.parametrize("name", ("tx_gain_table", "rx_gain_table"))
def test_retired_gain_tables_are_gone(name):
    # gains are read one user at a time, through tx_gains and rx_gains
    assert not hasattr(symextia.EffectiveChannel, name)
