"""The public names of the package: every name ``thickset/__init__.py``
imports resolves, and the reference oracles the tests use live in
``tests/oracles.py``, not in the library."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import thickset
from thickset import (balls, cantor, patterns1d, patterns_nd, product,
                      scalars)

MODULES = ("balls", "cantor", "cli", "errors", "patterns1d", "patterns_nd",
           "product", "render", "scalars")
ORACLES = ("merge_intervals", "self_combo_cover", "_unit_combo_cover",
           "subtree_combo_cover", "verify_combo_containment",
           "combo_core_intervals", "kap_bruteforce", "point_in_cover",
           "product_witness_in_cover", "contains_point", "disjoint_from")
# the helpers the two ball-system witness pipelines used to keep apart,
# before they shared one hypothesis core
MERGED = ("_designated", "_check_disjoint_children", "_certify_threshold",
          "_ivec")
# the second path each of these jobs kept beside the one callers use: a
# second way to compare or compose, the line searches' unit-hull and
# mirrored copies of the set, gap and word geometry in rationals that no
# library path reached, and a second placement of a descent's pieces
# over a common denominator, for pieces of two sets or two word lengths
SECOND_PATHS = [(thickset, "Cmp"), (scalars, "Cmp"),
                (scalars.Interval, "compare"), (cantor.AffineMap, "compose"),
                (cantor, "IDENTITY"), (product, "_exact_sqrt_ratio"),
                (cantor, "normalize_to_unit"),
                (patterns1d, "_find_combo_unit"),
                (patterns1d, "_split_branches"), (cantor, "enumerate_gaps"),
                (cantor.IfsSet1D, "word_interval"),
                (patterns1d, "pieces_certified"), (patterns1d, "_aligned"),
                (patterns1d, "_unit"), (cantor.WordForm, "over")]
BUILDERS = (balls.GridIfs, balls.HexPacking, balls.ExplicitTree)


def exported_names() -> list[str]:
    tree = ast.parse(Path(thickset.__file__).read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_exports_resolve():
    names = exported_names()
    assert len(names) > 50
    for name in names:
        assert getattr(thickset, name) is not None, name


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_left_the_library(name):
    assert not hasattr(thickset, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"thickset.{module}"),
                           name), module
    assert not hasattr(thickset.Ball, name)


@pytest.mark.parametrize("name", MERGED)
def test_merged_helpers_are_gone(name):
    assert not hasattr(patterns_nd, name)


def test_unread_members_are_gone():
    assert not hasattr(patterns_nd.WitnessNd, "points")
    assert "provenance" not in {f.name
                                for f in dataclasses.fields(patterns_nd.Disk)}


def test_triangle_disk_reads_alpha_sq_from_its_maps():
    params = inspect.signature(patterns_nd.triangle_disk).parameters
    assert "alpha_sq" not in params


@pytest.mark.parametrize("name", ["UNFALSIFIED_SAMPLED", "contains_any"])
def test_sampled_uniformity_is_gone(name):
    assert not hasattr(balls, name)


@pytest.mark.parametrize("func", [
    patterns_nd.convex_combo_disk, patterns_nd.find_convex_combo_nd,
    patterns_nd.triangle_disk, patterns_nd.find_triangle_nd])
def test_designated_pair_comes_from_the_generator(func):
    params = inspect.signature(func).parameters
    assert not {"idx_a", "idx_b"} & set(params)


def test_r_uniformity_check_takes_no_sampling_knobs():
    params = inspect.signature(balls.r_uniformity_check).parameters
    assert list(params) == ["sys", "r"]


@pytest.mark.parametrize("owner, name", SECOND_PATHS)
def test_second_paths_are_gone(owner, name):
    assert not hasattr(owner, name)


def public_methods(cls) -> set[str]:
    return {name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")}


@pytest.mark.parametrize("builder", BUILDERS)
def test_builders_have_exactly_the_generator_methods(builder):
    assert "child" not in public_methods(balls.Generator)
    assert not hasattr(builder, "child")
    assert public_methods(builder) == public_methods(balls.Generator)


def test_hex_packing_sets_gamma_alone():
    assert [f.name for f in dataclasses.fields(balls.HexPacking)] == ["gamma"]
    for name in ("rho", "designated"):
        with pytest.raises(TypeError):
            balls.HexPacking(1, **{name: getattr(balls.HexPacking, name)})


# every module of the package but the re-exports of ``__init__``
SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(thickset.__file__).parent.glob("*.py"))
           if path.stem != "__init__"}


def referenced(tree, skip=None) -> set[str]:
    """The names ``tree`` reads, attributes and imported names included,
    outside the node ``skip``."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_imported_names_are_used(module):
    tree = SOURCES[module]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_private_definitions_are_referenced(module):
    # a private function or class that nothing outside its own body
    # reads is left over from a deletion
    unread = []
    for node in SOURCES[module].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(node.name in referenced(tree, node if name == module
                                           else None)
                   for name, tree in SOURCES.items()):
            unread.append(node.name)
    assert unread == []
