"""The public names of the package: every name ``thickset/__init__.py``
imports resolves and is read by another module of the package or
allowlisted with a reason, and the reference oracles the tests use live
in ``tests/oracles.py``, not in the library."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import thickset
from thickset import (balls, cantor, cli, patterns1d, patterns_nd,
                      product, scalars)

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
# library path reached, a second placement of a descent's pieces over a
# common denominator, for pieces of two sets or two word lengths, a
# second longest-gap helper, equilateral builder and interval coercion,
# and the names only tests reached: a dimension bound, pi, three
# interval queries, the materialized cover and its result type, and a
# rational-point wrapper of the position certificate; the difference
# hit's own root test and descent over the root's children, the witness
# step range's second pass over the pairs the tuple walk checks, in
# Fractions and then in integers (the walk returns the range it ends
# on), a triangle's interval vertices and the enclosure of its split
# beside the exact one, and the plane triangle's copy of the class beside
# the ``NormalizedTriangle`` it was made from, with the class's side
# ratios and height check outside it; the product search's forks of
# the base search and the difference hit that skipped the thickness
# check the caller had made; and the command line's handler table
# beside ``COMMANDS``, with find-ap's own handler and the body it shared
# with find-combo
SECOND_PATHS = [(thickset, "Cmp"), (scalars, "Cmp"),
                (scalars.Interval, "compare"), (cantor.AffineMap, "compose"),
                (cantor, "IDENTITY"), (product, "_exact_sqrt_ratio"),
                (cantor, "normalize_to_unit"),
                (patterns1d, "_find_combo_unit"),
                (patterns1d, "_split_branches"), (cantor, "enumerate_gaps"),
                (cantor.IfsSet1D, "word_interval"),
                (patterns1d, "pieces_certified"), (patterns1d, "_aligned"),
                (patterns1d, "_unit"), (cantor.WordForm, "over"),
                (thickset, "hausdorff_lower_bound"),
                (patterns1d, "hausdorff_lower_bound"),
                (thickset, "largest_gap"), (patterns1d, "largest_gap"),
                (thickset, "equilateral_triangle"),
                (product, "equilateral_triangle"), (product, "_iv"),
                (thickset, "interval_pi"), (scalars, "interval_pi"),
                (scalars.Interval, "make"), (scalars.Interval, "contains"),
                (scalars.Interval, "intersects"), (thickset, "cover"),
                (cantor, "cover"), (thickset, "Cover1D"),
                (cantor, "certified_member"), (patterns1d, "_descent"),
                (patterns1d, "_tuple_y_range"),
                (product.Triangle, "is_exact"),
                (product.NormalizedTriangle, "lam_exact"),
                (patterns1d.Piece, "word"), (balls.BallSystem, "cells"),
                (patterns1d, "_convex_combo"), (product, "_difference_hit"),
                (patterns1d, "_step_range"), (cantor, "interval_in_cover"),
                (cantor, "slides_into_gap"), (thickset, "VertexMaps"),
                (patterns_nd, "VertexMaps"), (thickset, "vertex_maps"),
                (patterns_nd, "vertex_maps"), (product, "require_height"),
                (product, "_side_ratios"), (cli, "HANDLERS"),
                (cli, "_combo_common"), (cli, "cmd_find_ap"),
                (patterns_nd, "_combo_images"),
                (patterns_nd, "_triangle_images"), (patterns_nd, "_apex")]
# exported names that no other module of the package reads, each public
# for the reason given
PUBLIC_ONLY = {
    "GapRecord": "result type", "ThicknessReport": "result type",
    "MembershipResult": "result type", "ProductWitness": "result type",
    "ThicknessReportNd": "result type", "Disk": "result type",
    "WitnessNd": "result type",
    "ThicksetError": "base class of the errors callers catch",
    "AffineMap": "type of the branch maps a set is built from",
    "middle_thirds": "builder/construction API",
    "affine_image": "builder/construction API",
    "ExplicitTree": "builder/construction API",
    "GridIfs": "builder/construction API",
    "HexPacking": "builder/construction API",
    "difference_interval": "paper result the bench times",
    "find_3ap": "paper result the bench times",
    "shmerkin_4ap": "paper result the bench times",
    "difference_hit": "paper result the bench times",
    "convex_combo_disk": "certified disk of the plane combination theorem",
    "triangle_disk": "certified disk of the plane triangle theorem",
    "interval_ln": "timed by the bench's enclosure jobs; goes with them",
    "interval_atan": "timed by the bench's enclosure jobs; goes with them",
}
BUILDERS = (balls.GridIfs, balls.HexPacking, balls.ExplicitTree)


def exports() -> dict[str, str]:
    """Each name ``thickset/__init__.py`` imports, with its module."""
    tree = ast.parse(Path(thickset.__file__).read_text())
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_exports_resolve():
    names = exports()
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


# result fields that nothing read, and the slack bounds computed to fill
# two of them
UNREAD_FIELDS_GONE = [(balls.ThicknessReportNd, "h_bounds"),
                      (balls.SubsetThicknessReport, "h_child_bound"),
                      (balls.UniformityResult, "r"),
                      (cantor.GapRecord, "creation_depth"),
                      (cantor.ThicknessReport, "max_depth")]


@pytest.mark.parametrize("cls, name", UNREAD_FIELDS_GONE)
def test_unread_fields_are_gone(cls, name):
    assert name not in {f.name for f in dataclasses.fields(cls)}


def test_run_keeps_no_printed_lines():
    run = cli.Run(cli.make_parser().parse_args(["construct", "--set",
                                                "middle_thirds"]))
    assert not hasattr(run, "lines") and not hasattr(run, "say")


def test_triangle_disk_reads_alpha_sq_from_its_class():
    params = inspect.signature(patterns_nd.triangle_disk).parameters
    assert list(params) == ["sys", "tri", "r", "mode", "bits"]


def test_triangle_class_is_exact():
    # the class is one rational (alpha^2, lam): no interval height feeds
    # the threshold, and the region check has no tolerance
    params = inspect.signature(patterns_nd.threshold).parameters
    assert list(params) == ["alpha_sq", "lam", "r", "mode", "bits"]
    region = inspect.signature(product.NormalizedTriangle.region_ok)
    assert list(region.parameters) == ["self"]


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


def test_descend_takes_one_kind_of_frame():
    # every frame item carries its charge count, so no switch picks the
    # frame function
    params = inspect.signature(cantor.descend).parameters
    assert list(params) == ["first", "children", "ok", "levels", "what",
                            "backtrack"]


def test_class_images_take_the_class_record_and_the_target():
    # the side ratios travel with the class, so the maps take no
    # precision of their own
    params = inspect.signature(patterns_nd._class_images).parameters
    assert list(params) == ["cls", "z"]


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


READ = {module: referenced(tree) for module, tree in SOURCES.items()}


def readers(name: str, home: str) -> list[str]:
    """The modules of the package, other than ``home``, that read
    ``name``."""
    return [module for module, names in READ.items()
            if module != home and name in names]


def test_exports_are_read_or_allowlisted():
    # a public name that no other module reads is reached only by
    # tests, or by nothing, unless it is public for a stated reason
    unread = [name for name, home in exports().items()
              if name not in PUBLIC_ONLY and not readers(name, home)]
    assert unread == []


def test_allowlist_holds_only_unread_exports():
    names = exports()
    stale = [name for name in PUBLIC_ONLY
             if name not in names or readers(name, names[name])]
    assert stale == []


# the private names a module of the package, or the oracles, takes from
# another module of the package, each for the reason given; any other is
# a second way into that module's internals
PRIVATE_IMPORTS = {
    ("patterns_nd", "product", "_ratio_deviation"):
        "the plane triangle witness bounds its deviation as the product's",
    ("patterns_nd", "scalars", "_sqrt_bounds"):
        "a disk test needs only the upper end of one square root",
    ("oracles", "patterns_nd", "_may_meet"):
        "the one-coordinate window runs the library's pair test, so the "
        "two frames differ only in what they charge and test",
}
IMPORTERS = dict(SOURCES, oracles=ast.parse(
    Path(__file__).with_name("oracles.py").read_text()))


def package_module(node: ast.ImportFrom):
    """The module of the package an import reads from, "thickset" for
    the package itself, or None for a module outside it."""
    name = node.module or ""
    if node.level:
        return name or "thickset"
    if name == "thickset" or name.startswith("thickset."):
        return name.rpartition(".")[2]
    return None


def private_imports() -> set[tuple[str, str, str]]:
    """(importer, owner, name) for each private name that a module of
    ``IMPORTERS`` imports from another module of the package, by name or
    as an attribute of an imported module."""
    found = set()
    for importer, tree in IMPORTERS.items():
        modules = {}  # local name -> module of the package
        for node in ast.walk(tree):
            owner = isinstance(node, ast.ImportFrom) and package_module(node)
            if not owner:
                continue
            for alias in node.names:
                if owner == "thickset" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((importer, owner, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules and node.attr.startswith("_"):
                found.add((importer, modules[node.value.id], node.attr))
    return {(importer, owner, name) for importer, owner, name in found
            if importer != owner and not name.startswith("__")}


def test_private_imports_are_allowlisted():
    found = private_imports()
    assert sorted(found - set(PRIVATE_IMPORTS)) == []
    assert sorted(set(PRIVATE_IMPORTS) - found) == []  # none stale


@pytest.mark.parametrize("cls", [
    cantor.ThicknessReport, cantor.MembershipResult,
    patterns1d.WitnessPoint, patterns1d.KapCertificate])
def test_result_types_keep_the_dataclass_repr(cls):
    assert "__str__" not in vars(cls)


# the parameters a function of the package takes and does not read, each
# for the reason given; any other is left over from a deletion, or an
# option that changes nothing
UNREAD_PARAMETERS = {
    ("balls", "GridIfs.child_count", "word"):
        "generator protocol: every grid word has n**d children",
    ("balls", "GridIfs.h_upper", "bits"):
        "generator protocol: the grid slack is an exact rational",
    ("balls", "GridIfs.thickness", "sys"):
        "generator protocol: the grid thickness is a closed form in rho "
        "and d alone",
    ("balls", "GridIfs.thickness", "bits"):
        "generator protocol: the grid thickness is an exact rational",
    ("balls", "GridIfs.validate", "depth"):
        "generator protocol: the grid's check is on its norm alone",
    ("balls", "HexPacking.child_count", "word"):
        "generator protocol: every hex word has the same children",
    ("balls", "HexPacking.validate", "depth"):
        "generator protocol: the hex check is on the root's children alone",
    ("balls", "ExplicitTree.children", "parent"):
        "generator protocol: the tree looks its children up by word",
    ("balls", "ExplicitTree.h_upper", "bits"):
        "generator protocol: the tree's slack is a kernel run to a fixed "
        "relative width",
    ("patterns_nd", "_class_images.image_b", "s"):
        "image-map protocol: only the target side's map scales the target",
    ("patterns_nd", "_class_images.project_b", "s"):
        "image-map protocol: only the target side's map scales the target",
}


def functions(tree, prefix=""):
    """(qualified name, node) for each ``def`` in ``tree``, methods and
    nested functions included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from functions(node, prefix + node.name + ".")
        else:
            yield from functions(node, prefix)


def unread_parameters() -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter, other than a
    method's receiver, that its function's body never reads; protocol
    stubs, whose body is ``...``, have none."""
    found = set()
    for module, tree in SOURCES.items():
        for name, node in functions(tree):
            body = node.body
            if len(body) == 1 and isinstance(body[0], ast.Expr) and \
                    getattr(body[0].value, "value", None) is Ellipsis:
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            found.update((module, name, p) for p in params
                         if p not in read and p not in ("self", "cls"))
    return found


def test_parameters_are_read_or_allowlisted():
    found = unread_parameters()
    assert sorted(found - set(UNREAD_PARAMETERS)) == []
    assert sorted(set(UNREAD_PARAMETERS) - found) == []  # none stale


# the dataclass fields of the package that no module of the package and
# no bench script reads as an attribute, each for the reason given; any
# other is a result field that nothing reads
UNREAD_FIELDS: dict[tuple[str, str], str] = {}
BENCH_SOURCES = [ast.parse(path.read_text()) for path in sorted(
    Path(__file__).parents[1].joinpath("bench").glob("*.py"))]


def attribute_reads(tree) -> set[tuple[str, frozenset]]:
    """(attribute, names of the calls around it) for each attribute that
    ``tree`` loads."""
    found = set()

    def visit(node, calls):
        if isinstance(node, ast.Call):
            func = node.func
            calls = calls | {getattr(func, "id", getattr(func, "attr", ""))}
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            found.add((node.attr, calls))
        for child in ast.iter_child_nodes(node):
            visit(child, calls)

    visit(tree, frozenset())
    return found


def unread_fields() -> set[tuple[str, str]]:
    """(class, field) for each field of a dataclass of the package that
    no module of the package and no bench script reads as an attribute.
    A read inside a call of the field's own class, which only copies the
    value into a new instance, does not count."""
    reads = set().union(*map(attribute_reads,
                             [*SOURCES.values(), *BENCH_SOURCES]))
    found = set()
    for module in MODULES:
        for cls in vars(importlib.import_module(f"thickset.{module}")
                        ).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == f"thickset.{module}"):
                continue
            found.update((cls.__name__, f.name)
                         for f in dataclasses.fields(cls)
                         if not any(attr == f.name and cls.__name__ not in
                                    calls for attr, calls in reads))
    return found


def test_dataclass_fields_are_read_or_allowlisted():
    found = unread_fields()
    assert sorted(found - set(UNREAD_FIELDS)) == []
    assert sorted(set(UNREAD_FIELDS) - found) == []  # none stale
