"""Every module-level import in the package is used, or is kept on purpose.

An import no code in its module reads is dead, except where the benchmark's
tracer wraps the name as that module binds it; such imports carry MARKER on
their line, and the marked name must be one of the tracer's bindings.

Likewise every function and class the package exports, and every public
method, property and classmethod of a public class in the package, is read
by the package or by the benchmark (as a name or an attribute), or is listed
in TEST_ONLY with the reason tests need it.  Methods are listed as
Class.method and count as read wherever an attribute of their name is.

And every annotated field of a public class in the package is read as an
attribute (``obj.field``) by the package or by the benchmark, or is listed in
TEST_ONLY as Class.field.  The check goes by name: a field named like an
attribute read elsewhere (``n``, ``level``, ``b``) passes on that read.

And every defaulted parameter of a public function of the package, or of
a public method of a public class, is passed by some call in the package or
in the benchmark (by keyword, or by position), or is listed in TEST_ONLY as
function(parameter) or Class.method(parameter): a default no code changes is
a constant, and a knob only tests turn is test-only API.  The check goes by
name, as the others do.

And every module-level private function, class and constant of the package
is read somewhere in the package, so no leftover of a removed code path
stays behind.

And no module but ``series`` compares anything with DEFAULT_CHUNK_CAP or
WORK_BUDGET, so the tile-size rule and the walk's work limit are each
decided in one place.

And no module takes a float remainder, so reducing mod 1 is t - floor(t)
everywhere.

And no module calls np.unique or np.union1d without a ``return_*`` keyword:
numpy 2.3 and later take those distinct values by a hash table, about 60x
slower than the sort of ``words.sorted_unique``.
"""

import ast
import inspect
import math
from pathlib import Path

import solenoidlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solenoidlab"
MARKER = "# noqa: F401 - perfbench/layers.py wraps this name"

#: Public names that only tests call, and record fields that only tests read,
#: each with the reason it stays.
TEST_ONLY = {
    "DiscreteMeasure.uniform_unit": "the Lebesgue reference of acceptance criterion 5",
    "PartitionKey.cell1": "scalar oracle of the bulk key columns of partitions.partition_keys",
    "PartitionKey.cell2": "scalar oracle of the bulk key columns of partitions.partition_keys",
    "PartitionKey.cell3": "scalar oracle of the bulk key columns of partitions.partition_keys",
    "PartitionKey.cell3_level": "scalar oracle of the series-column level of partitions.partition_keys",
    "PartitionKey.m": "scalar oracle of the word length partitions.partition_keys bins at",
    "PeriodicFn.cosine(amplitude)": "mirrors PeriodicFn.sine(amplitude), so either builder takes any single term",
    "PeriodicFn.cosine(harmonic)": "mirrors PeriodicFn.sine(harmonic), so either builder takes any single term",
    "PeriodicFn.sine(amplitude)": "the 0.6 sin(4 pi x) system of tests/test_dynamics.py's bit-for-bit orbit check",
    "PeriodicFn.sine(harmonic)": "the 0.6 sin(4 pi x) system of tests/test_dynamics.py's bit-for-bit orbit check",
    "RunConfig.to_json": "round-trip partner of RunConfig.from_json, which the CLI reads",
    "SelfSimilarityReport.certified_bound": "acceptance criterion 4",
    "SeparationScan.worst_words": "re-checked through min_gap: the scan's gap is that word's value-set gap",
    "Word.concat": "word algebra of the cocycle oracle in tests/series_oracles.py",
    "cohomological_phi": "builds the degenerate system of acceptance criterion 2",
    "component": "oracle of entropy._component_entropies",
    "convolve": "the convolution entropy bound of acceptance criterion 5",
    "min_gap": "oracle of the batched value-set gaps of separation.exp_separation_scan",
    "partition_key": "oracle of the bulk key columns of partitions.theta_entropy_table",
    "self_similarity_residual": "acceptance criterion 4",
    "validate_certificate": "oracle re-check of transversality_search certificates on a finer grid",
}


def _bindings() -> set[tuple[str, str]]:
    """(module, name) pairs of perfbench/layers.py BINDINGS, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return {(e.elts[0].value, e.elts[1].value) for e in node.value.elts}
    raise AssertionError("perfbench/layers.py defines no BINDINGS")


def _module_imports(tree: ast.Module):
    """(bound name, line number) of every module-level import but __future__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.lineno


def test_module_imports_are_used_or_marked():
    bindings = _bindings()
    unused, unbound = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, lineno in _module_imports(tree):
            if MARKER in lines[lineno - 1]:
                if (path.stem, name) not in bindings:
                    unbound.append(f"{path.stem}.{name}")
            elif name not in read:
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"unused imports: {unused}"
    assert not unbound, f"marked imports that perfbench/layers.py does not wrap: {unbound}"


def _code_nodes():
    """Every AST node of the package's modules and of perfbench/."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text()))


def _read_names() -> set[str]:
    """Names read, as names or as attributes, in the package's modules and in perfbench/."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in _code_nodes()
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _public_members(kind) -> set[str]:
    """Class.member of every public ``kind`` node (ast.FunctionDef for
    methods, ast.AnnAssign for fields) of a public class defined in the package."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names = [
                    f.target.id if isinstance(f, ast.AnnAssign) else f.name
                    for f in node.body
                    if isinstance(f, kind)
                ]
                out |= {f"{node.name}.{name}" for name in names if not name.startswith("_")}
    return out


def test_exported_api_is_used_or_listed_as_test_only():
    public = _public_members(ast.FunctionDef) | {
        name
        for name in solenoidlab.__all__
        if inspect.isfunction(getattr(solenoidlab, name)) or inspect.isclass(getattr(solenoidlab, name))
    }
    read = _read_names()
    unused = {name for name in public if name.rsplit(".", 1)[-1] not in read}
    unlisted = sorted(unused - set(TEST_ONLY))
    listable = public | _public_members(ast.AnnAssign) | set(_defaulted_parameters())
    stale = sorted(name for name in TEST_ONLY if name not in listable or name in public and name not in unused)
    assert not unlisted, f"public names only tests call, missing from TEST_ONLY: {unlisted}"
    assert not stale, f"TEST_ONLY entries that are not public or are read in code: {stale}"


def test_record_fields_are_read_or_listed_as_test_only():
    fields = _public_members(ast.AnnAssign)
    read = {
        n.attr for n in _code_nodes() if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unused = {name for name in fields if name.rsplit(".", 1)[-1] not in read}
    unlisted = sorted(unused - set(TEST_ONLY))
    stale = sorted(name for name in TEST_ONLY if name in fields and name not in unused)
    assert not unlisted, f"record fields only tests read, missing from TEST_ONLY: {unlisted}"
    assert not stale, f"TEST_ONLY fields that code reads: {stale}"


def _defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """function(parameter) or Class.method(parameter) of every defaulted
    parameter of a public function or method of a public class in the
    package, with (function name, parameter name, position among a call's
    positional arguments, None if keyword-only)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [("", f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [
            (f"{c.name}.", f)
            for c in tree.body
            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
            for f in c.body
            if isinstance(f, ast.FunctionDef)
        ]
        for owner, f in defs:
            if f.name.startswith("_"):
                continue
            positional = f.args.posonlyargs + f.args.args
            if owner and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list):
                positional = positional[1:]  # self or cls
            first = len(positional) - len(f.args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            for name, pos in params:
                out[f"{owner}{f.name}({name})"] = (f.name, name, pos)
    return out


def test_defaulted_parameters_are_passed_or_listed_as_test_only():
    positions, keywords = {}, {}  # by called name: most positional arguments; keywords passed
    for n in _code_nodes():
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            positions[name] = max(positions.get(name, 0), math.inf if starred else len(n.args))
            keywords.setdefault(name, set()).update(k.arg or "**" for k in n.keywords)
    defaulted = _defaulted_parameters()
    unpassed = {
        key
        for key, (fn, name, pos) in defaulted.items()
        if not ({name, "**"} & keywords.get(fn, set()) or pos is not None and pos < positions.get(fn, 0))
    }
    unlisted = sorted(unpassed - set(TEST_ONLY))
    stale = sorted(key for key in TEST_ONLY if key in defaulted and key not in unpassed)
    assert not unlisted, f"defaulted parameters no code passes, missing from TEST_ONLY: {unlisted}"
    assert not stale, f"TEST_ONLY parameters that code passes: {stale}"


def _private_definitions(tree: ast.Module):
    """Names of the module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_private_definitions_are_read_in_the_package():
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {f"{path.stem}.{name}" for name in _private_definitions(tree)}
        read |= {
            n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
    unread = sorted(name for name in defined if name.split(".", 1)[1] not in read)
    assert defined, "no private definitions found"
    assert not unread, f"private definitions nothing in the package reads: {unread}"


def _comparisons_outside_series(name: str) -> list[str]:
    """module:line of every comparison with ``name`` outside ``series``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "series":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) == name for n in ast.walk(node)
            ):
                offenders.append(f"{path.stem}:{node.lineno}")
    return offenders


def test_only_series_compares_with_the_tile_cap():
    """``series.check_tile`` and ``series.tile_digits`` are the one tile-size
    rule: no other module compares anything with DEFAULT_CHUNK_CAP."""
    offenders = _comparisons_outside_series("DEFAULT_CHUNK_CAP")
    assert not offenders, f"comparisons with DEFAULT_CHUNK_CAP outside series: {offenders}"


def test_only_series_compares_with_the_walk_budget():
    """``series.check_walk`` is the one rule for the walk's work limit: no
    other module compares anything with WORK_BUDGET."""
    offenders = _comparisons_outside_series("WORK_BUDGET")
    assert not offenders, f"comparisons with WORK_BUDGET outside series: {offenders}"


#: Calls that take a float remainder.
REMAINDER_CALLS = {"remainder", "mod", "fmod"}


def test_no_module_takes_a_float_remainder():
    """Reducing mod 1 is t - floor(t) in every module: none writes ``%`` or
    ``%=`` with a float literal on either side, or calls np.remainder,
    np.mod, np.fmod or math.fmod."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                operands = [node.left, node.right]
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
                operands = [node.value]
            elif isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) in REMAINDER_CALLS:
                    offenders.append(f"{path.stem}:{node.lineno}")
                continue
            else:
                continue
            if any(isinstance(n, ast.Constant) and isinstance(n.value, float) for n in operands):
                offenders.append(f"{path.stem}:{node.lineno}")
    assert not offenders, f"float remainders outside the floor rule: {offenders}"


def test_distinct_values_are_taken_by_sort():
    """Without a ``return_*`` keyword, np.unique and np.union1d take the hash
    path; ``words.sorted_unique`` is the one sort-based unique."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"unique", "union1d"}
                and not any((k.arg or "").startswith("return_") for k in node.keywords)
            ):
                offenders.append(f"{path.stem}:{node.lineno}")
    assert not offenders, f"hash-path unique calls, use words.sorted_unique: {offenders}"
