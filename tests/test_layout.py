"""Package layout rules: module boundaries and import cost."""

import ast
import importlib
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import rosette

SOURCE = Path(rosette.__file__).parent


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # "from . import _module" binds a whole private module, which is allowed
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    f"{path.name}:{node.lineno} from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


# The package modules that each module imports, exactly.  The integral oracle
# (quadrature) and the planar kernels (geometry) borrow nothing from the code they
# check; render draws the image polylines from boundary, so only the command line
# imports verify.  The package itself imports no module: it resolves its public
# names on first use.
IMPORT_GRAPH = {
    "__init__": set(),
    "boundary": {"errors", "geometry", "maps", "series"},
    "cli": {"boundary", "errors", "maps", "render", "verify"},
    "errors": set(),
    "geometry": {"errors"},
    "maps": {"errors", "series"},
    "quadrature": {"errors"},
    "render": {"boundary", "errors", "maps", "svgout"},
    "series": {"errors"},
    "svgout": set(),
    "verify": {"boundary", "errors", "geometry", "maps", "quadrature", "series"},
}


def _imports() -> dict[str, set[str]]:
    """Every module each source file imports, package modules as ".name"."""
    imports = {}
    for path in sorted(SOURCE.glob("*.py")):
        found = imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found |= {"." * node.level + (node.module or alias.name) for alias in node.names}
    return imports


def test_the_package_import_graph_is_pinned():
    graph = {
        name: {m.lstrip(".") for m in found if m.startswith(".")}
        | {m.removeprefix("rosette.") for m in found if m.startswith("rosette.")}
        for name, found in _imports().items()
    }
    assert graph == IMPORT_GRAPH


def test_the_half_turn_law_is_carried_in_boundary_alone():
    # maps defines the law, boundary carries every boundary quantity by it and verify's
    # half_turn_shift check tests it; every other module takes any beta through boundary
    users = {path.stem for path in SOURCE.glob("*.py")
             if "half_turn_rotation" in path.read_text(encoding="utf-8")}
    assert users - {"maps", "boundary", "verify"} == set()


def test_the_phase_split_is_formed_in_maps_alone():
    # f = e^{i beta/2} h + e^{-i beta/2} conj(g): every other module goes through
    # maps.combine_parts or maps.f, and takes h' and g' from maps.derivative_parts
    users = {path.stem for path in SOURCE.glob("*.py")
             if any(s in path.read_text(encoding="utf-8") for s in ("exp(0.5j", "exp(-0.5j"))}
    assert users - {"maps"} == set()


class _NameUses(ast.NodeVisitor):
    """The innermost enclosing function, as "module.function", of every use of one name."""

    def __init__(self, module: str, name: str):
        self.scope, self.name, self.found = [module], name, set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == self.name:
            self.found.add(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_maps_and_boundary_call_f_many():
    # f_many makes one series pass for h and one for g; everywhere else f is formed by
    # combine_parts(beta, *parts_many(params, z)), one pass for both.  The benchmark pins
    # boundary_points alone (bench/test_bench.py): the tracer must patch boundary.f_many
    # and reach the boundary.boundary_points span, and maps.f_many must reach the
    # maps.h_many and maps.g_many spans on interior-eval.  So h and g have one way in:
    # outside maps no module names h_many, g_many or the series passes (series' own
    # one-family wrapper aside), and inside it only f_many takes the one-part passes and
    # only parts_many the two-family pass.  A call or a reference counts.
    allowed = {
        "f_many": {"boundary.boundary_points"},
        "h_many": {"maps.f_many"},
        "g_many": {"maps.f_many"},
        "eval_series_many": {"maps.h_many", "maps.g_many"},
        "eval_families_many": {"maps.parts_many", "series.eval_series_many"},
        "transit_identity": set(),
    }
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    found = {}
    for name in allowed:
        found[name] = set()
        for module, tree in trees.items():
            uses = _NameUses(module, name)
            uses.visit(tree)
            found[name] |= uses.found
    assert found == allowed


def test_only_interval_points_puts_the_feature_values_into_a_polyline():
    # the image polylines are rows of interval_points, whose column 0 is a(j pi/n) from the
    # rotation laws; a builder that spliced the values in itself (with np.insert, say)
    # would read feature_values (or feature_vertices, were it back).  Besides interval_points
    # they serve the feature report and the half-speed curve's snap only.
    users = set()
    for path in SOURCE.glob("*.py"):
        for name in ("feature_values", "feature_vertices"):
            uses = _NameUses(path.stem, name)
            uses.visit(ast.parse(path.read_text(encoding="utf-8")))
            users |= uses.found
    assert users == {"boundary.interval_points", "boundary.extract_features",
                     "boundary.halfspeed_points"}
    inserts = _NameUses("boundary", "insert")
    inserts.visit(ast.parse((SOURCE / "boundary.py").read_text(encoding="utf-8")))
    assert inserts.found == set()


class _Calls(_NameUses):
    """(enclosing function, called name, first argument's source) of every call of a name."""

    def __init__(self, module: str, names: set[str]):
        super().__init__(module, None)
        self.names = names

    def visit_Call(self, node):
        callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
            node.func, "id", None)
        if callee in self.names:
            self.found.add((".".join(self.scope), callee, ast.unparse(node.args[0])))
        self.generic_visit(node)


def test_the_class_of_half_pi_is_decided_from_the_phase_as_given():
    # _reduce decides the class of pi/2 once per call, by half_pi_shift of beta as given, and
    # hands it on beside its base beta - l pi, which can round just past the band: no function
    # re-decides from that base.  extract_features decides it from reduce_beta's canonical
    # phase, which rounds as half_pi_shift does, lays the features out from that one answer and
    # hands it to their confirmation.  A name referenced but not called also counts.
    names = {"half_pi_shift", "_feature_js", "feature_vertices", "_confirm_features",
             "is_half_pi", "_carry"}
    calls, references = set(), set()
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = _Calls(path.stem, names)
        found.visit(tree)
        calls |= found.found
        for name in names:
            uses = _NameUses(path.stem, name)
            uses.visit(tree)
            references |= {(scope, name) for scope in uses.found}
    assert calls == {
        ("boundary._reduce", "half_pi_shift", "require_params(params).beta"),
        ("boundary.extract_features", "half_pi_shift", "canonical.beta"),
        ("boundary.extract_features", "_confirm_features", "canonical"),
    }
    assert references == {(scope, name) for scope, name, _ in calls}


def test_angles_have_one_reduction_and_one_wrap():
    # np.mod(x, TWO_PI) reduces to [0, 2pi) and boundary.wrap_angle wraps to (-pi, pi]:
    # only boundary assigns TWO_PI, only wrap_angle calls fmod, and no module takes % TWO_PI
    assigned, fmods, percent = set(), set(), []
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _Calls(path.stem, {"fmod"})
        calls.visit(tree)
        fmods |= {scope for scope, _, _ in calls.found}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "TWO_PI"
                                                    for target in node.targets):
                assigned.add(path.stem)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                    and "TWO_PI" in ast.unparse(node.right):
                percent.append(f"{path.stem}:{node.lineno}")
    assert assigned == {"boundary"}
    assert fmods == {"boundary.wrap_angle"}
    assert percent == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":  # the package imports to export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.stem}.{name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in used
                ]
    assert unused == []


# The public names that no package module uses, each with the reason it stays public.
UNUSED_PUBLIC_NAMES = {
    "canonical_rotation": "API: the paper's relative rotation of the two parts",
    "dilatation": "API: the dilatation g'/h' = z^(n-2) behind univalence",
    "jacobian": "API: the Jacobian |h'|^2 - |g'|^2, positive in the open disk",
    "tail_bound": "API: the geometric tail bound of the direct series regime",
    "classify_singular_point": "waits for the boundary-claims stage of ROADMAP item 12",
    "detect_arg_nonmonotonicity": "waits for the boundary-claims stage of ROADMAP item 12",
    "separation_angle": "waits for the boundary-claims stage of ROADMAP item 12",
    "total_curvature": "waits for the boundary-claims stage of ROADMAP item 12",
    "total_curvature_numeric": "waits for the boundary-claims stage of ROADMAP item 12",
    "integral_oracle": "the benchmark traces it; waits for ROADMAP item 1's tracer change",
    "winding_number": "the benchmark traces it; waits for ROADMAP item 1's tracer change",
}


def _package_uses() -> set[str]:
    """Every name that some scope of a package module reads as a global or an import;
    __init__ is left out, and so is a function's use of its own name."""
    used = set()

    def walk(table):
        used.update(symbol.get_name() for symbol in table.get_symbols()
                    if symbol.is_referenced() and symbol.get_name() != table.get_name()
                    and (symbol.is_global() or symbol.is_imported()))
        for child in table.get_children():
            walk(child)

    for path in SOURCE.glob("*.py"):
        if path.stem != "__init__":
            walk(symtable.symtable(path.read_text(encoding="utf-8"), path.name, "exec"))
    return used


def test_every_public_name_is_used_in_the_package_or_listed_with_its_reason():
    # a public twin that only tests call is removed, not kept beside its batch call; a
    # listed name that gains a use leaves the list
    unused = set(rosette.__all__) - _package_uses()
    unlisted = sorted(unused - UNUSED_PUBLIC_NAMES.keys())
    stale = sorted(UNUSED_PUBLIC_NAMES.keys() - unused)
    assert not unlisted, f"public names that no package module uses: {unlisted}"
    assert not stale, f"listed as unused, but used or no longer public: {stale}"


def test_the_rule_for_numeric_arguments_has_one_home():
    # errors defines as_array, as_number and require_integer, every module takes them from
    # there, and no module asks isinstance(x, numbers.Real) beside them
    rule = {"as_array", "as_number", "require_integer"}
    defined, imported = {}, {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in rule:
                defined.setdefault(node.name, []).append(path.stem)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in rule:
                        imported.setdefault(alias.name, set()).add(node.module)
    assert defined == {name: ["errors"] for name in rule}
    assert imported == {name: {"errors"} for name in rule}
    assert [name for name, found in _imports().items() if "numbers" in found] == []


def test_exact_arithmetic_lives_in_the_geometry_kernels_alone():
    # geometry is the one module that imports fractions, so the exact sign fallback
    # sits in one place (its package imports are pinned in IMPORT_GRAPH)
    assert [name for name, found in _imports().items() if "fractions" in found] == ["geometry"]


def test_series_uses_no_matrix_product():
    # a BLAS product adds in an order that depends on the batch shape, so the value
    # at a point would depend on the batch it is evaluated in
    tree = ast.parse((SOURCE / "series.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in {"dot", "matmul", "einsum", "inner"}
    ]
    assert found == []


def _fresh(code: str) -> str:
    """The stripped stdout of ``code`` run in a fresh interpreter on this source tree."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is no dependency: neither the import nor any command may load it,
    # including verify's integral check and decompose
    code = (
        "import contextlib, io, sys\n"
        "from rosette.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--n', '4', '--beta', '0.3', '--level', 'full']),\n"
        "             main(['decompose', '--n', '5', '--beta', 'pi/2'])]\n"
        "print(codes, 'scipy' in sys.modules)"
    )
    assert _fresh(code) == "[0, 0] False"


def test_commands_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call (about 10 ms and 1 MB), so the
    # boundary grid and the coverage histogram make their sets without it
    code = (
        "import contextlib, io, sys\n"
        "from rosette.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['render', '--n', '5', '--beta', 'pi/2', '--out', '-']),\n"
        "             main(['features', '--n', '5', '--beta', '0.3']),\n"
        "             main(['dump', '--n', '5', '--beta', '0.3']),\n"
        "             main(['verify', '--n', '4', '--beta', '0.3', '--level', 'full']),\n"
        "             main(['decompose', '--n', '5', '--beta', 'pi/2'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    assert _fresh(code) == "[0, 0, 0, 0, 0] False"


def test_every_submodule_is_the_package_attribute_of_its_name():
    # a re-export under a submodule's name would shadow the submodule: then
    # "import rosette.render as m" would bind the function
    for path in SOURCE.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"rosette.{path.stem}")
    loaded = {name.removeprefix("rosette."): module for name, module in sys.modules.items()
              if name.startswith("rosette.")}
    assert sorted(loaded) == sorted(p.stem for p in SOURCE.glob("*.py") if p.stem != "__init__")
    assert [name for name, module in loaded.items() if getattr(rosette, name) is not module] == []


def test_each_entry_point_loads_only_the_modules_it_uses():
    # one interpreter, each step loading more: what a step adds is what a fresh
    # interpreter would load for it, since every step starts with "import rosette"
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('rosette.') or m in ('numpy', 'fractions'))\n"
        "steps = {}\n"
        "import rosette\n"
        "steps['rosette'] = loaded()\n"
        "import rosette.maps\n"
        "steps['rosette.maps'] = loaded()\n"
        "import rosette.cli\n"
        "steps['rosette.cli'] = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [rosette.cli.main(argv) for argv in (\n"
        "        ['features', '--n', '5', '--beta', '0.3'],\n"
        "        ['features', '--n', '5', '--beta', 'pi/2', '--format', 'csv'],\n"
        "        ['dump', '--n', '5', '--beta', '0.3'],\n"
        "        ['dump', '--n', '5', '--beta', '-pi/2', '--what', 'radial'])]\n"
        "steps['features and dump'] = loaded()\n"
        "print(json.dumps([codes, steps]))"
    )
    codes, steps = json.loads(_fresh(code))
    assert codes == [0, 0, 0, 0]
    assert steps["rosette"] == []
    assert steps["rosette.maps"] == ["numpy", "rosette.errors", "rosette.maps", "rosette.series"]
    heavy = {f"rosette.{m}" for m in ("boundary", "geometry", "render", "svgout", "verify",
                                       "quadrature")}
    assert heavy & set(steps["rosette.cli"]) == set()
    assert {"rosette.render", "rosette.verify", "fractions"} & set(steps["features and dump"]) \
        == set()


def test_every_public_name_resolves_to_its_home_modules_object():
    # the package binds no public name eagerly: each comes from the module that defines it
    homes = {name: getattr(rosette, name).__module__ for name in rosette.__all__}
    assert [name for name, home in homes.items()
            if getattr(rosette, name) is not getattr(sys.modules[home], name)] == []
    assert set(homes.values()) <= {f"rosette.{p.stem}" for p in SOURCE.glob("*.py")}
    star = {}
    exec("from rosette import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(rosette.__all__)
    assert all(star[name] is getattr(rosette, name) for name in rosette.__all__)
    assert set(rosette.__all__) <= set(dir(rosette))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(rosette, "no_such_name")


def test_the_version_is_the_one_pyproject_gives():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SOURCE.parents[1] / "pyproject.toml", "rb") as fh:
        assert rosette.__version__ == tomllib.load(fh)["project"]["version"]


def test_evaluation_leaves_mpmath_unloaded():
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("smoke.py"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert (out.returncode, out.stdout.strip()) == (0, "ok"), out.stderr


def test_public_names_and_the_benchmarks_traced_functions_resolve():
    # a deletion that breaks the benchmark's tracer would otherwise show only in `pytest bench`
    missing = [name for name in rosette.__all__ if not hasattr(rosette, name)]
    tracer = SOURCE.parents[1] / "bench" / "tracer.py"
    traced = []
    for node in ast.walk(ast.parse(tracer.read_text(encoding="utf-8"))):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            traced = [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.value.elts]
    pairs = [(module, attr) for module, attr in traced if module.startswith("rosette.")]
    assert len(pairs) > 10
    missing += [f"{m}.{a}" for m, a in pairs if not hasattr(importlib.import_module(m), a)]
    assert missing == []
