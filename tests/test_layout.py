"""Package layout rules: module boundaries and import cost."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
# and the package itself import verify.
IMPORT_GRAPH = {
    "__init__": {"boundary", "errors", "maps", "render", "series", "verify"},
    "boundary": {"errors", "geometry", "maps", "series"},
    "cli": {"boundary", "maps", "render", "verify"},
    "errors": set(),
    "geometry": {"errors"},
    "maps": {"errors", "series"},
    "quadrature": {"errors"},
    "render": {"boundary", "errors", "geometry", "maps", "svgout"},
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
    # maps.h_many and maps.g_many spans on interior-eval.  A call or a reference counts.
    users = set()
    for path in SOURCE.glob("*.py"):
        uses = _NameUses(path.stem, "f_many")
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
        users |= uses.found
    assert users - {"boundary.boundary_points"} == set()


# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {("verify", "fundamental_set")}


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
                    if name not in used and (path.stem, name) not in RE_EXPORTS
                ]
    assert unused == []


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
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert out.stdout.strip() == "[0, 0] False"


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
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    )
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] False"


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
