"""Package modules reach each other only through public names, and call no LAPACK trtrs."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kextdistill"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_sibling_names(path: Path) -> list[str]:
    """Every `sibling._name` and `from .sibling import _name` in one module, as file:line: name.

    A sibling is a package module bound by `from . import module [as alias]`,
    such as validate's `solver` and `wa` or cli's `validate_mod`.
    """
    tree = ast.parse(path.read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    siblings = {alias.asname or alias.name for node in relative if node.module is None for alias in node.names}
    found = [
        f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
        for node in relative
        if node.module is not None
        for alias in node.names
        if _is_private(alias.name)
    ]
    found += [
        f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and _is_private(node.attr)
    ]
    return found


def test_package_modules_use_only_each_others_public_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"cli.py", "solver.py", "validate.py"} <= {path.name for path in modules}
    assert [name for path in modules for name in private_sibling_names(path)] == []


def test_the_scan_sees_attribute_and_import_uses_through_aliases(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import solver\nfrom . import analytic as wa\nfrom .blocks import _kron, werner_probe\n"
        "solver._check_alpha(wa._ellipse_points(0), solver.__name__, wa.alpha_max_k1)\n"
    )
    assert private_sibling_names(module) == [
        "mod.py:3: from .blocks import _kron",
        "mod.py:4: solver._check_alpha",
        "mod.py:4: wa._ellipse_points",
    ]


TRIANGULAR_SOLVE = re.compile(r"^(solve_triangular|[sdcz]?trtrs)$")


def triangular_solves(path: Path) -> list[str]:
    """Every use of scipy's `solve_triangular` or a LAPACK `trtrs` in one module, as file:line: name.

    A name, an attribute or an imported name matches, and so does a string
    naming the routine, as `get_lapack_funcs` takes it.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if TRIANGULAR_SOLVE.match(name):
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    return found


def test_package_modules_solve_no_triangular_system_through_lapack_trtrs():
    # LAPACK's trtrs took up to 8.7 ms per call in some processes, where BLAS trsm on the same factor took 2-4 us
    assert [name for path in sorted(PACKAGE.glob("*.py")) for name in triangular_solves(path)] == []


def test_the_triangular_scan_sees_calls_imports_and_names(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import scipy.linalg\nfrom scipy.linalg import solve_triangular\n"
        "scipy.linalg.solve_triangular(a, b)\nscipy.linalg.lapack.dtrtrs(a, b)\n"
        "scipy.linalg.get_lapack_funcs('trtrs', (a,))\nscipy.linalg.get_blas_funcs('trsm', (a,))\n"
    )
    assert triangular_solves(module) == [
        "mod.py:2: solve_triangular",
        "mod.py:3: solve_triangular",
        "mod.py:4: dtrtrs",
        "mod.py:5: trtrs",
    ]
