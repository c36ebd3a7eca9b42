"""The README's library tour against the package: every name it shows resolves, and every export is shown."""

import ast
import importlib
import re
from pathlib import Path

import kextdistill

README = Path(__file__).resolve().parents[1] / "README.md"
BACKENDS = {"dense", "iterative", "schur_weyl", "auto"}


def tour_rows() -> dict[str, list[str]]:
    """Module name -> the backticked identifiers of its `| `kextdistill.<module>` |` row, call arguments dropped."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `kextdistill\.(\w+)` \|(.*)\|$", line)
        if row:
            names = (re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", text) for text in re.findall(r"`([^`]+)`", row[2]))
            rows[row[1]] = [name[1] for name in names if name and name[1] not in BACKENDS]
    return rows


def test_every_tour_name_resolves_in_its_module():
    rows = tour_rows()
    assert {"linalg", "states", "solver", "blocks", "analytic", "validate"} <= set(rows)
    for module, names in rows.items():
        obj = importlib.import_module(f"kextdistill.{module}")
        for name in names:
            target = obj
            for part in name.split("."):
                assert hasattr(target, part), f"README tour names {name!r}, which kextdistill.{module} lacks"
                target = getattr(target, part)


def test_every_export_is_in_its_module_row():
    rows = tour_rows()
    tree = ast.parse(Path(kextdistill.__file__).read_text(encoding="utf-8"))
    exports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exports
    missing = [f"{module}.{name}" for module, name in exports if name not in rows.get(module, [])]
    assert not missing, f"kextdistill exports these without a README tour entry: {missing}"
