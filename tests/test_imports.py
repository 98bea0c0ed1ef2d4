"""Every module-level import in the package source is used, and importing
the CLI loads no process-pool machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gaitpass"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_cli_import_leaves_process_pools_unloaded():
    # the frame loader imports them only when it starts a pool
    probe = (
        "import sys, gaitpass.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
