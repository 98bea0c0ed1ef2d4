"""Every module-level import in the package source is used, the package
itself imports no module, no module imports scipy's clustering, and
importing the CLI loads no process-pool machinery and no scipy submodule."""

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
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def imported_modules(path):
    """Every module an import statement in ``path`` names, at any depth;
    ``from a import b`` names both ``a`` and ``a.b``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def test_no_module_imports_scipy_clustering():
    # scipy's clustering is a test oracle only: pssa orders its heatmap in
    # numpy and hca links columns over scipy's k-d tree
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name in imported_modules(path)
        if name == "scipy.cluster" or name.startswith("scipy.cluster.")
    ]
    assert found == []


def loaded_after(statement, prefixes):
    """The modules under ``prefixes`` that ``statement`` leaves in
    ``sys.modules`` of a fresh interpreter."""
    probe = (
        f"import sys; {statement}; "
        f"print(' '.join(sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {prefixes!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return set(result.stdout.split())


def test_cli_import_leaves_process_pools_unloaded():
    # the frame loader imports them only when it starts a pool
    loaded = loaded_after("import gaitpass.cli", ("multiprocessing", "concurrent"))
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}


def test_cli_import_loads_no_scipy_submodule():
    # hca imports scipy's k-d tree where it links; the CLI imports scipy
    # itself only for the manifest's version string
    bare = loaded_after("import scipy", ("scipy",))
    assert "scipy" in bare
    assert loaded_after("import gaitpass.cli", ("scipy",)) == bare


def test_ingest_import_loads_only_ingest_and_errors():
    # the package's __init__ re-exports nothing, so a reader of one file
    # format does not load the whole pipeline
    loaded = loaded_after("import gaitpass.ingest", ("gaitpass",))
    assert loaded == {"gaitpass", "gaitpass.ingest", "gaitpass.errors"}
