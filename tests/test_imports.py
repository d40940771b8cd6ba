"""Import hygiene: what a chordscan process loads, and imports left unused."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chordscan

PACKAGE = Path(chordscan.__file__).parent
TESTS = Path(__file__).parent


def test_cli_does_not_load_scipy_optimize():
    """Only first_zero_along needs brentq; the CLI's start-up must not pay for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = "import chordscan.cli, sys; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    """Every module but the package's re-exporting __init__, and every test file."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(TESTS.glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []
