"""Import hygiene: what a chordscan process loads, and imports left unused."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chordscan

PACKAGE = Path(chordscan.__file__).parent
TESTS = Path(__file__).parent


def test_cli_loads_no_scipy_module():
    """scipy serves the acceptance battery, the ray zero and the tests, which
    import it where they call it; importing it would add ~0.4 s to every
    chordscan process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("import chordscan.cli, sys; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
