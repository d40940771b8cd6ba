"""Import hygiene: what a chordscan process loads, and imports left unused."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chordscan

PACKAGE = Path(chordscan.__file__).parent
TESTS = Path(__file__).parent


def _fresh_modules(code: str, prefix: str) -> str:
    """The sorted loaded modules named ``prefix`` or ``prefix.*`` after
    ``code`` runs in a fresh interpreter, as printed text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code += ("; import sys; print(sorted(m for m in sys.modules "
             f"if m == {prefix!r} or m.startswith({prefix + '.'!r})))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_loads_no_scipy_module():
    """scipy serves the acceptance battery, the ray zero and the tests, which
    import it where they call it; importing it would add ~0.4 s to every
    chordscan process."""
    assert _fresh_modules("import chordscan.cli", "scipy") == "[]"


def test_verify_loads_no_scipy_optimize():
    """The battery reads the mean-ray zero off ``nodal_radii``; only
    ``first_zero_along``, which it does not call, imports scipy.optimize."""
    code = "from chordscan import acceptance; acceptance.run_all(report=None)"
    assert _fresh_modules(code, "scipy.optimize") == "[]"


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
