"""The package namespace re-exports the public error hierarchy, and no
module imports a name it does not use."""
import ast
import inspect
from pathlib import Path

import irs_sensing
from irs_sensing import errors


def test_every_sensing_error_is_exported():
    defined = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SensingError)
               and cls.__module__ == errors.__name__]
    missing = [cls.__name__ for cls in defined
               if getattr(irs_sensing, cls.__name__, None) is not cls]
    assert len(defined) > 1
    assert not missing, f"not importable from irs_sensing: {missing}"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references, as ``path:line: name``."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    """Every module of the package, the tests and the scripts, bar the
    package's ``__init__.py``, whose imports are its exports."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src/irs_sensing", "tests", "scripts")
             for path in sorted((root / folder).glob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    unused = [hit for path in paths
              for hit in _unused_imports(path.relative_to(root))]
    assert not unused, unused
