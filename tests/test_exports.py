"""The package's ``__all__`` lists exactly the public names its
``__init__.py`` binds, so a name that a fold removes cannot stay exported and
a new import cannot stay unlisted; and the package imports the standard
library and itself only, as its empty ``dependencies`` list promises."""

import ast
import sys
from pathlib import Path

import expansions


def _bound_public_names() -> set:
    tree = ast.parse(Path(expansions.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_lists_every_public_name_bound_in_the_package():
    assert set(expansions.__all__) == _bound_public_names()
    assert len(expansions.__all__) == len(set(expansions.__all__))


def test_the_package_imports_the_standard_library_and_itself_only():
    # every import and from-import of src/expansions/*.py, at any depth,
    # names __future__, a standard-library module or the package itself
    foreign = []
    for path in sorted(Path(expansions.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["expansions" if node.level else node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in {"__future__", "expansions",
                                                    *sys.stdlib_module_names}]
    assert foreign == []
