"""Source hygiene: every top-level import of the package is used."""

import ast
from pathlib import Path

import nilconv

SOURCES = sorted(Path(nilconv.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list:
    """Names bound by top-level imports of one module that nothing in it reads.

    A name counts as read when it occurs as a name anywhere in the module or
    is listed in its __all__.  An import line marked `# noqa: F401` is a
    deliberate re-export and is exempt; `from __future__` imports are too.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                out.append(f"{path.name}:{alias.lineno}: {name}")
    return out


def test_no_unused_top_level_imports():
    assert len(SOURCES) > 5
    unused = [u for path in SOURCES for u in _unused_imports(path)]
    assert not unused, unused
