import ast
from pathlib import Path

import screloc


def test_only_binio_imports_struct():
    """Byte packing lives in one module: every file format goes through binio."""
    offenders = []
    for path in sorted(Path(screloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "struct" in names and path.name != "binio.py":
                offenders.append(path.name)
    assert offenders == []
