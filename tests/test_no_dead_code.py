"""Every function, class, method and module-level constant of the package
has a caller.

A definition counts as used when code in `src/` or `perfbench/` names it, as
a bare name or as an attribute, outside the definition itself. A constant is
a module-level name in capitals, such as `Z_MIN` or `_EYE3`. Dunder methods
and names, which Python reads itself, are exempt. Tests do not
count, the benchmark's `perfbench/test_*.py` included: a helper only the
tests call belongs in `tests/`. Nor does a `perfbench/` reference to a name
that `perfbench/` defines itself: `checks.pose_error` there is not a call of
`geometry.pose_error`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "screloc"

ALLOWED = {
    "reprojection_nll_batch": "the mapping objective for posed views, which mapping will call",
    "NovelSceneBuffer.record_poses": "the per-record cameras that reprojection_nll_batch needs",
    "save_map_code": "writes a fitted map code, the artifact a mapped scene ships as",
    "load_map_code": "reads back what save_map_code writes",
    "rotation_about_axis": "the benchmark's own tests call it, and they may not change",
    "pose_error": "the relocalization metric that reloc from predicted coordinates will report",
}


def _referenced(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module, wanted):
    """(qualified name, name, node) of each top-level function, class and
    constant and of each method of a top-level class whose name `wanted`
    accepts; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if wanted(node.name):
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and wanted(item.name):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and wanted(target.id):
                    yield target.id, target.id, node


def _unreferenced(wanted) -> set[str]:
    """Qualified names of the package's definitions that `wanted` accepts and
    that nothing references outside their own definition."""
    package = sorted(PACKAGE.glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in package + bench}
    bench_defined = {node.name for path in bench for node in ast.walk(trees[path])
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    everywhere = sum((_referenced(trees[path]) for path in package), Counter())
    for path in bench:
        everywhere.update({name: n for name, n in _referenced(trees[path]).items()
                           if name not in bench_defined})
    return {qualname
            for path in package
            for qualname, name, node in _definitions(trees[path], wanted)
            if everywhere[name] == _referenced(node)[name]}


def test_every_public_definition_in_the_package_has_a_reference():
    unused = _unreferenced(_is_public)
    assert sorted(unused - set(ALLOWED)) == [], "public definitions without a reference"
    assert sorted(set(ALLOWED) - unused) == [], "allowed names that now have a reference"


def test_every_private_helper_and_method_in_the_package_has_a_reference():
    assert sorted(_unreferenced(_is_private)) == [], "private definitions without a reference"
