"""Every public name of the library has a user outside the unit tests.

A public function, class, method or property of ``src/varifoldlab`` counts
as used when its name appears, outside its own definition, in ``src/``,
``scripts/``, ``perfbench/`` (whose hooks name their targets as strings)
or ``tests/test_acceptance.py``. ``__all__`` entries and package re-exports
are not uses. The match is by bare name, so two methods that share a name
share their uses; the test can miss an unused name but never flags a used
one. A name that only unit tests call is either given a caller or deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varifoldlab"

# name -> why it stays without a caller
KEPT = {
    "quasimin.semicontinuity_check":
        "the paper's mass upper-semicontinuity hypothesis; ROADMAP item 8 wires it "
        "into the pipeline or deletes it",
}


def _sources():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def _definitions(tree, module):
    """(qualified name, bare name, first line, last line) of each public
    module-level function or class and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _uses(tree, count_strings):
    """(bare name, line) of every name, attribute and, if asked, every
    dotted-identifier string in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (count_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            for part in node.value.split("."):
                if part.isidentifier():
                    yield part, node.lineno


def unused_public_names():
    defs, uses = [], []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            defs += [(path, *d) for d in _definitions(tree, path.stem)]
        uses += [(path, *u) for u in _uses(tree, path.parent != PACKAGE)]
    used = {}
    for path, name, line in uses:
        used.setdefault(name, []).append((path, line))
    return sorted(
        qual for path, qual, name, first, last in defs
        if not any(p != path or not first <= line <= last for p, line in used.get(name, ())))


def test_every_public_name_has_a_user():
    assert [q for q in unused_public_names() if q not in KEPT] == []


def test_kept_names_are_still_unused():
    # a kept name that gained a caller leaves the list
    assert sorted(set(KEPT) - set(unused_public_names())) == []
