"""Every public name of the library has a user outside the unit tests.

The checks read the AST of ``src/varifoldlab`` and look for uses in
``src/``, ``scripts/``, ``perfbench/`` and ``tests/test_acceptance.py``.
Strings in ``scripts/`` and ``perfbench/`` count as uses, because the
benchmark's hooks name their targets as strings.

- A public module-level function or class is used when its bare name
  appears outside its own definition. ``__all__`` entries and package
  re-exports are not uses.
- A public method or property is used only through an attribute access.
  An access qualified by an imported module (``np.empty``) or by another
  public class (``DiscreteVarifold.empty``) does not count.
- Every defaulted parameter of a public function or method is passed, by
  keyword or by position, at some call of its name. A call that unpacks
  ``*args`` or ``**kwargs`` counts as passing every parameter.
- Every field of a public dataclass or NamedTuple is read as an attribute
  outside its ``__post_init__``, unless the class emits its fields through
  ``asdict(self)``.

Uses are matched by name, so two definitions that share a name share
their uses. A name that only unit tests reach is given a user or deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varifoldlab"

# name -> why it stays without a user
KEPT = {
    "quasimin.semicontinuity_check":
        "the paper's mass upper-semicontinuity hypothesis; ROADMAP item 8 wires it "
        "into the pipeline or deletes it",
    "quasimin.qm_gap(detail)":
        "the Lipschitz term of the detailed result, which ROADMAP item 6 reads",
    **{f"quasimin.QMGapResult.{name}":
       "the detailed QM gap, whose Lipschitz term ROADMAP item 6 reads"
       for name in ("source_measure", "image_measure", "gauge_term", "lipschitz",
                    "moved_pieces")},
    **{f"quasimin.SemicontinuityReport.{name}":
       "the semicontinuity table, which ROADMAP item 8 wires in or deletes"
       for name in ("open_rows", "compact_rows", "lower_semicontinuity_pass",
                    "upper_bound_pass", "c_const", "tol")},
    "sets.SimplicialSet.diagnostics":
        "restrict's documented clip diagnostics, which ROADMAP item 12 puts in reports",
}


def _sources():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


TREES = [(path, ast.parse(path.read_text(), filename=str(path))) for path in _sources()]
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
PUBLIC_CLASSES = {node.name for path, tree in TREES if path.parent == PACKAGE
                  for node in tree.body
                  if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}


def _is_record(cls):
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def _emits_asdict(cls):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "asdict"
               and n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
               for n in ast.walk(cls))


def _definitions():
    """(path, kind, qualified name, node, class) of each public module-level
    function or class, each public method or property of a public class
    and each field of a public record class; kind is "name", "method" or
    "field"."""
    for path, tree in TREES:
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qual = f"{path.stem}.{node.name}"
            yield path, "name", qual, node, None
            if not isinstance(node, ast.ClassDef):
                continue
            record = _is_record(node) and not _emits_asdict(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield path, "method", f"{qual}.{item.name}", item, node
                elif (record and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    yield path, "field", f"{qual}.{item.target.id}", item, node


def _module_names(tree):
    """The names that import statements bind to modules in a tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {a.asname or a.name for a in node.names if a.name in MODULES}
    return names


def _qualifier(node, modules):
    """"module" when an attribute access is qualified by an imported
    module, the name when it is qualified by a bare name, else None."""
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    if isinstance(value, ast.Name) and value.id in modules:
        return "module"
    return node.value.id if isinstance(node.value, ast.Name) else None


def _uses():
    """(path, line, bare name, kind, qualifier) of every name, attribute
    read and, outside the package, every dotted-identifier string; kind is
    "name", "attribute" or "string"."""
    for path, tree in TREES:
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id, "name", None
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield path, node.lineno, node.attr, "attribute", _qualifier(node, modules)
            elif (path.parent != PACKAGE and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                for part in node.value.split("."):
                    if part.isidentifier():
                        yield path, node.lineno, part, "string", None


def _calls():
    """(path, line, called name, positional count, keyword names, whether
    the arguments are unpacked) of every call by name or attribute."""
    for path, tree in TREES:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            yield (path, node.lineno, name, len(node.args), {k.arg for k in node.keywords},
                   unpacked)


def _outside(path, line, def_path, node):
    return path != def_path or not node.lineno <= line <= node.end_lineno


def _post_init(cls):
    return next((item for item in cls.body if isinstance(item, ast.FunctionDef)
                 and item.name == "__post_init__"), None)


def _counts(kind, cls, use):
    """Whether a use of its name counts for a definition of the given kind."""
    _, _, _, use_kind, qualifier = use
    if kind == "name" or use_kind == "string":
        return True
    return (use_kind == "attribute" and qualifier != "module"
            and (qualifier == cls.name or qualifier not in PUBLIC_CLASSES))


def unused_public_names(kinds=("name", "method", "field")):
    """The definitions of the given kinds that no use counts for."""
    uses = {}
    for use in _uses():
        uses.setdefault(use[2], []).append(use)
    unused = []
    for path, kind, qual, node, cls in _definitions():
        if kind not in kinds:
            continue
        if kind == "field":
            name, skip = node.target.id, _post_init(cls)
        else:
            name, skip = node.name, node
        if not any(_counts(kind, cls, use)
                   and (skip is None or _outside(use[0], use[1], path, skip))
                   for use in uses.get(name, ())):
            unused.append(qual)
    return sorted(unused)


def _optional_parameters(node, method):
    """(name, position or None) of each defaulted parameter of a function;
    a method's positions do not count its first parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    skip = 1 if method and not static else 0
    for i, a in enumerate(positional[len(positional) - len(args.defaults):],
                          start=len(positional) - len(args.defaults)):
        yield a.arg, i - skip
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def unpassed_parameters():
    calls = {}
    for call in _calls():
        calls.setdefault(call[2], []).append(call)
    unpassed = []
    for path, kind, qual, node, cls in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        sites = [c for c in calls.get(node.name, ()) if _outside(c[0], c[1], path, node)]
        for param, position in _optional_parameters(node, kind == "method"):
            if not any(unpacked or param in keywords
                       or (position is not None and count > position)
                       for _, _, _, count, keywords, unpacked in sites):
                unpassed.append(f"{qual}({param})")
    return sorted(unpassed)


def test_every_public_name_has_a_user():
    assert [q for q in unused_public_names(("name", "method")) if q not in KEPT] == []


def test_every_optional_parameter_is_passed():
    assert [q for q in unpassed_parameters() if q not in KEPT] == []


def test_every_field_is_read():
    assert [q for q in unused_public_names(("field",)) if q not in KEPT] == []


def test_kept_names_are_still_unused():
    # a kept name that gained a user leaves the list
    assert sorted(set(KEPT) - set(unused_public_names()) - set(unpassed_parameters())) == []
