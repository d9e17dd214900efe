"""The library's public surface: every public top-level function or class in
``src/gelfand``, and every method or property of such a class, is used by
the library or the benchmark harness, or is kept for the ROADMAP item that
will call it.

A top-level name counts as used when ``src/gelfand`` or ``perfbench``
reads it outside its own definition: as a name that ``symtable`` resolves
as global in its scope, as ``module.name``, as an imported alias, or as an
identifier string in ``perfbench`` (``perfbench/spans.py`` names the
functions it wraps as strings).  A method or property counts as used when
it is read as an attribute of anything, or named by such a string.  A local
variable, a config key or an attribute that merely shares the name is not a
use.  A helper that only tests call belongs in the test that uses it.
"""

import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gelfand"
BENCH = ROOT / "perfbench"
USERS = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
_IDENT = re.compile(r"[A-Za-z_]\w*\Z")
_COMPREHENSIONS = {ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                   ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}

KEEP = {
    # the paper's objects that a ROADMAP item will give a CLI caller
    "fock.RegularFunction": "the paper's regular functions on the Heisenberg group: ROADMAP item 4",
    "fock.regular_gram": "Gram matrix of the regular functions: ROADMAP item 4",
    "nilpf.plancherel_density": "the Plancherel density |Pf(b_t)|: ROADMAP item 6",
    "symmpair.build_symmetric_pair": "restricted root data of the rank-one suite: ROADMAP item 2",
    "symmpair.cartan_helgason_filter":
        "class-1 weights of the rank-one and branching suites: ROADMAP items 2 and 10",
}
_ROADMAP_ITEMS = re.compile(r"ROADMAP items? (\d+(?:(?:, | and )\d+)*)\Z")


def _public_definitions():
    """{"module.name": (path, first line, last line)} for each public
    top-level function or class, and {"module.Class.name": ...} for each
    method or property of a public class that is not on KEEP, dunders aside
    (the methods of a kept class are kept with it)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
                key = f"{path.stem}.{node.name}"
                out[key] = (path, node.lineno, node.end_lineno)
                if isinstance(node, ast.ClassDef) and key not in KEEP:
                    for item in node.body:
                        if isinstance(item, functions) and not item.name.startswith("__"):
                            out[f"{key}.{item.name}"] = (path, item.lineno, item.end_lineno)
    return out


def _scope_split(node):
    """(nodes evaluated outside, nodes evaluated inside, symtable name) for
    a node that opens a scope; None for any other node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        outside = [*args.defaults, *filter(None, args.kw_defaults),
                   *(p.annotation for p in params if p and p.annotation)]
        if isinstance(node, ast.Lambda):
            return outside, [node.body], "lambda"
        return [*node.decorator_list, *outside, *filter(None, [node.returns])], node.body, node.name
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords], node.body, node.name
    if isinstance(node, tuple(_COMPREHENSIONS)):
        first, *rest = node.generators
        inside = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        inside += [first.target, *first.ifs, *rest]
        return [first.iter], inside, _COMPREHENSIONS[type(node)]
    return None


def _global_loads(nodes, table):
    """(line, name) for each load of a name that ``table``'s scope, or the
    scope nested in it, resolves as global."""
    children = {}
    for child in table.get_children():
        children.setdefault((child.get_name(), child.get_lineno()), []).append(child)

    def visit(node):
        split = _scope_split(node)
        if split is not None:
            outside, inside, name = split
            for part in outside:
                yield from visit(part)
            yield from _global_loads(inside, children[name, node.lineno].pop(0))
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            try:
                resolved = table.lookup(node.id).is_global()
            except KeyError:  # an annotation, kept out of symtable by PEP 563
                resolved = True
            if resolved:
                yield node.lineno, node.id
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    for node in nodes:
        yield from visit(node)


def _references():
    """[(path, line, name, reads_top_level, reads_member)] for every global
    name load, attribute, imported alias and perfbench identifier string in
    the library and the benchmark harness."""
    out = []
    for path in USERS:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        for line, name in _global_loads(tree.body, symtable.symtable(text, str(path), "exec")):
            out.append((path, line, name, True, False))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                module = getattr(base, "id", getattr(base, "attr", None)) in MODULES
                out.append((path, node.lineno, node.attr, module, True))
            elif isinstance(node, ast.alias):
                out.append((path, 0, node.name.rpartition(".")[2], True, False))
            elif (path.parent == BENCH and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and _IDENT.match(node.value)):
                out.append((path, node.lineno, node.value, True, True))
    return out


def _unreferenced(defs):
    by_name = {}
    for key, span in defs.items():
        by_name.setdefault(key.rpartition(".")[2], []).append((key, span))
    used = set()
    for path, line, name, top_level, member in _references():
        for key, (dpath, first, last) in by_name.get(name, ()):
            if (member if key.count(".") == 2 else top_level) and not (
                    path == dpath and first <= line <= last):
                used.add(key)
    return sorted(set(defs) - used)


def test_every_public_name_has_a_caller_or_a_reason():
    unused = [key for key in _unreferenced(_public_definitions()) if key not in KEEP]
    assert unused == [], (
        "public names with no caller in src/ or perfbench/: move each into the "
        "test that uses it, or add it to KEEP with a reason")


def test_keep_list_names_exist():
    defs = _public_definitions()
    assert sorted(k for k in KEEP if k not in defs) == []
    assert all(reason.strip() for reason in KEEP.values())


def test_every_keep_reason_names_its_roadmap_item():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    items = set(re.findall(r"^- \*\*(\d+)\. ", roadmap, re.MULTILINE))
    for name, reason in KEEP.items():
        named = _ROADMAP_ITEMS.search(reason)
        assert named, f"{name}: the reason names no ROADMAP item"
        assert set(re.findall(r"\d+", named.group(1))) <= items, name


def test_keep_list_holds_only_unreferenced_names():
    unused = set(_unreferenced(_public_definitions()))
    assert sorted(k for k in KEEP if k not in unused) == [], (
        "these names have a caller in src/ or perfbench/: drop them from KEEP")


def test_a_local_that_shares_a_name_is_not_a_reference():
    # a parameter, a local and a comprehension variable named like public
    # functions are no reference to them; the global call and the default
    # (read in the enclosing scope) are
    text = ("def f(rank, n=size):\n"
            "    gram = rank\n"
            "    return [rho for rho in gram], helper(gram, lambda x: x + rho)\n")
    loads = list(_global_loads(ast.parse(text).body, symtable.symtable(text, "t", "exec")))
    assert sorted(loads) == [(1, "size"), (3, "helper"), (3, "rho")]
