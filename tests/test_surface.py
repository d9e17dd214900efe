"""The library's public surface: every public top-level function or class in
``src/gelfand``, and every method or property of such a class, is used by
the library or the benchmark harness, or is kept on purpose.

A name counts as used when it appears anywhere in ``src/gelfand`` or
``perfbench`` outside its own definition: as a name, an attribute, an
imported alias, or an identifier string (``perfbench/spans.py`` names the
functions it wraps as strings).  A helper that only tests call belongs in
the test that uses it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gelfand"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
_IDENT = re.compile(r"[A-Za-z_]\w*\Z")

KEEP = {
    # the paper's objects
    "fock.matrix_coefficient": "the paper's matrix coefficients of the Fock model",
    "fock.RegularFunction": "the paper's regular functions on the Heisenberg group",
    "fock.regular_gram": "Gram matrix of the regular functions",
    "dirlim.apply_zeta": "the paper's map zeta_{m,n}",
    "dirlim.zeta_scale": "the rescaling of zeta_{m,n}",
    "dirlim.eta_scale": "the comparison into the square-integrable completion",
    "dirlim.backend_restrict": "the restriction a ladder's backend applies",
    "nilpf.plancherel_density": "the Plancherel density |Pf(b_t)|",
    "dirlim.ladder_from_json": "reader of the export-ladder output",
    # file formats and planned callers
    "nilpf.dump_algebra": "writer of the --algebra FILE format that load_algebra reads",
    "symmpair.build_symmetric_pair": "restricted root data for the compact rank-one suite",
    "symmpair.cartan_helgason_filter": "class-1 weights for the compact rank-one suite",
}


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


def _references():
    """[(path, line, name)] for every name, attribute, imported alias and
    identifier string in the library and the benchmark harness."""
    out = []
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _IDENT.match(node.value)):
                name = node.value
            else:
                continue
            out.append((path, getattr(node, "lineno", 0), name))
    return out


def _unreferenced(defs):
    by_name = {}
    for key, span in defs.items():
        by_name.setdefault(key.rpartition(".")[2], []).append((key, span))
    used = set()
    for path, line, name in _references():
        for key, (dpath, first, last) in by_name.get(name, ()):
            if not (path == dpath and first <= line <= last):
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


def test_keep_list_holds_only_unreferenced_names():
    unused = set(_unreferenced(_public_definitions()))
    assert sorted(k for k in KEEP if k not in unused) == [], (
        "these names have a caller in src/ or perfbench/: drop them from KEEP")
