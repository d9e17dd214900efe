"""The library's record classes: equality, hash, repr and immutability as a
frozen dataclass over the same fields would give them, and a package import
that generates no code."""

import ast
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gelfand import charring, cli, dirlim, fock, nilpf, numerics, rootsys, symmpair, tables
from gelfand.exact import MultiPoly, Record

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gelfand"
_MATRIX = np.eye(2)

# class -> (field names in declaration order, the field values of one record)
RECORDS = {
    charring.Factor: (("kind", "size"), (charring.GL, 3)),
    charring.Construction: (("tag", "args", "parts"), ("standard", (0,), ())),
    charring.GroupDatum: (("factors", "construction", "quotient"),
                          ((charring.Factor(charring.GL, 2),),
                           charring.Construction("standard", (0,)), ((0,),))),
    charring.Decomposition: (("entries", "dimension"), ((((((1, 0),), 1),), 2))),
    rootsys.RootSystemData: (("family", "rank", "ambient_dim", "simple_roots",
                              "positive_roots", "fundamental_weights"),
                             ("A", 1, 2, ((Fraction(1), Fraction(-1)),),
                              ((Fraction(1), Fraction(-1)),),
                              ((Fraction(1, 2), Fraction(-1, 2)),))),
    rootsys.DominantWeight: (("family", "rank", "coeffs"), ("A", 2, (1, 0))),
    cli.Case: (("case_id", "status", "expected", "actual", "tolerance", "runtime_ms"),
               ("c", "pass", "1", "1", "exact", None)),
    cli.VerificationReport: (("suite", "anchor", "cases", "config"),
                             ("gamma", "a", [], {"seed": 0})),
    dirlim.DegreeLadder: (("backend", "levels", "degrees", "csq_pairs"),
                          ("sphere", (1, 2), {1: Fraction(2), 2: Fraction(3)},
                           {(2, 1): Fraction(1, 2)})),
    dirlim.LadderedFunction: (("backend", "level", "coeffs", "scale_sq"),
                              ("sphere", 2, ((0, Fraction(1)),), Fraction(1))),
    fock.HeisenbergPoint: (("z", "w"), (0.5, (1 + 2j,))),
    fock.FockOperator: (("matrix",), (_MATRIX,)),
    fock.RegularFunction: (("n", "terms"), (1, ((((0,), (0,)), (Fraction(1),)),))),
    nilpf.TwoStepAlgebra: (("dim_v", "dim_z", "brackets"), (2, 1, (((0, 1), (1,)),))),
    nilpf.PfaffianPolynomial: (("poly",), (MultiPoly.const(1, 1),)),
    symmpair.RestrictedPairData: (("family_id", "rank", "restricted_type", "simple_roots",
                                   "positive_roots", "doubled_indices", "class_one_weights"),
                                  (1, 1, "A", (), (), frozenset({0}), ())),
    symmpair.HarmonicSpace: (("ambient_dim", "degree", "basis"), (2, 0, ())),
    numerics.Tolerances: (("quadrature_agreement", "exact_identity", "truncated_operator",
                           "unitarity", "orthogonality", "formal_degree"),
                          (1e-8, 1e-10, 1e-6, 1e-8, 1e-8, 1e-6)),
    tables.TableRow: (("identifier", "factor_spec", "construction_spec", "constraints"),
                      ("kac:1", "U(r)", "standard:0", "r>=1")),
}


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_class_is_listed():
    found = {cls for mod in (charring, cli, dirlim, fock, nilpf, numerics, rootsys, symmpair,
                             tables)
             for cls in vars(mod).values()
             if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == mod.__name__}
    assert found == set(RECORDS)
    assert len(found) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_the_frozen_dataclass_behaviour(cls):
    names, values = RECORDS[cls]
    x, twin = cls(*values), cls(**dict(zip(names, values)))
    assert cls._fields == names
    assert tuple(getattr(x, n) for n in names) == values
    assert x == twin and not x != twin
    # == holds only within one class: not against the bare field tuple, nor
    # against a record of another class
    assert x != values
    assert all(x != cls2(*v) for cls2, (_, v) in RECORDS.items() if cls2 is not cls)
    pairs = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(x) == f"{cls.__qualname__}({pairs})"
    if _hashable(values):
        assert hash(x) == hash(twin) == hash(values)
        assert {x: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(x)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, n) for n in names) == values


def test_cached_values_leave_hash_and_equality_alone():
    rs = rootsys.build_root_system("B", 3)
    fields = tuple(getattr(rs, n) for n in rs._fields)
    before = hash(rs)
    assert rs.weyl_denominator and rs.two_rho
    assert hash(rs) == before == hash(fields)
    assert rs == rootsys.RootSystemData(*fields)


def test_a_record_pickles_as_its_fields():
    # the hash memo stays behind: another interpreter seeds its string
    # hashes anew, so a memo carried over would misfile the record in a dict
    for cls, (names, values) in RECORDS.items():
        if not _hashable(values):
            continue
        x = cls(*values)
        assert hash(x) == hash(values)
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is cls and y == x and "_hash" not in vars(y)
        assert hash(y) == hash(values)


def test_report_cases_serialize_by_field():
    # a hashed case keeps its hash memo in __dict__; the JSON report reads
    # the fields, so the memo never reaches it
    report = cli.run_suite("carcano", dict(cli.DEFAULTS))
    assert all(hash(c) == hash(c._values(c)) and "_hash" in vars(c) for c in report.cases)
    golden = PACKAGE.parents[1] / "tests" / "golden" / "carcano.json"
    assert cli.emit_report(report, "json") == golden.read_text(encoding="utf-8")


def test_no_module_but_exact_calls_object_setattr():
    # every record writes its fields through Record._store, so how a frozen
    # field is stored is decided in exact.py alone
    callers = {
        path.name for path in PACKAGE.glob("*.py") if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"}
    assert callers == set()


def test_package_import_generates_no_code():
    # a fresh interpreter: fractions and numpy are imported first, since
    # their own import compiles generated code (decimal's named tuple)
    script = f"""
import sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import fractions, numpy
generated = []
def audit(event, args):
    code = args[0] if event == "exec" else None
    name = args[1] if event == "compile" else getattr(code, "co_filename", "")
    if event in ("compile", "exec") and not str(name).endswith(".py"):
        generated.append(str(name))
sys.addaudithook(audit)
import gelfand
from gelfand import (charring, cli, dirlim, exact, fock, nilpf, numerics, rootsys,
                     symmpair, tables)
tables.registry()
print(generated, "dataclasses" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False\n"
