"""Row registry: stable string identifiers for the group-action rows and the
nilpotent-algebra families, resolved from the data file shipped with the
package."""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from . import nilpf
from .charring import GL, SO, SP, U1, Construction, Factor, GroupDatum
from .exact import Record


class TableRow(Record):
    def __init__(self, identifier: str, factor_spec: str, construction_spec: str, constraints: str):
        object.__setattr__(self, "identifier", identifier)
        object.__setattr__(self, "factor_spec", factor_spec)
        object.__setattr__(self, "construction_spec", construction_spec)
        object.__setattr__(self, "constraints", constraints)


@lru_cache(maxsize=None)
def registry():
    """The data file's rows, {identifier: TableRow}, read once: one shared read-only view."""
    text = resources.files("gelfand.data").joinpath("table_rows.txt").read_text()
    rows = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise ValueError(f"malformed table row: {line!r}")
        rows[parts[0]] = TableRow(*parts)
    return MappingProxyType(rows)


_COMPARISONS = {">=": operator.ge, "!=": operator.ne, "==": operator.eq}


def _parity(value, odd):
    return value % 2 == odd


@lru_cache(maxsize=None)
def _constraint_clauses(constraints: str):
    """The clauses of a constraint spec, parsed once: (clause, rank symbol,
    test, right side), the right side a rank symbol or an int."""
    clauses = []
    for clause in constraints.split(";"):
        clause = clause.strip()
        if not clause or clause == "-":
            continue
        if m := re.fullmatch(r"([rs])\s*(>=|!=|==)\s*([rs]|\d+)", clause):
            clauses.append((clause, m.group(1), _COMPARISONS[m.group(2)], _size(m.group(3))))
        elif m := re.fullmatch(r"([rs])\s+(odd|even)", clause):
            clauses.append((clause, m.group(1), _parity, int(m.group(2) == "odd")))
        else:
            raise ValueError(f"unparseable constraint {clause!r}")
    return tuple(clauses)


def _check_constraints(constraints: str, r: int, s: int | None):
    env = {"r": r, "s": s}
    for clause, left, test, right in _constraint_clauses(constraints):
        left, right = env[left], env.get(right, right)
        if left is None or right is None:
            raise ValueError(f"constraint {clause!r} needs a second rank")
        if not test(left, right):
            ranks = "" if test is _parity else f" with r={r}, s={s}"
            raise ValueError(f"rank constraint violated: {clause}{ranks}")


def _parse_factor(token: str):
    """(kinds, quotiented): (kind, size) per factor a token names, a size
    being a rank symbol or an int, and whether their determinant characters
    are quotiented together (SU, S(U x U))."""
    token = token.strip()
    if token == "U1":
        return [(U1, 0)], False
    if m := re.fullmatch(r"(SU|U|SO|Sp)\((\w+)\)", token):
        return [({"SU": GL, "U": GL, "SO": SO, "Sp": SP}[m[1]], _size(m[2]))], m[1] == "SU"
    if m := re.fullmatch(r"S\(U\((\w+)\)xU\((\w+)\)\)", token):
        return [(GL, _size(arg)) for arg in m.groups()], True
    raise ValueError(f"unparseable factor {token!r}")


def _size(arg: str):
    return arg if arg in ("r", "s") else int(arg)


@lru_cache(maxsize=None)
def _row_spec(row_id: str):
    """A kac/jaw row's specs, parsed once per row: (constraints, (kind,
    size) per factor, quotient groups, construction)."""
    row = registry().get(row_id)
    if row is None:
        raise KeyError(f"unknown table row {row_id!r}")
    if row_id.startswith("vin:"):
        raise ValueError("flat-algebra rows resolve through algebra(), not group_datum()")
    kinds, quotient = [], []
    for token in row.factor_spec.split(","):
        new, quotiented = _parse_factor(token)
        if quotiented:
            quotient.append(tuple(range(len(kinds), len(kinds) + len(new))))
        kinds += new
    tag, _, idxs = row.construction_spec.partition(":")
    args = tuple(int(x) for x in idxs.split(",")) if idxs else ()
    return row.constraints, tuple(kinds), tuple(quotient), Construction(tag, args)


def group_datum(row_id: str, rank: int, rank2: int | None = None) -> GroupDatum:
    """Instantiate a kac/jaw row at concrete rank(s), once; a bad row or rank
    raises on every call, a rank that is not an int (a second rank: nor
    None) before the cache (True hashes as 1, "2" reaches no comparison)."""
    if type(rank) is not int or not (rank2 is None or type(rank2) is int):
        raise ValueError(f"a rank is an int, not {rank!r}, {rank2!r}")
    return _group_datum(row_id, rank, rank2)


@lru_cache(maxsize=None)
def _group_datum(row_id, rank, rank2):
    constraints, kinds, quotient, construction = _row_spec(row_id)
    _check_constraints(constraints, rank, rank2)
    sizes = {"r": rank, "s": rank2}
    factors = tuple(Factor(kind, sizes.get(size, size)) for kind, size in kinds)
    return GroupDatum(factors, construction, quotient)


_ALGEBRA_BUILDERS = {
    "heis": lambda r: nilpf.build_heisenberg(r, "C"),
    "heish": lambda r: nilpf.build_heisenberg(r, "H"),
    "free": nilpf.build_free_two_step,
    "un": nilpf.build_un_type,
}


def algebra(spec: str) -> nilpf.TwoStepAlgebra:
    """Resolve an algebra spec: 'heis:3', 'heish:2', 'free:3', 'un:2',
    'vin:17:2', a '+'-joined direct sum, or a definition-file path."""
    spec = spec.strip()
    if "+" in spec:
        parts = spec.split("+")
        out = algebra(parts[0])
        for p in parts[1:]:
            out = nilpf.direct_sum(out, algebra(p))
        return out
    if spec.startswith("vin:"):
        bits = spec.split(":")
        if len(bits) != 3:
            raise ValueError("flat-algebra table spec is vin:<row>:<rank>")
        row = registry().get(f"vin:{bits[1]}")
        if row is None:
            raise KeyError(f"unknown table row vin:{bits[1]}")
        rank = int(bits[2])
        m = re.fullmatch(r"(\w+)\(r\)", row.factor_spec)
        _check_constraints(row.constraints, rank, None)
        return _ALGEBRA_BUILDERS[m.group(1)](rank)
    m = re.fullmatch(r"([A-Za-z0-9]+):(\d+)", spec)
    if m:
        builder = _ALGEBRA_BUILDERS.get(m.group(1).lower())
        if builder is None:
            raise KeyError(f"unknown algebra family {m.group(1)!r}")
        return builder(int(m.group(2)))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        # a mistyped spec lands here too, so name the known specs with the file
        known = ", ".join(_ALGEBRA_BUILDERS) + ", vin:<row>:<rank>, A+B, or a file path"
        raise KeyError(f"unknown algebra spec {spec!r} (known: {known}): "
                       f"{exc.strerror}") from exc
    return nilpf.load_algebra(text)
