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


def _check_constraints(constraints: str, r: int, s: int | None):
    env = {"r": r, "s": s}
    for clause in constraints.split(";"):
        clause = clause.strip()
        if not clause or clause == "-":
            continue
        m = re.fullmatch(r"([rs])\s*(>=|!=|==)\s*([rs]|\d+)", clause)
        if m:
            left = env[m.group(1)]
            right = env[m.group(3)] if m.group(3) in env else int(m.group(3))
            if left is None or right is None:
                raise ValueError(f"constraint {clause!r} needs a second rank")
            if not _COMPARISONS[m.group(2)](left, right):
                raise ValueError(f"rank constraint violated: {clause} with r={r}, s={s}")
            continue
        m = re.fullmatch(r"([rs])\s+(odd|even)", clause)
        if m:
            val = env[m.group(1)]
            if val is None:
                raise ValueError(f"constraint {clause!r} needs a second rank")
            if val % 2 != (m.group(2) == "odd"):
                raise ValueError(f"rank constraint violated: {clause}")
            continue
        raise ValueError(f"unparseable constraint {clause!r}")


def _parse_factor(token: str, r: int, s: int | None):
    """(factors, quotiented): the factors a token names, and whether their
    determinant characters are quotiented together (SU, S(U x U))."""
    token = token.strip()
    if token == "U1":
        return [Factor(U1)], False
    m = re.fullmatch(r"(SU|U|SO|Sp)\((\w+)\)", token)
    if m:
        name, arg = m.group(1), m.group(2)
        size = {"r": r, "s": s}.get(arg)
        if size is None:
            size = int(arg)
        return [Factor({"SU": GL, "U": GL, "SO": SO, "Sp": SP}[name], size)], name == "SU"
    m = re.fullmatch(r"S\(U\((\w+)\)xU\((\w+)\)\)", token)
    if m:
        sizes = []
        for arg in m.groups():
            size = {"r": r, "s": s}.get(arg)
            sizes.append(int(arg) if size is None else size)
        return [Factor(GL, sizes[0]), Factor(GL, sizes[1])], True
    raise ValueError(f"unparseable factor {token!r}")


def group_datum(row_id: str, rank: int, rank2: int | None = None) -> GroupDatum:
    """Instantiate a kac/jaw row at concrete rank(s), once; a bad row or rank
    raises on every call, a bool rank before the cache (True hashes as 1)."""
    if bool in (type(rank), type(rank2)):
        raise ValueError(f"a rank is an int, not {rank!r}, {rank2!r}")
    return _group_datum(row_id, rank, rank2)


@lru_cache(maxsize=None)
def _group_datum(row_id, rank, rank2):
    row = registry().get(row_id)
    if row is None:
        raise KeyError(f"unknown table row {row_id!r}")
    if row_id.startswith("vin:"):
        raise ValueError("flat-algebra rows resolve through algebra(), not group_datum()")
    _check_constraints(row.constraints, rank, rank2)
    factors, quotient = [], []
    for token in row.factor_spec.split(","):
        new, quotiented = _parse_factor(token, rank, rank2)
        if quotiented:
            quotient.append(tuple(range(len(factors), len(factors) + len(new))))
        factors += new
    tag, _, idxs = row.construction_spec.partition(":")
    args = tuple(int(x) for x in idxs.split(",")) if idxs else ()
    return GroupDatum(tuple(factors), Construction(tag, args), tuple(quotient))


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
