"""The integer root tables: each (family, rank) built once, by one builder,
against a Fraction oracle; the zero-set tables shared by every lattice
scale; nothing built at import; and the rank refused before the cache."""

import subprocess
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest

from gelfand import charring, rootsys

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gelfand"
SYSTEMS = [(f, r) for f in "ABC" for r in range(1, 9)] + [("D", r) for r in range(2, 9)]


def _vec(n, entries):
    """The vector of Q^n with the given {index: value} entries, zero elsewhere."""
    v = [Fraction(0)] * n
    for i, x in entries.items():
        v[i] = Fraction(x)
    return tuple(v)


def _fraction_oracle(family, rank):
    """(ambient dim, simple roots, positive roots, fundamental weights) as
    vectors of Fractions, one family pattern written out with ``_vec``."""
    n = rank + 1 if family == "A" else rank
    signs = (-1,) if family == "A" else (-1, 1)
    positive = [_vec(n, {i: 1, j: s}) for i in range(n) for j in range(i + 1, n) for s in signs]
    if family in ("B", "C"):
        positive += [_vec(n, {i: 1 if family == "B" else 2}) for i in range(n)]
    last = {"A": {rank - 1: 1, rank: -1}, "B": {rank - 1: 1}, "C": {rank - 1: 2},
            "D": {rank - 2: 1, rank - 1: 1}}[family]
    simple = [_vec(n, {i: 1, i + 1: -1}) for i in range(rank - 1)] + [_vec(n, last)]
    trace = Fraction(1, n) if family == "A" else 0
    funds = [_vec(n, {i: (i < k) - k * trace for i in range(n)}) for k in range(1, rank + 1)]
    spin = dict.fromkeys(range(n), Fraction(1, 2))
    if family == "B":
        funds[-1] = _vec(n, spin)
    elif family == "D":
        funds[-2:] = [_vec(n, {**spin, n - 1: Fraction(-1, 2)}), _vec(n, spin)]
    return n, tuple(simple), tuple(positive), tuple(funds)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _as_ints(vectors):
    assert all(x.denominator == 1 for v in vectors for x in v)
    return tuple(tuple(int(x) for x in v) for v in vectors)


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_fraction_fields_are_the_vec_construction(family, rank):
    rs = rootsys.build_root_system(family, rank)
    n, simple, positive, funds = _fraction_oracle(family, rank)
    assert rs.ambient_dim == n
    for got, want in [(rs.simple_roots, simple), (rs.positive_roots, positive),
                      (rs.fundamental_weights, funds)]:
        assert got == want
        assert all(type(x) is Fraction for v in got for x in v)


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_integer_tables_match_the_fraction_oracle(family, rank):
    rs = rootsys.build_root_system(family, rank)
    n, simple, positive, funds = _fraction_oracle(family, rank)
    roots = _as_ints(positive)
    assert rs.integral_positive_roots == roots
    assert rs.integral_simple_roots == _as_ints(simple)
    # each root's two nonzero entries, a root with one repeating its index
    for ((i, a), (j, b)), alpha in zip(rs.sparse_positive_roots, roots, strict=True):
        nonzero = [(k, x) for k, x in enumerate(alpha) if x]
        assert [(i, a), (j, b)] == (nonzero if len(nonzero) == 2 else nonzero + [(i, 0)])
    two_rho = tuple(sum(col) for col in zip(*roots))
    assert rs.two_rho == two_rho
    assert rs.root_heights == tuple(_dot(two_rho, alpha) for alpha in roots)
    assert rs.weyl_denominator == prod(_dot(two_rho, alpha) for alpha in roots)
    d = lcm(*(x.denominator for v in funds for x in v))
    scaled = _as_ints(tuple(tuple(d * x for x in v) for v in funds))
    assert rs.integral_fundamental_weights == (d, scaled)
    assert rs.fundamental_columns == tuple(zip(*scaled))
    rows = tuple(tuple(_dot(alpha, psi) for psi in simple) for alpha in positive)
    assert rs.pairing_rows == rows
    assert rs.positive_pairings == tuple(tuple((i, c) for i, c in enumerate(row) if c > 0)
                                         for row in rows)
    assert rs.positive_masks == tuple(sum(1 << i for i, c in enumerate(row) if c > 0)
                                      for row in rows)
    # s_i(alpha_k) = alpha_k - <alpha_k, psi_i^vee> psi_i = +-alpha_(pi_i(k))
    assert len(rs.reflections) == rank
    for psi, perm in zip(simple, rs.reflections):
        assert sorted(perm) == list(range(len(positive)))
        for alpha, k in zip(positive, perm, strict=True):
            image = tuple(a - 2 * _dot(alpha, psi) / _dot(psi, psi) * x
                          for a, x in zip(alpha, psi))
            assert image in (positive[k], tuple(-x for x in positive[k]))


def test_the_tables_are_shared_by_the_record_and_charring(cold_caches):
    rs = rootsys.build_root_system("B", 4)
    assert rootsys.build_root_system("B", 4) is rs
    assert rs.reflections is rootsys._tables("B", 4)["reflections"]
    assert rootsys._tables.cache_info().misses == 1


# A5 weights at each lattice scale 6 / gcd(6, 6 lam): 1, 2, 3 and 6
A5_BY_SCALE = {1: [(0, 0, 0, 0, 0), (1, 0, 0, 0, 1), (0, 0, 2, 0, 0), (0, 1, 0, 1, 0)],
               2: [(0, 0, 1, 0, 0), (1, 0, 1, 0, 1), (1, 1, 0, 0, 0)],
               3: [(0, 1, 0, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 2)],
               6: [(1, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 1, 1, 0)]}


def test_each_zero_set_table_is_built_once_for_every_scale(cold_caches):
    rs = rootsys.build_root_system("A", 5)
    for scale, weights in A5_BY_SCALE.items():
        for coeffs in weights:
            w = rootsys.DominantWeight("A", 5, coeffs)
            assert rootsys.weight_lattice(rs, w)[0] == scale
            charring.weight_system(rs, w)
    # the zero sets each scale's Freudenthal passes read
    per_scale = [set(charring._scaled_tables("A", 5, s)[3]) for s in A5_BY_SCALE]
    assert charring._scaled_tables.cache_info().currsize == 4
    zero_sets = set().union(*per_scale)
    info = charring._root_classes.cache_info()
    assert info.misses == info.currsize == len(zero_sets)
    # scales meet at zero sets, and a meeting builds nothing anew
    assert sum(map(len, per_scale)) > len(zero_sets)
    assert info.hits >= sum(map(len, per_scale)) - len(zero_sets)
    assert rootsys._tables.cache_info().misses == 1


def test_import_and_registry_build_no_root_system():
    script = f"""
import sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import gelfand
from gelfand import (charring, cli, dirlim, exact, fock, nilpf, numerics, rootsys,
                     symmpair, tables)
tables.registry()
caches = [rootsys._tables, rootsys.build_root_system, rootsys._lattice,
          charring._scaled_tables, charring._root_classes]
print([cache.cache_info().currsize for cache in caches])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0]\n"


@pytest.mark.parametrize("rank", [True, False, "2", 2.0, 1.5, None, 0, -1, Fraction(2)])
def test_a_rank_that_is_not_an_int_is_refused_before_the_cache(rank, cold_caches):
    with pytest.raises(ValueError, match="int rank"):
        rootsys.build_root_system("A", rank)
    assert rootsys.build_root_system.cache_info().currsize == 0
    # True used to build A1 and file it under the key of 1
    rs = rootsys.build_root_system("A", 1)
    assert type(rs.rank) is int and rs.rank == 1


def test_d_needs_rank_two_and_the_family_is_checked_first():
    with pytest.raises(ValueError, match="D needs an int rank >= 2"):
        rootsys.build_root_system("D", 1)
    with pytest.raises(ValueError, match="unsupported family"):
        rootsys.build_root_system("E", True)
