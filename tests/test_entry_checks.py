"""Whole-number arguments are checked one way, by ``exact.check_int``.

Each row of ``ROWS`` is an entry point that takes a rank, size, degree,
order, index or dimension, called through a lambda of that one argument.
A bool, a float twin, a str and a value below the bound each raise
``ValueError``, on a cold cache and again with the valid call cached (True
hashes as 1 and 2.0 as 2, so an untyped cache would answer for them), and
the valid call still returns its pinned value.  Checks of matrix shapes,
zero variables and a str read as a number follow the table."""

import ast
import cmath
from fractions import Fraction
from pathlib import Path

import pytest

from gelfand import charring, dirlim, exact, fock, nilpf, numerics, rootsys, symmpair, tables
from gelfand.charring import GL, SO, SP, Construction, Factor, GroupDatum

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gelfand"

_U2_U3 = (Factor(GL, 2), Factor(GL, 3))


def _datum(v, row="kac:2", rank=2):
    return charring.sym_power_decompose(tables.group_datum(row, rank), v).dimension


def _stability(v):
    return charring.check_stability(tables.group_datum("jaw:2", 1),
                                    tables.group_datum("jaw:2", 2), v)[0]


def _rule(rule):
    """A quadrature rule as (point count, total weight) to 12 places."""
    return len(rule[1]), round(float(rule[1].sum()), 12)


# (id, call of the one whole-number argument, valid value, a value below
# the bound, what the valid call returns)
ROWS = [
    ("build_root_system-A", lambda v: rootsys.build_root_system("A", v).rank, 1, 0, 1),
    ("build_root_system-D", lambda v: rootsys.build_root_system("D", v).ambient_dim, 2, 1, 2),
    ("DominantWeight-rank", lambda v: rootsys.DominantWeight("A", v, (0,)).coeffs, 1, -1,
     (0,)),
    ("DominantWeight-coeff", lambda v: rootsys.DominantWeight("A", 2, (v, 0)).coeffs, 1, -1,
     (1, 0)),
    ("Factor-gl", lambda v: Factor(GL, v).eps_rank, 1, 0, 1),
    ("Factor-so", lambda v: Factor(SO, v).eps_rank, 2, 1, 1),
    ("Factor-sp", lambda v: Factor(SP, v).eps_rank, 1, 0, 1),
    ("group_datum-rank", lambda v: len(tables.group_datum("kac:2", v).factors), 1, -1, 1),
    ("group_datum-rank2", lambda v: tables.group_datum("kac:10", 1, v).factors[1].size, 2, -1, 2),
    ("sym_power_decompose", _datum, 1, -1, 2),
    ("is_multiplicity_free_polynomial_action",
     lambda v: charring.is_multiplicity_free_polynomial_action(tables.group_datum("kac:2", 2), v),
     1, 0, (True, None)),
    ("check_stability", _stability, 1, -1, True),
    ("construction-index",
     lambda v: GroupDatum(_U2_U3, Construction("standard", (v,))).construction.args, 1, -1, (1,)),
    ("construction-trivial-dim",
     lambda v: GroupDatum(_U2_U3, Construction("trivial", (v,))).construction.args, 1, -1, (1,)),
    ("quotient-index",
     lambda v: GroupDatum(_U2_U3, Construction("standard", (0,)), ((v,),)).quotient, 1, -1,
     ((1,),)),
    ("un_polynomial_ladder", lambda v: dirlim.un_polynomial_ladder(v).degrees[2], 1, -1,
     Fraction(2)),
    ("un_csq_by_enumeration-n", lambda v: dirlim.un_csq_by_enumeration(1, v, 2), 1, 0,
     Fraction(1, 2)),
    ("regular_norm_sq-n", lambda v: fock.regular_norm_sq(v, 1)[1], 1, -1, Fraction(1, 2)),
    ("regular_norm_sq-k", lambda v: fock.regular_norm_sq(1, v)[1], 1, -1, Fraction(1, 2)),
    ("gamma_moment", lambda v: numerics.gamma_moment(v)[1], 1, -1, Fraction(1, 2)),
    ("half_line_moment", lambda v: numerics.half_line_moment(v)[1], 1, -1, Fraction(1, 4)),
    ("gauss_jacobi-order", lambda v: _rule(numerics.gauss_jacobi(v, 0.5, 0.5)), 1, 0,
     (1, 1.570796326795)),
    ("sphere_product_rule-n", lambda v: _rule(numerics.sphere_product_rule(v, 2)), 2, 1, (8, 1.0)),
    ("sphere_product_rule-order", lambda v: _rule(numerics.sphere_product_rule(3, v)), 1, 0,
     (8, 1.0)),
    ("build_two_step-dim_v", lambda v: nilpf.build_two_step(v, 1, {}).dim_v, 1, -1, 1),
    ("build_two_step-dim_z", lambda v: nilpf.build_two_step(2, v, {}).dim_z, 1, -1, 1),
    ("build_heisenberg", lambda v: nilpf.build_heisenberg(v).dim_v, 1, 0, 2),
    ("build_free_two_step", lambda v: nilpf.build_free_two_step(v).dim_z, 2, 1, 1),
    ("build_un_type", lambda v: nilpf.build_un_type(v).dim_z, 1, 0, 1),
    ("build_symmetric_pair-family", lambda v: symmpair.build_symmetric_pair(v, 2).family_id,
     1, 0, 1),
    ("build_symmetric_pair-rank", lambda v: symmpair.build_symmetric_pair(1, v).rank, 1, -1, 1),
    ("build_symmetric_pair-excess", lambda v: symmpair.build_symmetric_pair(3, 2, v).rank,
     1, -1, 2),
    ("harmonic_basis-n", lambda v: len(symmpair.harmonic_basis(v, 1).basis), 1, 0, 1),
    ("harmonic_basis-degree", lambda v: len(symmpair.harmonic_basis(3, v).basis), 1, -1, 3),
    ("zonal_projection_csq-m", lambda v: symmpair.zonal_projection_csq(v, 2, 1), 2, 1,
     Fraction(1)),
    ("zonal_projection_csq-n", lambda v: symmpair.zonal_projection_csq(3, v, 0), 1, 0,
     Fraction(1)),
    ("zonal_projection_csq-degree", lambda v: symmpair.zonal_projection_csq(3, 2, v), 2, -1,
     Fraction(8, 9)),
]


@pytest.mark.parametrize("call,valid,below,want", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_a_bool_float_str_or_small_value_is_refused_cold_and_warm(call, valid, below, want,
                                                                   cold_caches):
    bad = [True, float(valid), str(valid), below]
    for v in bad:
        with pytest.raises(ValueError):
            call(v)
    assert call(valid) == want
    for v in bad:
        with pytest.raises(ValueError):
            call(v)
    assert call(valid) == want


@pytest.mark.parametrize("call", [
    lambda: exact.det([[1, 2, 3], [4, 5, 6]]),
    lambda: exact.det([[1, 2]]),
    lambda: exact.det([[1], [2]]),
    lambda: exact.solve([[1, 2], [3]], [1, 2]),
    lambda: exact.nullspace([[1, 2], [3]]),
    lambda: nilpf.pfaffian([[0, 1, 2], [-1, 0, 3]]),
], ids=["det-2x3", "det-1x2", "det-2x1", "solve-ragged", "nullspace-ragged", "pfaffian-2x3"])
def test_a_matrix_of_the_wrong_shape_is_refused(call):
    with pytest.raises(ValueError, match="each row needs"):
        call()


def test_the_shape_check_leaves_square_and_empty_matrices_alone():
    assert exact.det([[1, 2], [3, 4]]) == -2 and exact.det([]) == 1
    assert exact.solve([[1, 2], [3, 4]], [5, 6]) == [-4, Fraction(9, 2)]
    assert exact.nullspace([[1, 2]]) == [[-2, 1]]
    assert exact.nullspace([], ncols=2) == [[1, 0], [0, 1]]
    assert nilpf.pfaffian([[0, 3], [-3, 0]]) == 3 and nilpf.pfaffian([]) == 1


def test_zero_variables_have_the_one_empty_monomial(cold_caches):
    assert exact.monomials(0, 0) == [()]
    assert exact.monomials(0, 2) == []
    assert fock.multi_indices(0, 2) == ((),)
    matrix = fock.fock_operator(0, 1.0, fock.HeisenbergPoint(0.1, ()), 4).matrix
    assert matrix.shape == (1, 1) and abs(matrix[0, 0] - cmath.exp(0.1j)) < 1e-15
    # the n = 1 base case stays the one the recursion ends in
    assert exact.monomials(1, 3) == [(3,)] and exact.monomials(2, 1) == [(1, 0), (0, 1)]


@pytest.mark.parametrize("call", [
    lambda: rootsys.weyl_dimension_eps(rootsys.build_root_system("B", 2), ("1", "0")),
    lambda: Factor(GL, 2).dim(("1", "0")),
    lambda: exact.fr("1/2"),
], ids=["weyl_dimension_eps", "Factor.dim", "fr"])
def test_a_str_is_not_read_as_a_number(call, cold_caches):
    with pytest.raises(ValueError, match="str"):
        call()


def _spellings(tree):
    """The whole-number tests that only ``exact`` may spell out."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                yield "isinstance(..., bool)"
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
              and isinstance(node.ops[0], ast.IsNot) and isinstance(node.comparators[0], ast.Name)
              and node.comparators[0].id == "int"):
            yield "type(...) is not int"
        elif isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield "import numbers"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield "from numbers import"


def test_no_module_but_exact_spells_out_a_whole_number_check():
    found = {path.stem: sorted(set(_spellings(ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "exact.py"}
    spelled = {name: hits for name, hits in found.items() if hits}
    assert not spelled, f"use exact.check_int, not {spelled}"
