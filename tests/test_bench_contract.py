"""The benchmark's span recorder names library functions by string; a renamed
or closed-form entry point must stay importable under the name it lists, with
the signature recorded here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
_MODULE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_MODULE)

SIGNATURES = {
    "charring.weight_system":
        "(rs: 'rootsys.RootSystemData', weight: 'rootsys.DominantWeight')",
    "charring.tensor_decompose":
        "(rs: 'rootsys.RootSystemData', lam: 'rootsys.DominantWeight', "
        "mu: 'rootsys.DominantWeight')",
    "charring.sym_power_decompose": "(datum: 'GroupDatum', d: 'int') -> 'Decomposition'",
    "charring.decompose_weight_multiset": "(factors, multiset) -> 'tuple'",
    "charring.is_multiplicity_free_polynomial_action":
        "(datum: 'GroupDatum', degree_bound: 'int')",
    "charring.check_stability": "(small: 'GroupDatum', big: 'GroupDatum', d: 'int')",
    "rootsys.build_root_system": "(family: 'str', rank: 'int') -> 'RootSystemData'",
    "rootsys.weyl_dimension": "(rs: 'RootSystemData', weight: 'DominantWeight') -> 'int'",
    "rootsys.weyl_dimension_eps": "(rs: 'RootSystemData', lam_eps) -> 'int'",
    "numerics.integrate_sphere": "(f, n_ambient: 'int', order: 'int')",
    "numerics.sphere_product_rule": "(n_ambient: 'int', order: 'int')",
    "numerics.gaussian_plane_integral": "(f, scale: 'float')",
    "numerics.matrix_exp": "(a: 'np.ndarray') -> 'np.ndarray'",
    "numerics.gamma_moment": "(k: 'int')",
    "exact.nullspace": "(matrix, ncols=None)",
    "exact.det": "(matrix) -> 'Fraction'",
    "symmpair.harmonic_basis": "(n_ambient: 'int', degree: 'int') -> 'HarmonicSpace'",
    "symmpair.zonal_vector": "(space: 'HarmonicSpace', axis: 'int' = 0) -> 'MultiPoly'",
    "symmpair.sphere_inner_product": "(p: 'MultiPoly', q: 'MultiPoly') -> 'Fraction'",
    "symmpair.zonal_projection_csq":
        "(m_sphere: 'int', n_sphere: 'int', degree: 'int') -> 'Fraction'",
    "symmpair.zonal_projection_constant":
        "(m_sphere: 'int', n_sphere: 'int', degree: 'int', "
        "method: 'str' = 'exact') -> 'float'",
    "fock.coefficient_inner_product": "(t: 'float', pair_left, pair_right) -> 'complex'",
    "fock.fock_operator":
        "(n: 'int', t: 'float', g: 'HeisenbergPoint', cutoff: 'int') -> 'FockOperator'",
    "fock.regular_norm_sq": "(n: 'int', k: 'int')",
    "nilpf.pfaffian": "(mat)",
    "nilpf.pfaffian_polynomial": "(alg: 'TwoStepAlgebra') -> 'PfaffianPolynomial'",
    "tables.algebra": "(spec: 'str') -> 'nilpf.TwoStepAlgebra'",
    "tables.group_datum":
        "(row_id: 'str', rank: 'int', rank2: 'int | None' = None) -> 'GroupDatum'",
    "dirlim.sphere_ladder":
        "(d: 'int', levels=(2, 3, 4, 5), method: 'str' = 'exact') -> 'DegreeLadder'",
    "dirlim.un_polynomial_ladder": "(d: 'int', levels=(1, 2, 3, 4)) -> 'DegreeLadder'",
    "dirlim.heisenberg_ladder":
        "(t, d: 'int' = 1, levels=(1, 2), method: 'str' = 'exact') -> 'DegreeLadder'",
    "dirlim.verify_cocycle": "(ladder: 'DegreeLadder')",
    "dirlim.verify_commuting_square": "(ladder: 'DegreeLadder', m, n)",
    "dirlim.limit_inner_product":
        "(ladder: 'DegreeLadder', f: 'LadderedFunction', g: 'LadderedFunction')",
    "cli.main": "(argv=None) -> 'int'",
    "cli.run_suite": "(name: 'str', config: 'dict', **suite_args) -> 'VerificationReport'",
    "cli.emit_report": "(report: 'VerificationReport', fmt: 'str' = 'text') -> 'str'",
}


@pytest.mark.parametrize("qualname", [f"{mod}.{fn}" for mod, fns in
                                      _MODULE.ENTRY_POINTS.items() for fn in fns])
def test_span_entry_point_is_a_library_callable(qualname):
    mod, fn = qualname.split(".")
    function = getattr(importlib.import_module(f"gelfand.{mod}"), fn)
    assert callable(function)
    assert str(inspect.signature(function)) == SIGNATURES[qualname]


@pytest.mark.parametrize("qualname", [f"{mod}.{fn}" for mod, fns in
                                      _MODULE.CACHES.items() for fn in fns])
def test_span_cache_has_cache_info(qualname):
    mod, fn = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"gelfand.{mod}"), fn).cache_info)


def test_no_signature_pinned_for_a_name_the_benchmark_does_not_list():
    assert set(SIGNATURES) <= {f"{mod}.{fn}" for mod, fns in _MODULE.ENTRY_POINTS.items()
                               for fn in fns}
