"""The public API's call signatures, pinned: every callable that
toricchi.__all__ names, with its parameter names, kinds and defaults.
Adding, dropping or renaming a parameter, or a name in __all__, fails here
until this table changes with it. Annotations are left out; their text
differs between Python versions and selects no behaviour."""

import inspect

import toricchi

# None: an exception class that keeps the builtin constructor
SIGNATURES = {
    "Fan": "(dim, rays, max_cones)",
    "parse_fan": "(text)",
    "format_fan": "(fan)",
    "is_smooth": "(fan)",
    "is_complete": "(fan)",
    "enumerate_faces": "(fan, k)",
    "spans_cone": "(fan, ray_indices)",
    "star_fan": "(fan, tau)",
    "StarFan": "(fan, ray_map)",
    "CheckReport": "(ok, reason='', witness=())",
    "TorusDivisor": "(fan, coeffs)",
    "principal_divisor": "(fan, m)",
    "clear_ray_coefficient": "(d, rho)",
    "restrict_divisor": "(d, rho)",
    "is_linearly_equivalent": "(d1, d2)",
    "canonical_divisor": "(fan)",
    "ray_divisor": "(fan, rho)",
    "zero_divisor": "(fan)",
    "CycleClass": "(fan, parts=None)",
    "Term": "(coeff, rays)",
    "fundamental_class": "(fan)",
    "multiply_ray_divisor": "(c, rho)",
    "apply_divisor_polynomial": "(c, terms)",
    "degree": "(c)",
    "exp_divisor": "(d, order)",
    "todd_univariate": "(order)",
    "todd_class": "(fan)",
    "chi_hrr": "(fan, d)",
    "verify_ishida": "(fan)",
    "verify_induction_step": "(fan, d, rho)",
    "step_intermediate_direct": "(fan, d, rho)",
    "StepReport": "(rho, lhs, rhs, intermediate)",
    "chi_recursive": "(fan, d)",
    "chi_graded_cohomology": "(fan, d)",
    "count_lattice_points": "(fan, d)",
    "serre_duality_check": "(fan, d, method='hrr')",
    "canonical_representative": "(fan, coeffs)",
    "is_nef": "(fan, d)",
    "build_catalog": "(name, params=())",
    "catalog_names": "()",
    "ChiReport": "(fan_name, divisor, chi=<factory>, checks=(), nef_count=None)",
    "run_verification": "(fan, trials, coeff_range=(-4, 4), seed=0, fan_name='fan')",
    "render_verification": "(fan, fan_name, reports)",
    "kernel_backend": "()",
    "ToricError": None,
    "FanFormatError": "(message, line=None)",
    "FanValidationError": None,
    "NotAFaceError": None,
    "DivisorError": None,
    "DomainError": None,
    "RecursionBudgetExceeded": None,
    "ScanRegionError": None,
    "NonSmoothConeError": "(cone, determinant)",
    "NotCompleteError": "(wall, reason)",
    "clear_caches": "()",
}


def _parameters(obj):
    try:
        sig = inspect.signature(obj)
    except ValueError:  # a builtin constructor without a text signature
        return None
    bare = sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )
    return str(bare)


def test_public_signatures_are_pinned():
    public = {name: getattr(toricchi, name) for name in toricchi.__all__}
    found = {name: _parameters(obj) for name, obj in public.items() if callable(obj)}
    assert found == SIGNATURES
