"""toricchi: exact Euler characteristics of line bundles on smooth complete
toric varieties, computed three independent ways and cross-verified.

The three routes:
  chi_hrr               Riemann-Roch: degree(e^D · Td(X)) in the Chow ring
  chi_recursive         the inductive difference identity run as an algorithm
  chi_graded_cohomology graded combinatorial cohomology over lattice characters

plus the identity checks verify_ishida (Todd genus 1), verify_induction_step
(per-ray difference identity, three forms), Serre duality, and the nef
lattice-point count. All arithmetic is exact (ints and Fractions).

Every value derived from a fan alone (faces, cone inverses, move-case
rows, smooth/complete verdicts, star fans, the principal-lattice basis, the
contribution table, the arrangement adjugates, the monomial walk and the
integer degree tables) lives in that fan's engine, see engine.py, and at
most engine._MAX_ENGINES engines are kept; clear_caches() drops them
together with the per-divisor memos.
"""

from . import chow, engine, oracle, todd
from .catalog import build_catalog, catalog_names
from .chow import (
    CycleClass,
    Term,
    apply_divisor_polynomial,
    degree,
    exp_divisor,
    fundamental_class,
    multiply_ray_divisor,
)
from .divisor import (
    TorusDivisor,
    canonical_divisor,
    clear_ray_coefficient,
    is_linearly_equivalent,
    principal_divisor,
    ray_divisor,
    restrict_divisor,
    zero_divisor,
)
from .errors import (
    DivisorError,
    DomainError,
    FanFormatError,
    FanValidationError,
    NonSmoothConeError,
    NotAFaceError,
    NotCompleteError,
    RecursionBudgetExceeded,
    ScanRegionError,
    ToricError,
)
from .fan import (
    CheckReport,
    Fan,
    StarFan,
    enumerate_faces,
    format_fan,
    is_complete,
    is_smooth,
    parse_fan,
    spans_cone,
    star_fan,
)
from .kernel import backend as kernel_backend
from .oracle import (
    canonical_representative,
    chi_graded_cohomology,
    chi_recursive,
    count_lattice_points,
    is_nef,
    serre_duality_check,
)
from .report import ChiReport, render_verification, run_verification
from .todd import (
    StepReport,
    chi_hrr,
    step_intermediate_direct,
    todd_class,
    todd_univariate,
    verify_induction_step,
    verify_ishida,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every cache: the fan engines with every per-fan value, the
    Todd classes, the e^D expansions (the last chow._EXP_CACHE_SIZE
    divisors) and the recursion memo. Results never depend on them; only
    time and memory do."""
    engine._ENGINES.clear()
    todd.todd_class.cache_clear()
    chow._exp_cached.cache_clear()
    oracle._chi_memo.clear()


__all__ = [
    "Fan", "parse_fan", "format_fan", "is_smooth", "is_complete",
    "enumerate_faces", "spans_cone", "star_fan", "StarFan", "CheckReport",
    "TorusDivisor", "principal_divisor", "clear_ray_coefficient",
    "restrict_divisor", "is_linearly_equivalent", "canonical_divisor",
    "ray_divisor", "zero_divisor",
    "CycleClass", "Term", "fundamental_class", "multiply_ray_divisor",
    "apply_divisor_polynomial", "degree", "exp_divisor",
    "todd_univariate", "todd_class", "chi_hrr", "verify_ishida",
    "verify_induction_step", "step_intermediate_direct", "StepReport",
    "chi_recursive", "chi_graded_cohomology", "count_lattice_points",
    "serre_duality_check", "canonical_representative", "is_nef",
    "build_catalog", "catalog_names",
    "ChiReport", "run_verification", "render_verification",
    "kernel_backend",
    "ToricError", "FanFormatError", "FanValidationError", "NotAFaceError",
    "DivisorError", "DomainError", "RecursionBudgetExceeded", "ScanRegionError",
    "NonSmoothConeError", "NotCompleteError", "clear_caches", "__version__",
]
