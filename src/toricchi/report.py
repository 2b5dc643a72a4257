"""Verification harness: per-divisor chi reports and deterministic rendering.

run_verification draws seeded random divisors (the first trial is always
the zero divisor), computes every chi method, the per-ray induction-step
identity, Serre duality per method, and the nef lattice count when it
applies. Rendering is plain text with machine-readable lines

    ISHIDA <fan> PASS|FAIL
    CHI <fan> <a0,a1,...> <method> <value>
    CHECK <fan> <a0,a1,...> <name> PASS|FAIL|SKIP

and is byte-identical for identical (fan, trials, range, seed) inputs:
nothing time- or environment-dependent is ever printed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .divisor import TorusDivisor, canonical_divisor
from .errors import DomainError, ToricError, exact_ints
from .fan import Fan
from .oracle import CHI_METHODS, chi_by_method, count_lattice_points
from .todd import verify_induction_step, verify_ishida


@dataclass(frozen=True)
class ChiReport:
    fan_name: str
    divisor: tuple[int, ...]
    chi: dict[str, int] = field(default_factory=dict)
    checks: tuple[tuple[str, str, str], ...] = ()  # (name, PASS|FAIL|SKIP, detail)
    nef_count: int | None = None

    @property
    def ok(self) -> bool:
        return all(status != "FAIL" for _, status, _ in self.checks)


def _divisor_reports(fan: Fan, fan_name: str, d: TorusDivisor) -> ChiReport:
    chi = {method: chi_by_method(fan, d, method) for method in CHI_METHODS}
    checks: list[tuple[str, str, str]] = []
    values = sorted(set(chi.values()))
    checks.append(
        (
            "three-way-equal",
            "PASS" if len(values) == 1 else "FAIL",
            " ".join(f"{k}={v}" for k, v in sorted(chi.items())),
        )
    )
    for rho in range(len(fan.rays)):
        step = verify_induction_step(fan, d, rho)
        checks.append(
            (
                f"step-ray-{rho}",
                "PASS" if step.ok else "FAIL",
                f"lhs={step.lhs} rhs={step.rhs} mid={step.intermediate}",
            )
        )
    k = canonical_divisor(fan)
    sign = (-1) ** fan.dim
    for method in CHI_METHODS:
        dual = chi_by_method(fan, k - d, method)
        ok = chi[method] == sign * dual
        checks.append(
            (f"serre-{method}", "PASS" if ok else "FAIL", f"chi={chi[method]} dual={dual}")
        )
    count = count_lattice_points(fan, d)
    if count is None:
        checks.append(("nef-count", "SKIP", "not nef"))
    else:
        ok = count == chi["recursive"]
        checks.append(("nef-count", "PASS" if ok else "FAIL", f"points={count}"))
    return ChiReport(
        fan_name=fan_name,
        divisor=d.coeffs,
        chi=chi,
        checks=tuple(checks),
        nef_count=count,
    )


def run_verification(
    fan: Fan,
    trials: int,
    coeff_range: tuple[int, int] = (-4, 4),
    seed: int = 0,
    fan_name: str = "fan",
) -> list[ChiReport]:
    """One ChiReport per trial divisor; trial 0 is the zero divisor."""
    (trials,) = exact_ints((trials,), ToricError, "trials")
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    lo, hi = exact_ints(coeff_range, ToricError, "coefficient range")
    if lo > hi:
        raise DomainError(f"empty coefficient range {lo}..{hi}")
    rng = random.Random(seed)
    reports = []
    for t in range(trials):
        if t == 0:
            coeffs = (0,) * len(fan.rays)
        else:
            coeffs = tuple(rng.randint(lo, hi) for _ in fan.rays)
        reports.append(_divisor_reports(fan, fan_name, TorusDivisor(fan, coeffs)))
    return reports


def _fmt_divisor(coeffs) -> str:
    return ",".join(str(a) for a in coeffs)


def render_verification(fan: Fan, fan_name: str, reports) -> str:
    """Deterministic plain-text report; see the module docstring for the
    machine-readable line formats."""
    lines = [f"fan {fan_name}: dim {fan.dim}, {len(fan.rays)} rays, "
             f"{len(fan.max_cones)} maximal cones"]
    ishida = verify_ishida(fan)
    lines.append(f"ISHIDA {fan_name} {'PASS' if ishida else 'FAIL'}")
    failures = 0 if ishida else 1
    checks = 1
    for rep in reports:
        div = _fmt_divisor(rep.divisor)
        for method in sorted(rep.chi):
            lines.append(f"CHI {fan_name} {div} {method} {rep.chi[method]}")
        for name, status, detail in rep.checks:
            suffix = f"  # {detail}" if detail else ""
            lines.append(f"CHECK {fan_name} {div} {name} {status}{suffix}")
            if status != "SKIP":
                checks += 1
            if status == "FAIL":
                failures += 1
    verdict = "PASS" if failures == 0 else "FAIL"
    lines.append(f"RESULT {verdict} ({checks} checks, {failures} failures)")
    return "\n".join(lines) + "\n"


def verification_ok(reports, fan: Fan) -> bool:
    return verify_ishida(fan) and all(r.ok for r in reports)
