"""Acceptance suite: ten criteria, one test and one printed verdict each.

Everything here is exact integer/rational equality; the only tolerances are
the two wall-clock budgets (criterion 1: 10 s, criterion 2: 5 min), applied
as hard assertions on monotonic time.
"""

import random
import time
from fractions import Fraction

import pytest

from _relabel import relabel

from toricchi.catalog import build_catalog, catalog_names, hirzebruch, projective_space
from toricchi.chow import Term, apply_divisor_polynomial, degree, fundamental_class
from toricchi.divisor import TorusDivisor, canonical_divisor, zero_divisor
from toricchi.oracle import (
    chi_by_method,
    chi_graded_cohomology,
    chi_recursive,
    count_lattice_points,
    is_nef,
)
from toricchi.report import render_verification, run_verification
from toricchi.todd import (
    chi_hrr,
    todd_generating_series,
    todd_univariate,
    verify_induction_step,
    verify_ishida,
)

ALL_FANS = catalog_names()
DIM_LE_3 = [n for n in ALL_FANS if build_catalog(n).dim <= 3]

TRIALS_PER_FAN = 100
COEFF_LO, COEFF_HI = -4, 4
TRIAL_SEED_BASE = 20260


@pytest.fixture(scope="module")
def trial_chis():
    """Criterion 2's trial set, shared with criteria 7 and 9.

    fan name -> list of (coeffs, {method: chi}); elapsed wall time for the
    chi computations is returned alongside for the runtime bound.
    """
    data = {}
    t0 = time.monotonic()
    for idx, name in enumerate(DIM_LE_3):
        fan = build_catalog(name)
        rng = random.Random(TRIAL_SEED_BASE + idx)
        rows = []
        for _ in range(TRIALS_PER_FAN):
            coeffs = tuple(rng.randint(COEFF_LO, COEFF_HI) for _ in fan.rays)
            d = TorusDivisor(fan, coeffs)
            rows.append(
                (
                    coeffs,
                    {
                        "hrr": chi_hrr(fan, d),
                        "recursive": chi_recursive(fan, d),
                        "cohomology": chi_graded_cohomology(fan, d),
                    },
                )
            )
        data[name] = rows
    return data, time.monotonic() - t0


def test_criterion_01_ishida_todd_genus(acceptance_record):
    assert len(ALL_FANS) >= 10
    t0 = time.monotonic()
    ok = all(verify_ishida(build_catalog(name)) for name in ALL_FANS)
    elapsed = time.monotonic() - t0
    acceptance_record(
        1,
        "ishida-todd-genus",
        ok and elapsed < 10.0,
        f"{len(ALL_FANS)} fans, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_three_methods_agree(acceptance_record, trial_chis):
    data, elapsed = trial_chis
    failures = sum(
        1
        for rows in data.values()
        for _, chis in rows
        if len(set(chis.values())) != 1
    )
    total = sum(len(rows) for rows in data.values())
    acceptance_record(
        2,
        "hrr-vs-oracles",
        failures == 0 and elapsed < 300.0,
        f"{len(data)} fans x {TRIALS_PER_FAN} divisors = {total} triples, "
        f"{failures} failures, {elapsed:.1f}s < 300s",
    )


def test_criterion_03_induction_step_identity(acceptance_record):
    failures = 0
    steps = 0
    for idx, name in enumerate(DIM_LE_3):
        fan = build_catalog(name)
        rng = random.Random(31000 + idx)
        for _ in range(20):
            coeffs = tuple(rng.randint(COEFF_LO, COEFF_HI) for _ in fan.rays)
            d = TorusDivisor(fan, coeffs)
            for rho in range(len(fan.rays)):
                rep = verify_induction_step(fan, d, rho)
                steps += 1
                if not (rep.lhs == rep.rhs == rep.intermediate):
                    failures += 1
    acceptance_record(
        3,
        "induction-step-identity",
        failures == 0,
        f"{steps} (fan, divisor, ray) steps incl. intermediate form, {failures} failures",
    )


def test_criterion_04_closed_forms(acceptance_record):
    p1 = projective_space(1)
    p2 = projective_space(2)
    ok = True
    for d in range(-5, 6):
        want1 = d + 1
        want2 = (d + 1) * (d + 2) // 2
        dp1 = TorusDivisor(p1, (d, 0))
        dp2 = TorusDivisor(p2, (d, 0, 0))
        for method in ("hrr", "recursive", "cohomology"):
            ok = ok and chi_by_method(p1, dp1, method) == want1
            ok = ok and chi_by_method(p2, dp2, method) == want2
        if d >= 0:
            ok = ok and count_lattice_points(p1, dp1) == want1
            ok = ok and count_lattice_points(p2, dp2) == want2
    acceptance_record(4, "closed-forms-p1-p2", ok, "d in [-5,5], all methods")


def test_criterion_05_intersection_numbers(acceptance_record):
    ok = True
    for a in range(4):
        fa = hirzebruch(a)
        sq = apply_divisor_polynomial(fundamental_class(fa), [Term(Fraction(1), (1, 1))])
        ok = ok and degree(sq) == -a
    p2 = projective_space(2)
    for rho in range(3):
        sq = apply_divisor_polynomial(
            fundamental_class(p2), [Term(Fraction(1), (rho, rho))]
        )
        ok = ok and degree(sq) == 1
    acceptance_record(
        5, "intersection-numbers", ok, "F_a self-intersections -a, P^2 rays 1"
    )


def test_criterion_06_todd_coefficients(acceptance_record):
    ok = todd_univariate(4) == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )
    t = todd_univariate(8)
    g = todd_generating_series(8)
    conv = [sum(t[i] * g[k - i] for i in range(k + 1)) for k in range(9)]
    ok = ok and conv == [Fraction(1)] + [Fraction(0)] * 8
    acceptance_record(6, "todd-coefficients", ok, "order 4 exact, inverse to degree 8")


def test_criterion_07_serre_duality(acceptance_record, trial_chis):
    data, _ = trial_chis
    failures = 0
    checked = 0
    for name, rows in data.items():
        fan = build_catalog(name)
        k = canonical_divisor(fan)
        sign = (-1) ** fan.dim
        for coeffs, chis in rows:
            dual = k - TorusDivisor(fan, coeffs)
            for method, value in chis.items():
                checked += 1
                if value != sign * chi_by_method(fan, dual, method):
                    failures += 1
    acceptance_record(
        7,
        "serre-duality",
        failures == 0,
        f"{checked} (divisor, method) pairs, {failures} failures",
    )


def test_criterion_08_path_independence(acceptance_record):
    # relabelling the rays changes the recursion's ray picks, σ₀ (so the
    # representative and the HRR walk) and every star fan's ray order; each
    # route must still give the original χ
    failures = 0
    runs = 0
    for idx, name in enumerate(ALL_FANS):
        fan = build_catalog(name)
        nrays = len(fan.rays)
        rng = random.Random(52000 + idx)
        draws = [tuple(rng.randint(COEFF_LO, COEFF_HI) for _ in fan.rays) for _ in range(20)]
        base = [chi_recursive(fan, TorusDivisor(fan, c)) for c in draws]
        for _ in range(10):
            order = list(range(nrays))
            rng.shuffle(order)
            other, move = relabel(fan, order)
            for coeffs, want in zip(draws, base):
                d = TorusDivisor(other, move(coeffs))
                for route in (chi_hrr, chi_recursive, chi_graded_cohomology):
                    runs += 1
                    if route(other, d) != want:
                        failures += 1
    acceptance_record(
        8,
        "path-independence",
        failures == 0,
        f"{len(ALL_FANS)} fans x 20 divisors x 10 relabellings x 3 routes = {runs} runs, "
        f"{failures} failures",
    )


def test_criterion_09_nef_consistency(acceptance_record, trial_chis):
    data, _ = trial_chis
    failures = 0
    nef_hits = 0
    for name, rows in data.items():
        fan = build_catalog(name)
        for coeffs, chis in rows:
            d = TorusDivisor(fan, coeffs)
            if not is_nef(fan, d):
                continue
            nef_hits += 1
            if count_lattice_points(fan, d) != chis["recursive"]:
                failures += 1
        # random draws rarely land nef; make sure each fan contributes some
        for extra in ((0,) * len(fan.rays), (1,) * len(fan.rays)):
            d = TorusDivisor(fan, extra)
            if is_nef(fan, d):
                nef_hits += 1
                if count_lattice_points(fan, d) != chi_recursive(fan, d):
                    failures += 1
    acceptance_record(
        9,
        "nef-lattice-count",
        failures == 0 and nef_hits > 0,
        f"{nef_hits} nef divisors, {failures} failures",
    )


def test_criterion_10_determinism(acceptance_record):
    ok = True
    for name in ("p2", "f2", "p1xp1"):
        fan = build_catalog(name)
        a = render_verification(
            fan, name, run_verification(fan, trials=4, seed=1234, fan_name=name)
        )
        b = render_verification(
            fan, name, run_verification(fan, trials=4, seed=1234, fan_name=name)
        )
        ok = ok and a.encode() == b.encode()
    acceptance_record(10, "determinism", ok, "byte-identical reports, 3 fans")
