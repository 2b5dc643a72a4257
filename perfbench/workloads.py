"""The benchmark's three workloads: seeded inputs, set-up, and one item each.

Each workload is a closed loop in one process. Constructing a workload
calls nothing in the program; setup_steps() yields the set-up's program
work as steps the caller times one by one. The caller then prepares the
next input (untimed) and times run(input), which returns whether every
check passed and the bytes whose SHA-256 is compared with the golden
digest. Inputs depend only on the seed, and the program only ever sees
the generated fans and divisors.

    verify     toric verify-hrr on the catalog 3-folds, one fresh seeded
               divisor per item; fans built and warmed in set-up.
    chi_wide   toric chi --method all on the same 3-folds, coefficients
               spread evenly over -20..20; the three routes must agree.
    cold_fans  a 7-ray 3-fold the process has never seen: construct,
               check, verify_ishida, one divisor by all three routes and
               one induction step.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import combinations, islice, permutations, product

import toricchi as T
from toricchi import report

CATALOG_FOLDS = ("p3", "p1xp1xp1", "p1xp2")


class Workload:
    """Subclasses define inputs() and run(input), and warm(k) for the k-th
    catalog fan unless they replace setup_steps()."""

    def __init__(self, seed: int):
        self.seed = seed
        self.fans = []

    def build_fans(self):
        self.fans = [(n, T.build_catalog(n)) for n in CATALOG_FOLDS]

    def setup_steps(self):
        """Build the fans, then warm each one, one step per fan."""
        yield self.build_fans
        for k in range(len(CATALOG_FOLDS)):
            yield partial(self.warm, k)

    def set_up(self):
        """Run every set-up step; for callers that do not time them."""
        for step in self.setup_steps():
            step()


class Verify(Workload):
    """verify-hrr engine: run_verification + render_verification."""

    name = "verify"
    coeff_range = (-4, 4)  # the CLI default

    def warm(self, k: int):
        """Warm every per-fan cache with divisors outside the item stream."""
        name, fan = self.fans[k]
        report.run_verification(fan, 3, self.coeff_range, seed=-1, fan_name=name)

    def inputs(self):
        k = 0
        while True:
            name, fan = self.fans[k % len(self.fans)]
            # trial 0 of run_verification is the zero divisor, trial 1 is fresh
            yield name, fan, self.seed * 1_000_003 + k
            k += 1

    def run(self, inp):
        name, fan, item_seed = inp
        reports = report.run_verification(
            fan, 2, self.coeff_range, seed=item_seed, fan_name=name
        )
        text = report.render_verification(fan, name, reports)
        ok = (
            all(r.ok for r in reports)
            and f"ISHIDA {name} PASS" in text
            and "\nRESULT PASS " in text
        )
        return ok, text.encode()


def three_routes(fan, d) -> tuple[int, int, int]:
    return (
        T.chi_hrr(fan, d),
        T.chi_recursive(fan, d),
        T.chi_graded_cohomology(fan, d),
    )


# fractional parts of square roots of primes: rationally independent steps
_WEYL = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))


class ChiWide(Workload):
    """toric chi --method all with wide coefficients."""

    name = "chi_wide"
    coeff_range = (-20, 20)

    def warm(self, k: int):
        _, fan = self.fans[k]
        three_routes(fan, T.TorusDivisor(fan, (1,) * len(fan.rays)))

    def inputs(self):
        # A Weyl sequence with a seeded shift per fan: each fan's j-th
        # divisor has coordinates frac(shift + j * alpha) scaled to the
        # range. Every prefix of it covers the coefficient box evenly, so
        # the cost quantiles of a run depend little on the seed.
        rng = random.Random(self.seed)
        lo, hi = self.coeff_range
        shifts = [[rng.random() for _ in fan.rays] for _, fan in self.fans]
        k = 0
        while True:
            f = k % len(self.fans)
            name, fan = self.fans[f]
            j = k // len(self.fans)
            coeffs = tuple(
                lo + int((s + j * a) % 1.0 * (hi - lo + 1))
                for s, a in zip(shifts[f], _WEYL)
            )
            yield name, fan, coeffs
            k += 1

    def run(self, inp):
        name, fan, coeffs = inp
        chi = three_routes(fan, T.TorusDivisor(fan, coeffs))
        ok = chi[0] == chi[1] == chi[2]
        return ok, f"{name} {coeffs} {chi}".encode()


# Base fans as plain tuples: (rays, maximal cones), rays in catalog order.
_E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
BASES = {
    "p3": (_E + ((-1, -1, -1),), tuple(combinations(range(4), 3))),
    "p1xp1xp1": (
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        tuple(product((0, 1), (2, 3), (4, 5))),
    ),
    "p1xp2": (
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        tuple((a,) + bc for a in (0, 1) for bc in combinations((2, 3, 4), 2)),
    ),
}
NONZERO_COEFFS = 4
# (base, blowups) with 7 rays after the blowups, hence 10 maximal cones: one
# fan size, so the cost percentiles do not sit in a gap between sizes.
# Items cycle through the strata so every run has the same mix.
STRATA = (("p3", 3), ("p1xp1xp1", 1), ("p1xp2", 2))
_SIGNED_PERMS = tuple(
    (perm, signs)
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3)
)


def blowup(rays, cones, cone):
    """Stellar subdivision at the torus-fixed point of a smooth 3-cone."""
    new = tuple(sum(rays[i][t] for i in cone) for t in range(3))
    m = len(rays)
    rest = [c for c in cones if c != cone]
    rest += [tuple(sorted(face + (m,))) for face in combinations(cone, 2)]
    return rays + (new,), tuple(sorted(rest))


def random_fold(rng: random.Random, base: str, blowups: int):
    """(rays, cones) of a seeded smooth complete 3-fold: the base after
    seeded blowups, in seeded signed-permuted coordinates (which keep the
    entries' sizes, so the cost stays that of the combinatorial type)."""
    rays, cones = BASES[base]
    for _ in range(blowups):
        rays, cones = blowup(rays, cones, rng.choice(cones))
    perm, signs = rng.choice(_SIGNED_PERMS)
    rays = tuple(tuple(s * r[p] for p, s in zip(perm, signs)) for r in rays)
    return rays, cones


def cold_fold_stream(seed: int):
    """Distinct (rays, cones, coeffs, rho) items without end, strata in turn."""
    rng = random.Random(seed)
    seen = set()
    k = 0
    while True:
        base, blowups = STRATA[k % len(STRATA)]
        rays, cones = random_fold(rng, base, blowups)
        if (rays, cones) in seen:
            continue
        seen.add((rays, cones))
        # exactly NONZERO_COEFFS nonzero coefficients, so every item fills the
        # same number of cold monomial degrees and its cost follows its fan
        support = set(rng.sample(range(len(rays)), NONZERO_COEFFS))
        coeffs = tuple(rng.choice((-2, -1, 1, 2)) if i in support else 0 for i in range(len(rays)))
        yield rays, cones, coeffs, rng.randrange(len(rays))
        k += 1


def cold_fold_inputs(seed: int, count: int):
    """The first count items of cold_fold_stream(seed)."""
    return list(islice(cold_fold_stream(seed), count))


class ColdFans(Workload):
    """First contact with fans the process has never seen."""

    name = "cold_fans"

    def setup_steps(self):
        """One item on each unblown base fan, one per step: a session that
        has already met the base fans, so their star fans are warm."""
        for rays, cones in BASES.values():
            yield partial(self.run, (rays, cones, (1,) * len(rays), 0))

    def inputs(self):
        # generated between items, never inside a timed span
        return cold_fold_stream(self.seed)

    def run(self, inp):
        rays, cones, coeffs, rho = inp
        fan = T.Fan(3, rays, cones)
        smooth = T.is_smooth(fan)
        complete = T.is_complete(fan)
        ishida = T.verify_ishida(fan)
        d = T.TorusDivisor(fan, coeffs)
        chi = three_routes(fan, d)
        step = T.verify_induction_step(fan, d, rho)
        ok = bool(smooth) and bool(complete) and ishida and chi[0] == chi[1] == chi[2] and step.ok
        payload = f"{rays} {cones} {coeffs} {chi} {ishida} {step.lhs} {step.rhs} {step.intermediate}"
        return ok, payload.encode()


WORKLOADS = {w.name: w for w in (Verify, ChiWide, ColdFans)}
