import ast
import itertools
import pickle
import random
import re
from copy import deepcopy

import pytest

from toricchi.catalog import (
    build_catalog,
    catalog_names,
    hirzebruch,
    product_fan,
    product_p1,
    projective_space,
)
from toricchi.chow import fundamental_class, multiply_ray_divisor
from toricchi.cli import main
from toricchi.divisor import TorusDivisor, clear_ray_coefficient, ray_divisor, restrict_divisor
from toricchi.errors import (
    DivisorError,
    DomainError,
    FanFormatError,
    FanValidationError,
    NonSmoothConeError,
    NotAFaceError,
    NotCompleteError,
    ToricError,
)
from toricchi.fan import (
    CheckReport,
    Fan,
    _check_fan_condition,
    enumerate_faces,
    format_fan,
    is_complete,
    is_smooth,
    parse_fan,
    spans_cone,
    star_fan,
)
from toricchi.intlinalg import det_int, inv_rational, kernel_vector, smith_diagonal, solve_rational
from toricchi.oracle import (
    canonical_representative,
    chi_graded_cohomology,
    chi_recursive,
    count_lattice_points,
)
from toricchi.report import run_verification
from toricchi.todd import chi_hrr, todd_univariate, verify_induction_step, verify_ishida

P2_TEXT = """\
# projective plane
dim 2
rays
1 0
0 1
-1 -1
cones
0 1
1 2
2 0
"""


def test_parse_fan_p2():
    fan = parse_fan(P2_TEXT)
    assert fan.dim == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.max_cones == ((0, 1), (0, 2), (1, 2))  # cones come back sorted


def test_parse_rejects_non_primitive_ray():
    text = "dim 2\nrays\n2 0\n0 1\n-1 -1\ncones\n0 1\n1 2\n2 0\n"
    with pytest.raises(FanFormatError) as exc:
        parse_fan(text)
    assert exc.value.line == 3
    assert "non-primitive" in str(exc.value)


def test_parse_rejects_zero_ray():
    text = "dim 2\nrays\n0 0\ncones\n0\n"
    with pytest.raises(FanFormatError, match="zero vector"):
        parse_fan(text)


def test_parse_rejects_duplicate_ray():
    text = "dim 1\nrays\n1\n1\ncones\n0\n"
    with pytest.raises(FanFormatError, match="duplicate"):
        parse_fan(text)


def test_parse_rejects_bad_header_and_counts():
    with pytest.raises(FanFormatError, match="dim"):
        parse_fan("rays\n1 0\n")
    with pytest.raises(FanFormatError, match="expected 2"):
        parse_fan("dim 2\nrays\n1 0 0\ncones\n0\n")
    with pytest.raises(FanFormatError, match="out of range"):
        parse_fan("dim 1\nrays\n1\ncones\n3\n")
    with pytest.raises(FanFormatError, match="missing 'cones'"):
        parse_fan("dim 1\nrays\n1\n")
    with pytest.raises(FanFormatError, match="no maximal cones"):
        parse_fan("dim 1\nrays\n1\ncones\n")
    with pytest.raises(FanFormatError, match="not an integer"):
        parse_fan("dim 1\nrays\nx\ncones\n0\n")


def test_parse_format_roundtrip_over_catalog():
    for name in catalog_names():
        fan = build_catalog(name)
        assert parse_fan(format_fan(fan)) == fan


def test_fan_rejects_unused_ray():
    with pytest.raises(FanValidationError, match="unused"):
        Fan(1, ((1,), (-1,)), ((0,),))


def test_fan_rejects_degenerate_cone():
    # (1,0) and (2,1)... fine; (1,0),(−1,0) span a line, det 0
    with pytest.raises(FanValidationError):
        Fan(2, ((1, 0), (-1, 0)), ((0, 1),))


def test_fan_rejects_duplicate_cone():
    with pytest.raises(FanValidationError, match="duplicate"):
        Fan(1, ((1,), (-1,)), ((0,), (1,), (0,)))


@pytest.mark.parametrize(
    "dim, rays, cones",
    [
        (2.0, ((1, 0), (0, 1)), ((0, 1),)),
        (2, ((1.7, 0), (0, 1)), ((0, 1),)),
        (2, ((1, 0), (0, 1)), ((0, 1.0),)),
        (2, 5, ((0, 1),)),
        (2, ((1, 0), (0, 1)), 7),
    ],
    ids=["dim", "ray", "cone", "rays-not-iterable", "cones-not-iterable"],
)
def test_fan_rejects_non_integer_input(dim, rays, cones):
    # int() would turn the ray (1.7, 0) into (1, 0) and accept the fan
    with pytest.raises(FanValidationError, match="expected integers"):
        Fan(dim, rays, cones)


def test_fan_condition_violation_nested_cones():
    # cone{(1,0),(1,1)} sits inside cone{(1,0),(0,1)}: intersection is not a
    # common face, so this ray/cone collection is not a fan
    with pytest.raises(FanValidationError):
        Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))


def test_fan_condition_violation_crossing_cones():
    # 3d pair meeting in a 2d wedge of the z=0 plane that is a face of neither
    with pytest.raises(FanValidationError):
        Fan(
            3,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (1, 2, 0), (0, 0, -1)),
            ((0, 1, 2), (3, 4, 5)),
        )


def _support_scan_overlaps(n, rays, cones) -> bool:
    """The pairwise check Fan construction once ran, kept as an oracle: True
    when some two cones meet outside their shared face.

    A point of cone(A) ∩ cone(B) is U^T·λ = W^T·μ with λ, μ ≥ 0, so the
    intersection is generated by the extreme rays of {z ≥ 0 : M·z = 0} with
    M = [U^T | −W^T]. Each extreme ray's support carries a one-dimensional
    kernel, so scanning supports of size ≤ n+1 and keeping the
    sign-definite kernel vectors yields a generating set; each generator is
    then tested for membership in the shared face.
    """
    for a, b in itertools.combinations(cones, 2):
        shared = sorted(set(a) & set(b))
        u = [rays[i] for i in a]
        w = [rays[j] for j in b]
        cols = len(a) + len(b)
        m_rows = [
            [u[c][r] for c in range(len(a))] + [-w[c][r] for c in range(len(b))]
            for r in range(n)
        ]
        for size in range(1, min(cols, n + 1) + 1):
            for sub in itertools.combinations(range(cols), size):
                z = kernel_vector([[row[c] for c in sub] for row in m_rows], size)
                if z is None:
                    continue
                if all(x <= 0 for x in z):
                    z = tuple(-x for x in z)
                if any(x < 0 for x in z):
                    continue
                lam = {sub[t]: z[t] for t in range(size)}
                x = [sum(lam.get(c, 0) * u[c][r] for c in range(len(a))) for r in range(n)]
                if not any(x):
                    continue
                if not shared:
                    return True
                coeffs = solve_rational([[rays[i][r] for i in shared] for r in range(n)], x)
                if coeffs is None or any(c < 0 for c in coeffs):
                    return True
    return False


def _cone_coords(rays, cone, point):
    """Exact coordinates of point over the rays of a nondegenerate cone."""
    n = len(point)
    return solve_rational([[rays[i][r] for i in cone] for r in range(n)], list(point))


def _nondegenerate(rays, cone) -> bool:
    return det_int([list(rays[i]) for i in cone]) != 0


def _random_cones(rng, n, rays, count):
    """Up to count distinct nondegenerate n-subsets of the rays."""
    pool = [c for c in itertools.combinations(range(len(rays)), n) if _nondegenerate(rays, c)]
    return tuple(rng.sample(pool, min(count, len(pool))))


def _fan_condition_corpus():
    """(label, dim, rays, cones) candidates, built without Fan(...): the
    catalog fans and five variants of each (a cone dropped, a ray negated,
    a ray perturbed by ±1, two random cone sets on the same rays), the 2-D
    double cover, nested pairs, and 100 random 2-D and 3-D candidates."""
    rng = random.Random(6)
    for name in catalog_names():
        fan = build_catalog(name)
        n, rays, cones = fan.dim, fan.rays, fan.max_cones
        yield name, n, rays, cones
        drop = rng.randrange(len(cones))
        yield f"{name} without cone {drop}", n, rays, cones[:drop] + cones[drop + 1:]
        i = rng.randrange(len(rays))
        negated = rays[:i] + (tuple(-x for x in rays[i]),) + rays[i + 1:]
        yield f"{name} with ray {i} negated", n, negated, cones
        while True:
            i, r, step = rng.randrange(len(rays)), rng.randrange(n), rng.choice((-1, 1))
            ray = tuple(x + step if t == r else x for t, x in enumerate(rays[i]))
            moved = rays[:i] + (ray,) + rays[i + 1:]
            if any(ray) and all(_nondegenerate(moved, c) for c in cones):
                break
        yield f"{name} with ray {i} moved", n, moved, cones
        for t in range(2):
            count = rng.randint(2, len(cones) + 1)
            yield f"{name} random cones {t}", n, rays, _random_cones(rng, n, rays, count)
    double_cover = ((1, 0), (-4, 3), (1, -3), (1, 3), (-3, -4))
    yield "double cover", 2, double_cover, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    # a cone strictly inside another, no ray shared, each cone first: the
    # overlap's extreme rays are the inner cone's rays, so from the outer
    # cone only unit rows are tight, and from the inner one only rows of C
    for n, outer, inner in (
        (2, ((1, 0), (0, 1)), ((2, 1), (1, 2))),
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 1, 1), (1, 2, 1), (1, 1, 2))),
    ):
        cones = (tuple(range(n)), tuple(range(n, 2 * n)))
        yield f"{n}-D outer cone first", n, outer + inner, cones
        yield f"{n}-D inner cone first", n, inner + outer, cones
    for t in range(100):
        n = 2 + t % 2
        size = rng.randint(n + 1, n + 3)
        rays = set()
        while len(rays) < size:
            ray = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(ray):
                rays.add(ray)
        rays = tuple(sorted(rays))
        yield f"random {t}", n, rays, _random_cones(rng, n, rays, rng.randint(2, 5))


_OVERLAP = re.compile(
    r"cones (\(.*?\)) and (\(.*?\)) overlap at (\(.*?\)), "
    r"which is outside their shared face (\(.*?\))"
)


def test_fan_condition_matches_support_scan():
    verdicts = []
    for label, n, rays, cones in _fan_condition_corpus():
        try:
            _check_fan_condition(n, rays, cones)
        except FanValidationError as exc:
            a, b, point, shared = map(ast.literal_eval, _OVERLAP.search(str(exc)).groups())
            assert a in cones and b in cones and set(shared) == set(a) & set(b), label
            in_a = _cone_coords(rays, a, point)
            assert all(c >= 0 for c in in_a), label
            assert all(c >= 0 for c in _cone_coords(rays, b, point)), label
            # in cone(A), the point is in the shared face iff its
            # coordinates off that face vanish
            assert any(c for c, i in zip(in_a, a) if i not in shared), label
            rejected = True
        else:
            rejected = False
        assert rejected == _support_scan_overlaps(n, rays, cones), label
        verdicts.append(rejected)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_is_smooth():
    assert is_smooth(projective_space(2))
    assert is_smooth(build_catalog("p1xp1"))
    report = is_smooth(Fan(2, ((1, 0), (1, 2)), ((0, 1),)))
    assert not report
    assert "det" in report.reason


def test_is_complete():
    for name in ("p1", "p2", "p3", "f2", "p1xp1xp1"):
        assert is_complete(build_catalog(name))
    # single smooth cone: the wall (1,0) bounds only one cone
    report = is_complete(Fan(2, ((1, 0), (0, 1)), ((0, 1),)))
    assert not report
    assert report.witness == (0,)
    assert not is_complete(Fan(1, ((1,),), ((0,),)))


def test_is_complete_disconnected_support():
    # two opposite quadrants share no wall, so each wall lies in one cone
    report = is_complete(Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3))))
    assert not report


def _sweep_covers(fan: Fan, samples: int = 1000, box: int = 1000) -> bool:
    """The seeded point sweep that is_complete once ran, kept as an oracle:
    every sampled nonzero integer point must lie in some maximal cone,
    decided exactly with Fraction inverses of the cones' ray matrices."""
    n = fan.dim
    inverses = [inv_rational(fan.ray_matrix(c)) for c in fan.max_cones]
    rng = random.Random(1729)
    for _ in range(samples):
        pt = [0] * n
        while not any(pt):
            pt = [rng.randint(-box, box) for _ in range(n)]
        if not any(
            all(sum(pt[r] * inv[r][j] for r in range(n)) >= 0 for j in range(n))
            for inv in inverses
        ):
            return False
    return True


def _drop_cones(fan: Fan, drop) -> Fan:
    """The fan of the maximal cones not in drop, keeping only the rays
    still in use (renumbered in their old order)."""
    cones = [c for k, c in enumerate(fan.max_cones) if k not in drop]
    used = sorted({i for c in cones for i in c})
    new = {old: k for k, old in enumerate(used)}
    rays = tuple(fan.rays[i] for i in used)
    return Fan(fan.dim, rays, tuple(tuple(new[i] for i in c) for c in cones))


def _completeness_corpus():
    """(label, fan, complete?): every catalog fan, and each with one and
    with two seeded cones dropped, which can no longer be complete."""
    rng = random.Random(5)
    for name in catalog_names():
        fan = build_catalog(name)
        yield name, fan, True
        for k in (1, 2):
            if k < len(fan.max_cones):
                drop = set(rng.sample(range(len(fan.max_cones)), k))
                yield f"{name} without {sorted(drop)}", _drop_cones(fan, drop), False


def test_wall_count_matches_point_sweep():
    for label, fan, complete in _completeness_corpus():
        assert bool(is_complete(fan)) == _sweep_covers(fan) == complete, label


QUADRANT = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
# complete, but cones (0, 1) and (0, 3) have determinants 2 and −2
KITE = Fan(2, ((1, -2), (1, 0), (-1, 1), (-1, 0)), ((0, 1), (0, 3), (1, 2), (2, 3)))

_DET_2 = ("maximal cone 0 (0, 1) has determinant 2, not ±1", (0, 1))
_OPEN_WALL_0 = ("wall (0,) lies in 1 maximal cone(s), expected 2", (0,))


@pytest.mark.parametrize(
    "fan, smooth, complete",
    [
        (QUADRANT, None, _OPEN_WALL_0),
        (KITE, _DET_2, None),
        (Fan(2, ((1, 0), (1, 2)), ((0, 1),)), _DET_2, _OPEN_WALL_0),
        (Fan(1, ((1,),), ((0,),)), None, ("wall () lies in 1 maximal cone(s), expected 2", ())),
        (Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3))), None, _OPEN_WALL_0),
    ],
    ids=["quadrant", "kite", "cusp-cone", "ray", "opposite-quadrants"],
)
def test_failed_verdicts_keep_reasons_and_witnesses(tmp_path, capsys, fan, smooth, complete):
    # these fans construct; each failed verdict names its witness, and
    # `toric check` reports it and exits 1
    for got, want in ((is_smooth(fan), smooth), (is_complete(fan), complete)):
        assert got == (CheckReport(True) if want is None else CheckReport(False, *want))
    path = tmp_path / "fan.fan"
    path.write_text(format_fan(fan), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    for label, want in (("smooth", smooth), ("complete", complete)):
        assert f"{label}: {'yes' if want is None else 'no (' + want[0] + ')'}\n" in out


ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        lambda f, d: chi_hrr(f, d),
        lambda f, d: chi_recursive(f, d),
        lambda f, d: chi_graded_cohomology(f, d),
        lambda f, d: count_lattice_points(f, d),
        lambda f, d: verify_ishida(f),
        lambda f, d: verify_induction_step(f, d, 0),
    ],
    ids=["chi_hrr", "chi_recursive", "chi_graded_cohomology", "count_lattice_points",
         "verify_ishida", "verify_induction_step"],
)


@ENTRY_POINTS
def test_entry_points_reject_non_complete_fan(call):
    # no route has a χ to give off a complete fan; each must refuse, not answer
    with pytest.raises(NotCompleteError) as exc:
        call(QUADRANT, TorusDivisor(QUADRANT, (1, 1)))
    assert exc.value.wall == (0,)
    assert "not complete" in str(exc.value)


@ENTRY_POINTS
def test_entry_points_reject_non_smooth_fan(call):
    # the recursion on this divisor never reads cone (0, 1): only the entry
    # gate keeps it from answering 2
    with pytest.raises(NonSmoothConeError) as exc:
        call(KITE, TorusDivisor(KITE, (0, -2, 2, 2)))
    assert exc.value.cone == (0, 1)
    assert exc.value.determinant == 2


def test_enumerate_faces_p2():
    p2 = projective_space(2)
    assert enumerate_faces(p2, 0) == ((),)
    assert enumerate_faces(p2, 1) == ((0,), (1,), (2,))
    assert enumerate_faces(p2, 2) == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ToricError, match="out of range"):
        enumerate_faces(p2, 3)
    with pytest.raises(ToricError, match="out of range"):
        enumerate_faces(p2, -1)
    with pytest.raises(ToricError, match="expected integers"):
        enumerate_faces(p2, 1.5)


_P2 = projective_space(2)
_D = TorusDivisor(_P2, (1, 0, 0))
_OUT_OF_RANGE = {
    "verify_induction_step": lambda i: verify_induction_step(_P2, _D, i),
    "restrict_divisor": lambda i: restrict_divisor(_D, i),
    "clear_ray_coefficient": lambda i: clear_ray_coefficient(_D, i),
    "star_fan": lambda i: star_fan(_P2, (i,)),
    "spans_cone": lambda i: spans_cone(_P2, (i,)),
    "enumerate_faces": lambda i: enumerate_faces(_P2, i),
    "multiply_ray_divisor": lambda i: multiply_ray_divisor(fundamental_class(_P2), i),
    "ray_divisor": lambda i: ray_divisor(_P2, i),
}


@pytest.mark.parametrize("index", [9, -1])
@pytest.mark.parametrize("call", sorted(_OUT_OF_RANGE))
def test_out_of_range_index_is_a_toric_error(call, index):
    with pytest.raises(ToricError, match="out of range"):
        _OUT_OF_RANGE[call](index)


_BAD_INTEGER = {
    "canonical_representative-coeffs": (
        DivisorError, lambda: canonical_representative(_P2, (2.5, 0, 0))
    ),
    "star_fan-tau": (ToricError, lambda: star_fan(_P2, (0, "a"))),
    "todd_univariate-order": (ToricError, lambda: todd_univariate(2.0)),
    "run_verification-trials": (ToricError, lambda: run_verification(_P2, 2.5)),
    "run_verification-negative": (DomainError, lambda: run_verification(_P2, -1)),
}


@pytest.mark.parametrize("call", sorted(_BAD_INTEGER))
def test_integer_arguments_are_checked(call):
    # a non-integer (or a negative count) is refused with a typed error,
    # never a bare TypeError or a silent answer
    error, thunk = _BAD_INTEGER[call]
    todd_univariate(2)  # an int entry must not answer for 2.0
    with pytest.raises(error):
        thunk()


def test_enumerate_faces_p1xp1():
    fan = build_catalog("p1xp1")
    assert len(enumerate_faces(fan, 1)) == 4
    assert len(enumerate_faces(fan, 2)) == 4
    # e1 and -e1 never span a cone together
    assert all({0, 1} - set(c) for c in enumerate_faces(fan, 2))


def test_spans_cone():
    p2 = projective_space(2)
    assert spans_cone(p2, (1, 0)) == (0, 1)
    assert spans_cone(p2, ()) == ()
    assert spans_cone(p2, (0, 1, 2)) is None
    fan = build_catalog("p1xp1")
    assert spans_cone(fan, (0, 1)) is None  # opposite rays


def test_star_fan_of_zero_cone_is_identity():
    p2 = projective_space(2)
    star = star_fan(p2, ())
    assert star.fan == p2
    assert dict(star.ray_map) == {0: 0, 1: 1, 2: 2}


def test_star_fan_p2_ray():
    star = star_fan(projective_space(2), (0,))
    assert star.fan.dim == 1
    assert set(star.fan.rays) == {(1,), (-1,)}
    assert sorted(star.ray_map) == [1, 2]
    assert is_complete(star.fan)


def test_star_fan_of_max_cone_is_a_point():
    star = star_fan(projective_space(2), (0, 1))
    assert star.fan.dim == 0
    assert star.fan.rays == ()
    assert star.fan.max_cones == ((),)


def test_star_fan_rejects_non_face():
    with pytest.raises(NotAFaceError):
        star_fan(build_catalog("p1xp1"), (0, 1))


def test_star_fan_hirzebruch():
    # star of the (0,1) ray of F_2: adjacent rays (1,0) and (-1,2) both
    # project onto primitive generators of a complete 1d fan
    star = star_fan(hirzebruch(2), (1,))
    assert star.fan.dim == 1
    assert set(star.fan.rays) == {(1,), (-1,)}
    assert set(star.ray_map) == {0, 2}


def test_star_fans_stay_smooth_and_complete():
    for name in ("p2", "p3", "f1", "p1xp1xp1", "bl2_p2"):
        fan = build_catalog(name)
        for k in range(fan.dim + 1):
            for tau in enumerate_faces(fan, k):
                star = star_fan(fan, tau)
                assert len(star.fan.rays) == len(star.ray_map)
                if star.fan.dim > 0:
                    assert is_smooth(star.fan)
                    assert is_complete(star.fan)


def _smith_star_fan(fan: Fan, tau):
    """The star-fan projection star_fan once made, kept as an oracle:
    complete tau's rays to a lattice basis by Smith normal form and drop
    the tau-coordinates. Returns (ray images, ray_map, sorted star cones)."""
    if not tau:
        return list(fan.rays), {i: i for i in range(len(fan.rays))}, list(fan.max_cones)
    n, k = fan.dim, len(tau)
    d, _, v = smith_diagonal(fan.ray_matrix(tau))
    assert all(d[i][i] == 1 for i in range(k))
    adjacent = [g for g in range(len(fan.rays)) if g not in tau and spans_cone(fan, tau + (g,))]
    images = [tuple(sum(fan.rays[g][r] * v[r][j] for r in range(n)) for j in range(k, n))
              for g in adjacent]
    ray_map = {g: j for j, g in enumerate(adjacent)}
    cones = sorted(tuple(sorted(ray_map[g] for g in c if g not in tau))
                   for c in fan.max_cones if set(tau) <= set(c))
    return images, ray_map, cones


_STAR_FANS = [(name, lambda name=name: build_catalog(name)) for name in catalog_names()] + [
    ("p1^4", lambda: product_p1(4)),
    ("f1xp1xp1", lambda: product_fan(hirzebruch(1), product_p1(2))),
    ("p2xp2", lambda: product_fan(projective_space(2), projective_space(2))),
]


@pytest.mark.parametrize("build", [b for _, b in _STAR_FANS], ids=[n for n, _ in _STAR_FANS])
def test_star_fan_matches_smith_projection(build):
    # same rays in the same order and the same cones; the two projections
    # differ only by a change of lattice basis of N/N_tau
    fan = build()
    for k in range(fan.dim + 1):
        for tau in enumerate_faces(fan, k):
            star = star_fan(fan, tau)
            old, ray_map, cones = _smith_star_fan(fan, tau)
            assert dict(star.ray_map) == ray_map, tau
            assert list(star.fan.max_cones) == cones, tau
            if star.fan.dim == 0:
                continue
            cone = star.fan.max_cones[0]
            inv = inv_rational([old[j] for j in cone])
            new = [star.fan.rays[j] for j in cone]
            change = [[sum(inv[i][t] * new[t][j] for t in range(len(cone)))
                       for j in range(star.fan.dim)] for i in range(star.fan.dim)]
            assert all(x.denominator == 1 for row in change for x in row), tau
            assert det_int([[int(x) for x in row] for row in change]) in (1, -1), tau
            for w, u in zip(old, star.fan.rays):
                assert tuple(sum(w[i] * change[i][j] for i in range(len(w)))
                             for j in range(star.fan.dim)) == u, tau


def test_star_ray_map_matches_projection_order():
    fan = build_catalog("p1xp1xp1")
    star = star_fan(fan, (0,))
    # images are listed in increasing original-ray order
    assert sorted(star.ray_map) == list(star.ray_map)
    assert list(star.ray_map.values()) == list(range(len(star.fan.rays)))


def test_fan_is_hashable_and_usable_as_cache_key():
    a = parse_fan(P2_TEXT)
    b = projective_space(2)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fan_pickles_and_deep_copies():
    # the copies rebuild from the fields and decide the same verdicts
    for fan in (build_catalog("f1"), QUADRANT, KITE):
        for copy in (pickle.loads(pickle.dumps(fan)), deepcopy(fan)):
            assert copy == fan and hash(copy) == hash(fan)
            assert dict(copy.dual_bases) == dict(fan.dual_bases)
            assert (copy.smooth, copy.complete) == (fan.smooth, fan.complete)


def test_cones_with_all_rays_of_mixed_order():
    # input cone order and ray index order inside cones do not matter
    f1 = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((1, 0), (2, 1), (0, 2)))
    assert f1 == projective_space(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_space_is_valid(n):
    fan = projective_space(n)
    assert len(fan.rays) == n + 1
    assert len(fan.max_cones) == n + 1
    assert is_smooth(fan) and is_complete(fan)
    assert len(enumerate_faces(fan, n)) == n + 1
    # every proper subset of rays spans a cone
    for k in range(n + 1):
        assert len(enumerate_faces(fan, k)) == len(
            list(itertools.combinations(range(n + 1), k))
        ) or k == n + 1
