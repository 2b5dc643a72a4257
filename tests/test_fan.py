import itertools
import random

import pytest

from toricchi.catalog import build_catalog, catalog_names, hirzebruch, projective_space
from toricchi.divisor import TorusDivisor
from toricchi.errors import FanFormatError, FanValidationError, NotAFaceError, NotCompleteError
from toricchi.fan import (
    Fan,
    enumerate_faces,
    format_fan,
    is_complete,
    is_smooth,
    parse_fan,
    spans_cone,
    star_fan,
)
from toricchi.intlinalg import inv_rational
from toricchi.oracle import chi_graded_cohomology, chi_recursive, count_lattice_points
from toricchi.todd import chi_hrr, verify_induction_step, verify_ishida

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


@pytest.mark.parametrize(
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
def test_entry_points_reject_non_complete_fan(call):
    # no route has a χ to give off a complete fan; each must refuse, not answer
    with pytest.raises(NotCompleteError) as exc:
        call(QUADRANT, TorusDivisor(QUADRANT, (1, 1)))
    assert exc.value.wall == (0,)
    assert "not complete" in str(exc.value)


def test_enumerate_faces_p2():
    p2 = projective_space(2)
    assert enumerate_faces(p2, 0) == ((),)
    assert enumerate_faces(p2, 1) == ((0,), (1,), (2,))
    assert enumerate_faces(p2, 2) == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        enumerate_faces(p2, 3)
    with pytest.raises(ValueError):
        enumerate_faces(p2, -1)


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
