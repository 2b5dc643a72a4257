import pytest

from toricchi.catalog import (
    CatalogEntry,
    STANDARD,
    blowup_p2,
    build_catalog,
    catalog_names,
    hirzebruch,
    product_fan,
    product_p1,
    projective_space,
)
from toricchi.errors import ToricError
from toricchi.fan import is_complete, is_smooth, parse_fan, format_fan


def test_projective_space_shapes():
    p2 = projective_space(2)
    assert p2.rays == ((1, 0), (0, 1), (-1, -1))
    assert p2.max_cones == ((0, 1), (0, 2), (1, 2))
    p1 = projective_space(1)
    assert p1.rays == ((1,), (-1,))


def test_hirzebruch_rays():
    f2 = hirzebruch(2)
    assert f2.rays == ((1, 0), (0, 1), (-1, 2), (0, -1))
    assert len(f2.max_cones) == 4
    # F_0 is P1 x P1 up to ray ordering
    assert sorted(hirzebruch(0).rays) == sorted(build_catalog("p1xp1").rays)


def test_product_fan():
    fan = product_fan(projective_space(1), projective_space(2))
    assert fan.dim == 3
    assert len(fan.rays) == 5
    assert len(fan.max_cones) == 6
    assert (1, 0, 0) in fan.rays and (0, -1, -1) in fan.rays


def test_product_p1():
    cube = product_p1(3)
    assert cube.dim == 3
    assert len(cube.rays) == 6
    assert len(cube.max_cones) == 8


def test_blowup_p2():
    bl1 = blowup_p2(1)
    assert (1, 1) in bl1.rays
    assert len(bl1.max_cones) == 4
    bl3 = blowup_p2(3)
    assert len(bl3.rays) == 6
    assert len(bl3.max_cones) == 6
    assert {(1, 1), (-1, 0), (0, -1)} <= set(bl3.rays)


def test_catalog_covers_advertised_names():
    names = catalog_names()
    assert "p2" in names and "p1xp1xp1" in names and "bl3_p2" in names
    assert len(names) == len(set(names)) == len(STANDARD)
    for name in names:
        fan = build_catalog(name)
        assert is_smooth(fan), name
        assert is_complete(fan), name


def test_catalog_has_enough_small_fans_for_sweeps():
    # at least ten fans total and a good population of dim <= 3
    assert len(STANDARD) >= 10
    small = [e for e in STANDARD if build_catalog(e.name).dim <= 3]
    assert len(small) >= 10


def test_build_catalog_parametric_families():
    assert build_catalog("projective_space", (3,)) == build_catalog("p3")
    assert build_catalog("hirzebruch", (5,)).rays[2] == (-1, 5)
    assert build_catalog("blowup_p2", (2,)) == build_catalog("bl2_p2")


def test_build_catalog_errors():
    with pytest.raises(ToricError, match="unknown catalog name"):
        build_catalog("nope")
    with pytest.raises(ToricError, match="parameter"):
        build_catalog("hirzebruch", ())
    with pytest.raises(ToricError, match="no parameters"):
        build_catalog("p2", (1,))
    # 2.5 must not build F_2
    with pytest.raises(ToricError, match="expected integers"):
        build_catalog("hirzebruch", (2.5,))


def test_catalog_entries_have_descriptions():
    for entry in STANDARD:
        assert isinstance(entry, CatalogEntry)
        assert entry.description


def test_catalog_fans_roundtrip_through_files():
    for name in catalog_names():
        fan = build_catalog(name)
        assert parse_fan(format_fan(fan)) == fan
