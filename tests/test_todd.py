from fractions import Fraction

import pytest

from toricchi.catalog import build_catalog, catalog_names, projective_space
from toricchi.chow import degree, fundamental_class, multiply_ray_divisor
from toricchi.errors import DomainError, ToricError
from toricchi.todd import (
    todd_class,
    todd_generating_series,
    todd_univariate,
    verify_ishida,
)

F = Fraction


def test_todd_generating_series():
    # sum (-1)^j x^j / (j+1)!
    assert todd_generating_series(4) == [F(1), F(-1, 2), F(1, 6), F(-1, 24), F(1, 120)]


def test_todd_univariate_low_orders():
    assert todd_univariate(0) == (F(1),)
    assert todd_univariate(1) == (F(1), F(1, 2))
    assert todd_univariate(2) == (F(1), F(1, 2), F(1, 12))
    assert todd_univariate(4) == (F(1), F(1, 2), F(1, 12), F(0), F(-1, 720))


def test_todd_univariate_rejects_negative_order():
    with pytest.raises(DomainError, match="nonnegative"):
        todd_univariate(-1)
    assert issubclass(DomainError, ToricError)


def test_todd_univariate_odd_coefficients_vanish():
    # after t_1 = 1/2 every odd coefficient is zero
    t = todd_univariate(9)
    assert t[3] == t[5] == t[7] == t[9] == 0
    assert t[6] == F(1, 30240)


def test_todd_inverts_generating_series():
    # convolution with x/(1-e^{-x})'s reciprocal series gives exactly 1
    for order in range(9):
        t = todd_univariate(order)
        g = todd_generating_series(order)
        conv = [
            sum(t[i] * g[k - i] for i in range(k + 1)) for k in range(order + 1)
        ]
        assert conv == [F(1)] + [F(0)] * order


def test_todd_class_p1():
    p1 = projective_space(1)
    td = todd_class(p1)
    assert td.parts[()] == 1
    # codim-1 part is half the sum of the two points: total degree 1
    assert degree(td) == 1


def test_todd_class_codim_one_is_half_sum_of_rays():
    td = todd_class(projective_space(2))
    assert td.component(1) == {(0,): F(1, 2), (1,): F(1, 2), (2,): F(1, 2)}


def test_verify_ishida_catalog():
    for name in catalog_names():
        assert verify_ishida(build_catalog(name))


def test_todd_degree_p3_and_p4():
    assert degree(todd_class(build_catalog("p3"))) == 1
    assert degree(todd_class(build_catalog("p4"))) == 1


def _todd_class_longhand(fan, order):
    # same product of per-ray factors, but truncating the univariate series
    # at the given order instead of at fan.dim
    t = todd_univariate(order)
    cls = fundamental_class(fan)
    for rho in range(len(fan.rays)):
        acc = cls.scale(t[0])
        p = cls
        for k in range(1, order + 1):
            p = multiply_ray_divisor(p, rho)
            if not p.parts:
                break
            acc = acc + p.scale(t[k])
        cls = acc
    return cls


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "p1xp1xp1"])
def test_todd_class_stable_under_longer_truncation(name):
    # everything past codimension n dies in the Chow ring, so truncating the
    # factor series at n or n+2 produces the same class
    fan = build_catalog(name)
    td = todd_class(fan)
    longer = _todd_class_longhand(fan, fan.dim + 2)
    assert longer.parts == td.parts
    assert degree(longer) == 1
