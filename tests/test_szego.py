from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from liemoments.groups import Family, GroupSpec
from liemoments.lr import branching_decomposition, schur_product
from liemoments.partitions import Partition, partitions_of
from liemoments.szego import (
    FourierData,
    SchurSpecialization,
    expect_phi_series,
    johansson_limit,
    ratio_character_sum,
    ratio_schur_specialization,
    twisted_asymptotic,
    weyl_dimension,
)

P = Partition.parse


def test_fourier_parse_exact_mode():
    f = FourierData.parse("c1=1/2,c2=-1/10")
    assert f.exact
    assert f.coeffs == {1: Fraction(1, 2), 2: Fraction(-1, 10)}
    assert f.c0 == 0
    assert f.support == (1, 2)


def test_fourier_parse_float_mode():
    f = FourierData.parse("c1=0.3,c2=-1/10")
    assert not f.exact
    assert f.coeffs == {1: pytest.approx(0.3), 2: pytest.approx(-0.1)}


def test_fourier_parse_c0_and_empty():
    f = FourierData.parse("c0=2,c3=1")
    assert f.c0 == 2 and f.support == (3,)
    assert FourierData.parse("").support == ()
    with pytest.raises(ValueError):
        FourierData.parse("d1=2")
    with pytest.raises(ValueError):
        FourierData.parse("c1")


@pytest.mark.parametrize(
    "text, want",
    [
        ("", ("exact", {}, 0)),
        ("c1=1/2,c2=-1/10", ("exact", {1: Fraction(1, 2), 2: Fraction(-1, 10)}, 0)),
        ("  c1 = 1/2 ,  c3=2 ", ("exact", {1: Fraction(1, 2), 3: 2}, 0)),
        ("C2=+3", ("exact", {2: 3}, 0)),
        ("c0=-2,c1=0", ("exact", {}, -2)),
        ("c0=1/2,c1=0.25", ("float", {1: 0.25}, 0.5)),
        ("c1=1e-3", ("float", {1: 0.001}, 0.0)),
        ("c1=-0.5,c2=1/4", ("float", {1: -0.5, 2: 0.25}, 0.0)),
        ("c1=1,", ValueError),
        (",", ValueError),
        ("c-1=2", ValueError),
        ("c1", ValueError),
        ("d1=2", ValueError),
        ("c=1", ValueError),
        ("c1=", ValueError),
        ("c1=zero", ValueError),
        ("c1=nan", ValueError),
        ("c1=inf", ValueError),
        ("c1=1/0", ValueError),
        ("c1=0.5,c2=1/0", ValueError),
        ("c1=1,c1=2", ValueError),
        ("c0=1,c00=2", ValueError),
    ],
)
def test_fourier_parse_table(text, want):
    if want is ValueError:
        with pytest.raises(ValueError):
            FourierData.parse(text)
        return
    mode, coeffs, c0 = want
    f = FourierData.parse(text)
    assert f.exact == (mode == "exact")
    assert f.coeffs == coeffs and f.c0 == c0
    kind = Fraction if f.exact else float
    assert all(type(v) is kind for v in [f.c0, *f.coeffs.values()])


def test_fourier_construction_rules():
    assert FourierData({1: 0, 2: Fraction(1, 3)}).support == (2,)
    with pytest.raises(ValueError):
        FourierData({0: 1})
    with pytest.raises(ValueError):
        FourierData({-2: 1})
    f = FourierData({2: Fraction(1, 2)}, c0=1)
    assert f.exact and f.c0 == 1
    assert f == FourierData([(2, Fraction(1, 2))], Fraction(1))
    g = FourierData({2: Fraction(1, 2), 3: 0.25}, c0=1)
    assert not g.exact and type(g.c0) is float and g.coeffs == {2: 0.5, 3: 0.25}
    assert FourierData({3: 1, 1: 2}).support == (1, 3)
    assert len({f, FourierData({2: Fraction(1, 2)}, c0=1)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.c0 = 2


def test_ratio_closed_forms_small_labels():
    f = FourierData({1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 5)})
    c1, c2, c3 = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    assert ratio_character_sum(P(""), f) == 1
    assert ratio_character_sum(P("1"), f) == c1
    assert ratio_character_sum(P("2"), f) == c1**2 / 2 + c2
    assert ratio_schur_specialization(P("1,1"), f) == c1**2 / 2 - c2
    assert ratio_schur_specialization(P("2,1"), f) == c1**3 / 3 - c3
    assert ratio_character_sum(P("2,1"), f) == Fraction(1, 24) - Fraction(1, 5)


def test_ratio_forms_agree_random_rationals():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = {
            i: Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
            for i in range(1, 8)
            if rng.random() < 0.7
        }
        f = FourierData(coeffs)
        for k in range(8):
            gamma = rng.choice(partitions_of(k))
            spec = SchurSpecialization.compute(gamma, f, verify=True)
            assert spec.gamma == gamma


def test_ratio_multiplicative_under_lr():
    # specializing p_i -> i c_i is a ring map, so R(mu) R(nu) expands by
    # the product coefficients
    f = FourierData({1: Fraction(2, 3), 2: Fraction(-1, 2), 3: Fraction(1, 4)})
    for mu_w in range(4):
        for nu_w in range(0, 7 - mu_w):
            for mu in partitions_of(mu_w):
                for nu in partitions_of(nu_w):
                    lhs = ratio_character_sum(mu, f) * ratio_character_sum(nu, f)
                    rhs = sum(
                        c * ratio_character_sum(lam, f)
                        for lam, c in schur_product(mu, nu).items()
                    )
                    assert lhs == rhs


def test_johansson_limits():
    f = FourierData({1: 0.3})
    assert johansson_limit(Family.SP, f) == pytest.approx(math.exp(0.045))
    assert johansson_limit(Family.SO_ODD, f) == pytest.approx(math.exp(0.045))
    assert johansson_limit(Family.SO_EVEN, f) == pytest.approx(math.exp(0.045))
    zero = FourierData({})
    for family in Family:
        assert johansson_limit(family, zero) == 1.0


def test_johansson_log_identity_even_support():
    # with only even-index coefficients the sp and so-even linear terms cancel
    f = FourierData({2: 0.25, 4: -0.125})
    quad = sum(i * c * c for i, c in f.coeffs.items())
    lhs = math.log(johansson_limit(Family.SO_EVEN, f)) + math.log(
        johansson_limit(Family.SP, f)
    )
    assert lhs == pytest.approx(quad)
    # full traces: the fixed eigenvalue +1 of so-odd adds sum c_i to the
    # exponent, so so-odd has the so-even limit
    assert johansson_limit(Family.SO_ODD, f) == pytest.approx(
        math.exp(quad / 2 + 0.125)
    )
    g = FourierData({1: 0.3, 2: 0.25})
    assert johansson_limit(Family.SO_ODD, g) == johansson_limit(Family.SO_EVEN, g)


def test_twisted_asymptotic():
    f = FourierData({1: 0.3})
    assert twisted_asymptotic(Family.SP, P("1"), f) == pytest.approx(
        0.3 * math.exp(0.045)
    )
    for family in Family:
        assert twisted_asymptotic(family, P(""), f) == johansson_limit(family, f)
    assert twisted_asymptotic(Family.SO_ODD, P("2"), FourierData({})) == 0.0


def test_phi_series_exact_plain():
    G = GroupSpec.sp(6)
    f = FourierData({1: Fraction(1, 2)})
    value, tail = expect_phi_series(G, P(""), f, 6)
    # hand sum: sum over even a of (1/2)^a (a-1)!! / a!
    assert value == Fraction(3481, 3072)
    assert tail >= 0.0


def test_phi_series_exact_twisted():
    G = GroupSpec.so_even(6)
    f = FourierData({1: Fraction(1, 2)})
    value, tail = expect_phi_series(G, P("1"), f, 6)
    # odd a contribute a(a-2)!! (1/2)^a / a!
    assert value == Fraction(145, 256)
    assert isinstance(value, Fraction)
    assert tail >= 0.0


def test_phi_series_trivial_cases():
    G = GroupSpec.so_odd(4)
    value, tail = expect_phi_series(G, P(""), FourierData({}), 4)
    assert value == 1 and tail == 0.0
    value, tail = expect_phi_series(G, P(""), FourierData({}, c0=1.5), 3)
    assert value == pytest.approx(math.exp(4 * 1.5))


def test_phi_series_domain_errors():
    G = GroupSpec.sp(3)
    f = FourierData({1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        expect_phi_series(G, P(""), f, 4)  # cutoff above rank
    with pytest.raises(ValueError):
        expect_phi_series(G, P(""), f, -1)
    with pytest.raises(ValueError):
        expect_phi_series(GroupSpec.stable(Family.SP), P(""), f, 2)


def test_phi_series_tail_honest_against_limit():
    f = FourierData({1: Fraction(1, 2)})
    limit = johansson_limit(Family.SP, f)
    for n in (2, 4, 6, 8):
        value, tail = expect_phi_series(GroupSpec.sp(n), P(""), f, n)
        assert abs(float(value) - limit) <= tail
    # the truncation itself converges to the limit quickly here
    value, _ = expect_phi_series(GroupSpec.sp(10), P(""), f, 10)
    assert abs(float(value) - limit) < 1e-6


def test_weyl_dimension_values():
    assert weyl_dimension(Family.SP, 1, P("3")) == 4
    assert weyl_dimension(Family.SP, 2, P("1,1")) == 5
    assert weyl_dimension(Family.SP, 3, P("1,1,1")) == 14
    assert weyl_dimension(Family.SO_ODD, 1, P("4")) == 9
    assert weyl_dimension(Family.SO_ODD, 2, P("1,1")) == 10
    assert weyl_dimension(Family.SO_EVEN, 2, P("1,1")) == 6
    for n in (1, 2, 3, 4):
        assert weyl_dimension(Family.SP, n, P("1")) == 2 * n
        assert weyl_dimension(Family.SO_ODD, n, P("1")) == 2 * n + 1
        if n >= 2:
            assert weyl_dimension(Family.SO_EVEN, n, P("1")) == 2 * n
        for family in Family:
            assert weyl_dimension(family, n, P("")) == 1
    with pytest.raises(ValueError):
        weyl_dimension(Family.SP, 2, P("1,1,1"))


def _gl_dimension(lam: Partition, m: int) -> int:
    # content over hook product for the general linear dimension
    parts = lam.parts
    conj = lam.conjugate().parts
    num, den = 1, 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= m + j - i
            den *= (row - j) + (conj[j] - i) - 1
    assert num % den == 0
    return num // den


def test_branching_dimension_bookkeeping():
    # restricting the Schur character preserves total dimension; ties
    # together the product rule, the branching rule and the dimension formula
    n = 4
    sizes = {Family.SP: 2 * n, Family.SO_EVEN: 2 * n, Family.SO_ODD: 2 * n + 1}
    for family, m in sizes.items():
        for k in range(5):
            for lam in partitions_of(k):
                target = branching_decomposition(lam, family)
                total = sum(
                    c * weyl_dimension(family, n, mu)
                    for mu, c in target.coeffs.items()
                )
                assert total == _gl_dimension(lam, m), (family, lam)

