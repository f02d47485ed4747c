from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from oracles import weyl_product_dimension, weyl_twisted_average

from liemoments import expectations, szego
from liemoments.errors import ConsistencyError, ResourceBoundError
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
    assert f.coeffs == {1: Fraction(1, 2), 2: Fraction(-1, 10)}
    assert f.c0 == 0
    assert f.support == (1, 2)


def test_fourier_parse_float_mode():
    # a decimal literal is the rational it spells, not the nearest double
    f = FourierData.parse("c1=0.3,c2=-1/10")
    assert f.coeffs == {1: Fraction(3, 10), 2: Fraction(-1, 10)}
    assert float(f.coeffs[1]) == 0.3


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
        ("", ({}, 0)),
        ("c1=1/2,c2=-1/10", ({1: Fraction(1, 2), 2: Fraction(-1, 10)}, 0)),
        ("  c1 = 1/2 ,  c3=2 ", ({1: Fraction(1, 2), 3: 2}, 0)),
        ("C2=+3", ({2: 3}, 0)),
        ("c0=-2,c1=0", ({}, -2)),
        ("c0=1/2,c1=0.25", ({1: Fraction(1, 4)}, Fraction(1, 2))),
        ("c1=1e-3", ({1: Fraction(1, 1000)}, 0)),
        ("c1=-0.5,c2=1/4", ({1: Fraction(-1, 2), 2: Fraction(1, 4)}, 0)),
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
    coeffs, c0 = want
    f = FourierData.parse(text)
    assert f.coeffs == coeffs and f.c0 == c0
    assert all(type(v) is Fraction for v in [f.c0, *f.coeffs.values()])


def test_fourier_construction_rules():
    assert FourierData({1: 0, 2: Fraction(1, 3)}).support == (2,)
    with pytest.raises(ValueError):
        FourierData({0: 1})
    with pytest.raises(ValueError):
        FourierData({-2: 1})
    f = FourierData({2: Fraction(1, 2)}, c0=1)
    assert type(f.c0) is Fraction and f.c0 == 1
    assert f == FourierData([(2, Fraction(1, 2))], Fraction(1))
    g = FourierData({2: Fraction(1, 2), 3: 0.25}, c0=1)
    assert type(g.c0) is Fraction and g.coeffs == {2: Fraction(1, 2), 3: Fraction(1, 4)}
    # a float is stored at its exact binary value
    assert FourierData({1: 0.3}).coeffs[1] == Fraction(5404319552844595, 18014398509481984)
    assert FourierData({3: 1, 1: 2}).support == (1, 3)
    assert len({f, FourierData({2: Fraction(1, 2)}, c0=1)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.c0 = 2


def test_coefficient_size_bound():
    """Numerators and denominators above 2^1100 are refused for every
    spelling; the exact value of every finite double fits."""
    bound = 2**1100
    for big in ("c1=1e400", "c1=1e-400", "c2=1e100000", "c1=1e1000000000", f"c3=1/{bound + 1}"):
        with pytest.raises(ValueError, match=r"above 2\^1100"):
            FourierData.parse(big)
    assert FourierData.parse(f"c1=-{bound}/{bound - 1}").coeffs[1] == Fraction(-bound, bound - 1)
    assert FourierData.parse("c1=0e-99").support == ()
    for tiny_or_huge in (5e-324, 1.7976931348623157e308):
        assert FourierData({1: tiny_or_huge}).coeffs[1] == Fraction(tiny_or_huge)
    with pytest.raises(ValueError, match=r"above 2\^1100"):
        FourierData({1: Fraction(1, 3 * 2**1099)})
    for i, bad in ((1, math.inf), (4, -math.inf), (2, math.nan)):
        with pytest.raises(ValueError, match=f"coefficient c{i} "):
            FourierData({i: bad})
    with pytest.raises(ValueError, match="coefficient c0 "):
        FourierData({1: 1}, c0=math.inf)


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


def test_ratio_forms_agree_random_floats():
    """Float symbols, sparse ones included, read at their exact binary
    values: the two forms are equal at every label of weight <= 7."""
    rng = random.Random(11)
    for _ in range(60):
        density = rng.choice([0.3, 0.7, 1.0])
        f = FourierData({i: rng.uniform(-3, 3) for i in range(1, 8) if rng.random() < density})
        for k in range(8):
            for gamma in partitions_of(k):
                SchurSpecialization.compute(gamma, f, verify=True)


@pytest.mark.parametrize("gamma", ["1", "2", "3", "2,1", "1,1,1"])
def test_float_ratio_check_catches_small_relative_error(gamma, monkeypatch):
    """A determinant off by the exact relative error 10^-40, on a decimal
    symbol and on a binary-float one, fails the check; without verify it is
    not read."""
    exact = szego.ratio_schur_specialization
    monkeypatch.setattr(
        szego,
        "ratio_schur_specialization",
        lambda g, data: exact(g, data) * (1 + Fraction(1, 10**40)),
    )
    for f in (FourierData.parse("c1=0.3,c2=0.1,c3=0.05"), FourierData({1: 0.3, 2: 0.1, 3: 0.05})):
        with pytest.raises(ConsistencyError):
            SchurSpecialization.compute(P(gamma), f, verify=True)
        value = SchurSpecialization.compute(P(gamma), f).value
        assert value == ratio_character_sum(P(gamma), f) == exact(P(gamma), f)


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


def test_phi_series_rounds_the_exact_sum_once_when_c0_is_nonzero():
    # the terms are summed as rationals, then rounded and scaled by e^{n c0};
    # rounding each term first moves the last bits (...7349a and ...1204b)
    G = GroupSpec.so_odd(3)
    f = FourierData.parse("c0=1/8,c1=-1/4,c2=-1/6,c3=-1/8")
    for cutoff, want in ((3, "-0x1.001417da73499p-3"), (5, "-0x1.bacd693f12048p-4")):
        value, _ = expect_phi_series(G, P("3"), f, cutoff)
        exact, _ = expect_phi_series(G, P("3"), dataclasses.replace(f, c0=0), cutoff)
        assert value.hex() == want, cutoff
        assert value == float(exact) * math.exp(3 / 8)


def test_phi_series_domain_errors(monkeypatch):
    G = GroupSpec.sp(3)
    f = FourierData({1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        expect_phi_series(G, P(""), f, -1)
    with pytest.raises(ValueError):
        expect_phi_series(GroupSpec.stable(Family.SP), P(""), f, 2)

    # a label longer than the rank is refused before any term is averaged
    def no_route(*args):
        raise AssertionError("averaged a term for an invalid label")

    monkeypatch.setattr(expectations, "expect_twisted_route_b", no_route)
    with pytest.raises(ValueError, match="longer than the rank"):
        expect_phi_series(GroupSpec.sp(2), P("1,1,1"), f, 2)


def test_phi_series_takes_the_involution_count_below_the_range():
    # E over Sp(2) of (tr g)^w is 1, 0, 1, 0, 2 for w = 0..4, so the series
    # of exp(tr g / 2) cut at weight 4 is 1 + 1/8 + 2/(16 * 24) = 217/192
    value, tail = expect_phi_series(GroupSpec.sp(1), P(""), FourierData({1: Fraction(1, 2)}), 4)
    assert value == Fraction(217, 192)
    assert tail == pytest.approx(math.e - sum(1 / math.factorial(w) for w in range(5)))


def test_phi_series_answers_every_term_below_the_range():
    # on Sp(2) the weight-4 terms p_(2,2) and p_(2,1,1) lie below the closed
    # form's range; each term matches the Weyl-integration oracle
    f = FourierData({1: Fraction(1, 2), 2: Fraction(1, 3)})
    value, _ = expect_phi_series(GroupSpec.sp(1), P(""), f, 4)
    terms = (t for w in range(5) for t in szego._phi_coefficients(f, w))
    want = sum(float(c) * weyl_twisted_average(Family.SP, 1, (), lam.parts) for lam, c in terms)
    assert value == Fraction(523, 576)
    assert abs(float(value) - want) <= 1e-12


def test_phi_coefficients_list_supported_partitions_in_canonical_order():
    # the same partitions, in the same order, as filtering partitions_of
    for support in ((1,), (2,), (1, 2, 4), (3, 5), (2, 7), (1, 2, 3, 4, 5, 6)):
        f = FourierData({i: Fraction(1, i + 1) for i in support})
        for w in range(13):
            want = [lam for lam in partitions_of(w) if set(lam.parts) <= set(support)]
            assert [lam for lam, _ in szego._phi_coefficients(f, w)] == want


def test_phi_series_sparse_support_beyond_enumeration_bound():
    # only partitions into the support are listed, so a cutoff above the
    # bound on partitions of one weight is served; values from before the
    # coefficient generator was shared
    value, tail = expect_phi_series(GroupSpec.sp(36), P(""), FourierData({5: Fraction(1, 2)}), 35)
    assert value == Fraction(5717, 3072)
    assert tail == pytest.approx(float.fromhex("0x1.ea2159f89842ep+51"), rel=1e-12)
    f = FourierData({7: Fraction(-1, 3), 10: Fraction(1, 4)})
    value, tail = expect_phi_series(GroupSpec.sp(40), P("1"), f, 40)
    assert value == 0
    assert tail == pytest.approx(float.fromhex("0x1.9110f42a36bb8p+73"), rel=1e-12)


def test_ratio_keeps_the_enumeration_bound():
    # the character sum runs over the classes of S_|gamma|
    f = FourierData({1: Fraction(1, 2)})
    with pytest.raises(ResourceBoundError):
        ratio_character_sum(P("31"), f)


def test_phi_series_tail_honest_against_limit():
    f = FourierData({1: Fraction(1, 2)})
    limit = johansson_limit(Family.SP, f)
    for n in (2, 4, 6, 8):
        value, tail = expect_phi_series(GroupSpec.sp(n), P(""), f, n)
        assert abs(float(value) - limit) <= tail
    # the truncation itself converges to the limit quickly here
    value, _ = expect_phi_series(GroupSpec.sp(10), P(""), f, 10)
    assert abs(float(value) - limit) < 1e-6


# expect_phi_series at rank 4 with c1 = 1/3, c2 = -1/5, c4 = 1/7 (no c3, so
# the support has a gap): (exact value, tail bound) for cutoffs 0..4, per
# family and label.  Each tail bound moves by far more than 1e-12 if the
# retained weight m^l(lam) |coefficient| takes the exponent l(lam) +- 1.
_PHI_PINS = {
    ("sp", ""): [
        ("1", 222.52512179934843),
        ("1", 219.85845513268177),
        ("113/90", 214.7028995771262),
        ("113/90", 207.27573908329904),
        ("134419/113400", 197.05699716677935),
    ],
    ("sp", "1"): [
        ("0", 1780.2009743947874),
        ("1/3", 1758.8676410614542),
        ("1/3", 1717.6231966170096),
        ("113/270", 1658.2059126663924),
        ("113/270", 1576.4559773342348),
    ],
    ("sp", "2"): [
        ("0", 8010.904384776543),
        ("0", 7914.904384776543),
        ("-13/90", 7729.304384776543),
        ("-13/90", 7461.926606998765),
        ("-1469/8100", 7094.051898004057),
    ],
    ("sp", "1,1"): [
        ("0", 6008.178288582408),
        ("0", 5936.178288582408),
        ("23/90", 5796.978288582408),
        ("23/90", 5596.444955249074),
        ("2599/8100", 5320.5389235030425),
    ],
    ("so-even", ""): [
        ("1", 222.52512179934843),
        ("1", 219.85845513268177),
        ("77/90", 214.7028995771262),
        ("77/90", 207.27573908329904),
        ("118939/113400", 197.05699716677935),
    ],
    ("so-even", "1"): [
        ("0", 1780.2009743947874),
        ("1/3", 1758.8676410614542),
        ("1/3", 1717.6231966170096),
        ("77/270", 1658.2059126663924),
        ("77/270", 1576.4559773342348),
    ],
    ("so-even", "2"): [
        ("0", 7788.379262977195),
        ("0", 7695.045929643862),
        ("-13/90", 7514.601485199417),
        ("-13/90", 7254.650867915467),
        ("-1001/8100", 6896.994900837278),
    ],
    ("so-even", "1,1"): [
        ("0", 6230.703410381756),
        ("0", 6156.03674371509),
        ("23/90", 6011.681188159534),
        ("23/90", 5803.720694332374),
        ("1771/8100", 5517.595920669822),
    ],
    ("so-odd", ""): [
        ("1", 438.53365318326144),
        ("1", 435.53365318326144),
        ("77/90", 429.2336531832614),
        ("77/90", 419.33365318326145),
        ("118939/113400", 404.95293889754714),
    ],
    ("so-odd", "1"): [
        ("0", 3946.802878649353),
        ("1/3", 3919.802878649353),
        ("1/3", 3863.102878649353),
        ("77/270", 3774.002878649353),
        ("77/270", 3644.576450077924),
    ],
    ("so-odd", "2"): [
        ("0", 19295.480740063504),
        ("0", 19163.480740063504),
        ("-13/90", 18886.280740063503),
        ("-13/90", 18450.680740063504),
        ("-1001/8100", 17817.929311492073),
    ],
    ("so-odd", "1,1"): [
        ("0", 15787.211514597411),
        ("0", 15679.211514597411),
        ("23/90", 15452.411514597412),
        ("23/90", 15096.011514597412),
        ("1771/8100", 14578.305800311697),
    ],
}


@pytest.mark.parametrize("family, gamma", list(_PHI_PINS))
def test_phi_series_pinned(family, gamma):
    G = GroupSpec(Family.parse(family), 4)
    f = FourierData({1: Fraction(1, 3), 2: Fraction(-1, 5), 4: Fraction(1, 7)})
    for cutoff, (value, tail) in enumerate(_PHI_PINS[family, gamma]):
        got, got_tail = expect_phi_series(G, P(gamma), f, cutoff)
        assert isinstance(got, (int, Fraction)) and got == Fraction(value), cutoff
        assert got_tail == pytest.approx(tail, rel=1e-12, abs=0), cutoff


def test_weyl_dimension_values():
    assert weyl_dimension(Family.SP, 1, P("3")) == 4
    assert weyl_dimension(Family.SP, 2, P("1,1")) == 5
    assert weyl_dimension(Family.SP, 3, P("1,1,1")) == 14
    assert weyl_dimension(Family.SO_ODD, 1, P("4")) == 9
    assert weyl_dimension(Family.SO_ODD, 2, P("1,1")) == 10
    assert weyl_dimension(Family.SO_EVEN, 2, P("1,1")) == 6
    # Lambda^3 of C^9; a determinant that divides ints as floats gives 83
    assert weyl_dimension(Family.SO_ODD, 4, P("1,1,1")) == 84
    for n in (1, 2, 3, 4):
        assert weyl_dimension(Family.SP, n, P("1")) == 2 * n
        assert weyl_dimension(Family.SO_ODD, n, P("1")) == 2 * n + 1
        if n >= 2:
            assert weyl_dimension(Family.SO_EVEN, n, P("1")) == 2 * n
        for family in Family:
            assert weyl_dimension(family, n, P("")) == 1
    with pytest.raises(ValueError):
        weyl_dimension(Family.SP, 2, P("1,1,1"))


def test_weyl_dimension_is_the_product_formula():
    """The determinant at the identity equals Weyl's product formula on
    every label that fits the rank, n <= 7 and |gamma| <= 10."""
    cells = 0
    for family in Family:
        for n in range(1, 8):
            for gamma in (g for w in range(11) for g in partitions_of(w) if g.length <= n):
                want = weyl_product_dimension(family, n, gamma.parts)
                assert weyl_dimension(family, n, gamma) == want, (family, n, gamma)
                cells += 1
    assert cells == 1734


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

