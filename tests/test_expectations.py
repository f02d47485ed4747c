from __future__ import annotations

import pytest

from liemoments.errors import StableRangeError
from liemoments.expectations import (
    expect_trace_product,
    expect_twisted,
    expect_twisted_route_a,
    expect_twisted_route_b,
)
from liemoments.groups import Family, GroupSpec
from liemoments.matchings import double_factorial
from liemoments.partitions import Partition, partitions_of

P = Partition.parse

SP = GroupSpec.stable(Family.SP)
SO_E = GroupSpec.stable(Family.SO_EVEN)
SO_O = GroupSpec.stable(Family.SO_ODD)
FAMILIES = (SP, SO_E, SO_O)

# stable averages with |lam| <= 4, derived by hand from the signed
# matching counts: value = sgn(lam)^eps * g(lam), eps = 1 only for sp
STABLE_TABLE = {
    ("", 1): 1,
    ("", 0): 1,
    ("1", 1): 0,
    ("1", 0): 0,
    ("2", 1): -1,
    ("2", 0): 1,
    ("1,1", 1): 1,
    ("1,1", 0): 1,
    ("3", 1): 0,
    ("3", 0): 0,
    ("2,1", 1): 0,
    ("2,1", 0): 0,
    ("1,1,1", 1): 0,
    ("1,1,1", 0): 0,
    ("4", 1): -1,
    ("4", 0): 1,
    ("3,1", 1): 0,
    ("3,1", 0): 0,
    ("2,2", 1): 3,
    ("2,2", 0): 3,
    ("2,1,1", 1): -1,
    ("2,1,1", 0): 1,
    ("1,1,1,1", 1): 3,
    ("1,1,1,1", 0): 3,
}


def test_stable_trace_products():
    for (lam_text, eps), expected in STABLE_TABLE.items():
        lam = P(lam_text)
        for G in FAMILIES:
            if G.family.epsilon == eps:
                assert expect_trace_product(G, lam) == expected, (G, lam)


def test_finite_rank_in_stable_range_matches_stable():
    for (lam_text, eps), expected in STABLE_TABLE.items():
        lam = P(lam_text)
        for fam in Family:
            if fam.epsilon != eps:
                continue
            G = GroupSpec(fam, max(lam.weight, 1) + 3)
            assert expect_trace_product(G, lam) == expected


def test_below_stable_range_refused():
    with pytest.raises(StableRangeError):
        expect_trace_product(GroupSpec.sp(1), P("2,2"))
    with pytest.raises(StableRangeError):
        expect_trace_product(GroupSpec.so_odd(2), P("3,1"))
    # orthogonal groups have no fallback at all
    with pytest.raises(StableRangeError):
        expect_trace_product(GroupSpec.so_even(1), P("1,1,1,1"))


def test_rains_branch_values():
    # E over Sp(2n) of (tr g)^k counts involutions with bounded decreasing runs
    assert expect_trace_product(GroupSpec.sp(1), P("1,1,1,1")) == 2
    assert expect_trace_product(GroupSpec.sp(1), P("1,1")) == 1
    assert expect_trace_product(GroupSpec.sp(2), P("1,1,1,1")) == 3  # stable already
    assert expect_trace_product(GroupSpec.sp(1), P("1,1,1")) == 0
    assert expect_trace_product(GroupSpec.sp(2), Partition([1] * 6)) == 14
    assert expect_trace_product(GroupSpec.sp(3), Partition([1] * 6)) == 15


def test_twisted_hand_values():
    assert expect_twisted(SP, P("1"), P("2,1")) == -1
    assert expect_twisted(SO_E, P("1"), P("2,1")) == 1
    assert expect_twisted(SO_O, P("1"), P("2,1")) == 1
    for G in FAMILIES:
        assert expect_twisted(G, P("2"), P("2")) == 1
        assert expect_twisted(G, P("1"), P("1")) == 1


def test_twisted_vanishing():
    for G in FAMILIES:
        # parity: |lam| - |gamma| odd forces zero
        assert expect_twisted(G, P("1"), P("2")) == 0
        assert expect_twisted(G, P("2"), P("2,1")) == 0
        # weight of gamma above the observable forces zero
        assert expect_twisted(G, P("3"), P("1")) == 0
        assert expect_twisted(G, P("2,2"), P("2")) == 0


def test_twisted_trivial_label_reduces_to_plain():
    for G in FAMILIES:
        for k in range(7):
            for lam in partitions_of(k):
                assert expect_twisted(G, P(""), lam) == expect_trace_product(G, lam)


def test_character_average_is_trivial_indicator():
    # E[chi_gamma] = 1 iff gamma is empty
    for G in FAMILIES:
        assert expect_twisted(G, P(""), P("")) == 1
        for j in range(1, 5):
            for gamma in partitions_of(j):
                assert expect_twisted(G, gamma, P("")) == 0


def test_first_row_orthonormality():
    # chi_(1) equals the basic trace, so E[chi_(1) p_(1)] = 1 and higher
    # single-row labels pair to zero against a single trace
    for G in FAMILIES:
        assert expect_twisted(G, P("1"), P("1")) == 1
        assert expect_twisted(G, P("2"), P("1,1")) == 1
        assert expect_twisted(G, P("1,1"), P("1,1")) == 1


def test_all_ones_moments_give_double_factorials():
    for G in FAMILIES:
        for t in range(0, 9, 2):
            assert expect_trace_product(G, Partition([1] * t)) == double_factorial(
                t - 1
            )


@pytest.mark.parametrize("family", list(Family))
def test_routes_agree(family):
    G = GroupSpec.stable(family)
    for k in range(7):
        for lam in partitions_of(k):
            for j in range(k + 1):
                for gamma in partitions_of(j):
                    a = expect_twisted_route_a(G, gamma, lam)
                    b = expect_twisted_route_b(G, gamma, lam)
                    assert a == b, (family, gamma, lam)


def test_twisted_below_stable_range_refused():
    with pytest.raises(StableRangeError):
        expect_twisted(GroupSpec.sp(1), P("1"), P("2,1"))


def test_verify_mode_returns_value():
    assert expect_twisted(SP, P("1"), P("2,1"), verify=True) == -1


def test_chi_one_recursion():
    # multiplying the observable by one extra trace and twisting by a single
    # box obeys E[chi_1 p_lam] = sum over ways the box absorbs one trace:
    # spot check against direct enumeration at small weight
    for G in FAMILIES:
        for k in (1, 3, 5):
            for lam in partitions_of(k):
                value = expect_twisted(G, P("1"), lam)
                by_split = 0
                from liemoments.partitions import sub_splittings

                for a, b, m in sub_splittings(lam, 1):
                    by_split += m * expect_trace_product(G, b)
                assert value == by_split
