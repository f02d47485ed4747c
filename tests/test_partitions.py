from __future__ import annotations

import math

import pytest

from liemoments.errors import ResourceBoundError
from liemoments.partitions import (
    Partition,
    even_partitions_of,
    partitions_of,
    sgn,
    sub_splittings,
    z,
)

P = Partition.parse


def mult_factorial(lam: Partition) -> int:
    """Product of factorials of the part multiplicities."""
    return math.prod(math.factorial(m) for m in lam.multiplicities().values())

# number of partitions of 0..12
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_constructor_normalizes():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition([2, 0, 1, 0]).parts == (2, 1)
    assert Partition([]).parts == ()
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_parse_and_str_round_trip():
    assert P("3,1,1").parts == (3, 1, 1)
    assert P("0").parts == ()
    assert P("").parts == ()
    for text in ("5", "4,4,2,1", "0", ""):
        assert str(P(text)) == ("0" if text in ("", "0") else text)
    with pytest.raises(ValueError):
        P("2,x")
    with pytest.raises(ValueError):
        P("3,-1")


def test_basic_properties():
    lam = P("4,2,2,1")
    assert lam.weight == 9
    assert lam.length == 4
    assert lam.multiplicities() == {4: 1, 2: 2, 1: 1}


def test_enumeration_counts_and_order():
    for k, expected in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(k)) == expected
    fives = [p.parts for p in partitions_of(5)]
    assert fives == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    # enumeration comes out already sorted by the canonical key
    for k in range(9):
        ps = partitions_of(k)
        assert ps == sorted(ps, key=lambda p: p.sort_key)
        assert len(set(ps)) == len(ps)


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError):
        partitions_of(31)
    assert len(partitions_of(30)) == 5604


def test_even_partitions():
    assert [p.parts for p in even_partitions_of(4)] == [(4,), (2, 2)]
    for k in (0, 2, 4, 6, 8, 10):
        evens = even_partitions_of(k)
        assert all(p % 2 == 0 for lam in evens for p in lam)
        # doubling is a bijection with partitions of k/2
        assert len(evens) == len(partitions_of(k // 2))
    assert even_partitions_of(5) == []


def test_conjugate_involution():
    assert P("3,1").conjugate().parts == (2, 1, 1)
    assert P("4,2,2,1").conjugate().parts == (4, 3, 1, 1)
    for k in range(9):
        for lam in partitions_of(k):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().weight == lam.weight


def test_union_contains():
    # the constructor takes a multiset union of parts as it comes
    assert Partition(P("2,1").parts + P("3,1").parts) == P("3,2,1,1")
    assert P("3,2").contains(P("2,2"))
    assert not P("3,2").contains(P("1,1,1"))
    assert P("3,2").contains(P(""))


def test_centralizer_order_and_sign():
    assert z(P("1,1,1,1")) == math.factorial(4)
    assert z(P("4")) == 4
    assert z(P("2,2")) == 8
    assert z(P("2,1")) == 2
    assert z(P("")) == 1
    assert sgn(P("2,1")) == -1
    assert sgn(P("3")) == 1
    assert sgn(P("2,2")) == 1
    assert sgn(P("")) == 1
    # class equation: sum over classes of k!/z = k!
    for k in range(1, 10):
        assert sum(math.factorial(k) // z(lam) for lam in partitions_of(k)) == math.factorial(k)


def test_mult_factorial():
    assert mult_factorial(P("2,1,1")) == 2
    assert mult_factorial(P("3,3,3")) == 6
    assert mult_factorial(P("")) == 1


def test_sub_splittings_small():
    got = sub_splittings(P("2,1,1"), 2)
    assert [(a.parts, b.parts, m) for a, b, m in got] == [
        ((2,), (1, 1), 1),
        ((1, 1), (2,), 1),
    ]
    assert sub_splittings(P(""), 0) == [(P(""), P(""), 1)]
    with pytest.raises(ValueError):
        sub_splittings(P("2,1"), 4)
    with pytest.raises(ValueError):
        sub_splittings(P("2,1"), -1)


def test_sub_splittings_structure():
    for k in range(7):
        for lam in partitions_of(k):
            total = 0
            for w in range(k + 1):
                for a, b, m in sub_splittings(lam, w):
                    assert a.weight == w and b.weight == k - w
                    assert Partition(a.parts + b.parts) == lam
                    # multiplicity is the product of binomials of multiplicities
                    assert m == mult_factorial(lam) // (
                        mult_factorial(a) * mult_factorial(b)
                    )
                    total += m
            # every subset of the parts appears exactly once in total
            assert total == 2**lam.length
