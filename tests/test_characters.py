from __future__ import annotations

from fractions import Fraction

import pytest

from liemoments.characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    character_value,
    induction_product,
    inner_product,
    irreducible,
    power_sum_expansion,
)
from liemoments.partitions import Partition, partitions_of, z

from oracles import frobenius_character, hook_dimension

P = Partition.parse


def test_known_table_k3():
    order = [p.parts for p in partitions_of(3)]
    assert order == [(3,), (2, 1), (1, 1, 1)]
    assert [character_value(P("3"), mu) for mu in partitions_of(3)] == [1, 1, 1]
    assert [character_value(P("2,1"), mu) for mu in partitions_of(3)] == [-1, 0, 2]
    assert [character_value(P("1,1,1"), mu) for mu in partitions_of(3)] == [1, -1, 1]


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value(P("2,1"), P("2"))


def test_empty_and_single_box():
    assert character_value(P(""), P("")) == 1
    assert character_value(P("1"), P("1")) == 1


@pytest.mark.parametrize("k", range(7))
def test_against_frobenius_oracle(k):
    for lam in partitions_of(k):
        for mu in partitions_of(k):
            assert character_value(lam, mu) == frobenius_character(lam.parts, mu.parts)


@pytest.mark.parametrize("k", range(1, 8))
def test_dimension_is_hook_count(k):
    identity = Partition([1] * k)
    for lam in partitions_of(k):
        assert character_value(lam, identity) == hook_dimension(lam.parts)


@pytest.mark.parametrize("k", range(1, 8))
def test_row_orthogonality(k):
    ps = partitions_of(k)
    for a in ps:
        for b in ps:
            ip = sum(
                Fraction(character_value(a, mu) * character_value(b, mu), z(mu))
                for mu in ps
            )
            assert ip == (1 if a == b else 0)


def test_sign_character_is_conjugate_twist():
    # chi_lam tensored with sign equals chi of the conjugate
    for k in range(1, 8):
        sign = Partition([1] * k)
        for lam in partitions_of(k):
            for mu in partitions_of(k):
                lhs = character_value(sign, mu) * character_value(lam, mu)
                assert lhs == character_value(lam.conjugate(), mu)


def test_table_build_and_lookup():
    table = character_table(5)
    assert table.k == 5
    assert table.classes == table.labels
    for lam in partitions_of(5):
        assert table.dimension(lam) == hook_dimension(lam.parts)
        for mu in partitions_of(5):
            assert table.value(lam, mu) == character_value(lam, mu)
    assert table.row(P("5")) == tuple(1 for _ in partitions_of(5))
    # process-level memo returns the same object
    assert character_table(5) is table


def test_class_function_construction():
    cf = ClassFunction(3, {P("2,1"): 2, P("3"): 0})
    assert cf.coefficient(P("2,1")) == 2
    assert cf.coefficient(P("3")) == 0
    assert cf.value_at(P("1,1,1")) == 4
    with pytest.raises(ValueError):
        ClassFunction(3, {P("2"): 1})


def test_irreducible_orthonormal():
    for k in range(6):
        for a in partitions_of(k):
            for b in partitions_of(k):
                assert inner_product(irreducible(a), irreducible(b)) == (
                    1 if a == b else 0
                )


def test_power_sum_expansion():
    # p_lam = sum_mu chi_mu(lam) chi_mu, so the value at rho recovers the
    # indicator z(lam) * [lam == rho] by column orthogonality
    for k in range(1, 7):
        for lam in partitions_of(k):
            p = power_sum_expansion(lam)
            for mu in partitions_of(k):
                assert p.coefficient(mu) == character_value(mu, lam)
            for rho in partitions_of(k):
                expected = z(lam) if rho == lam else 0
                assert p.value_at(rho) == expected


def test_induction_product_pieri():
    got = induction_product(irreducible(P("1")), irreducible(P("1")))
    assert got.coefficient(P("2")) == 1
    assert got.coefficient(P("1,1")) == 1
    got = induction_product(irreducible(P("2,1")), irreducible(P("1")))
    for mu, c in {P("3,1"): 1, P("2,2"): 1, P("2,1,1"): 1, P("4"): 0}.items():
        assert got.coefficient(mu) == c


def test_induction_product_dimensions():
    # dim Ind(a x b) = binom(j+m, j) * dim a * dim b
    from math import comb

    a, b = P("2,1"), P("2")
    prod = induction_product(irreducible(a), irreducible(b))
    total = prod.value_at(Partition([1] * 5))
    assert total == comb(5, 3) * hook_dimension(a.parts) * hook_dimension(b.parts)


