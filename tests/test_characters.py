from __future__ import annotations

from fractions import Fraction

import pytest

from liemoments.characters import character_table, character_value
from liemoments.partitions import Partition, partitions_of

from oracles import frobenius_character, hook_dimension, z

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
    assert table.classes == table.labels == tuple(partitions_of(5))
    for lam, row in zip(table.labels, table.values):
        assert row[-1] == hook_dimension(lam.parts)
        for mu, value in zip(table.classes, row):
            assert value == character_value(lam, mu)
    assert table.values[0] == tuple(1 for _ in partitions_of(5))
    # process-level memo returns the same object
    assert character_table(5) is table


def test_column_orthogonality():
    # sum_mu chi_mu(lam) chi_mu(rho) = z(lam) [lam == rho]; the chi_mu(lam)
    # are the Schur coordinates of p_lam that route A reads
    for k in range(1, 8):
        ps = partitions_of(k)
        for lam in ps:
            for rho in ps:
                total = sum(character_value(mu, lam) * character_value(mu, rho) for mu in ps)
                assert total == (z(lam) if lam == rho else 0)
