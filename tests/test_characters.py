from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from liemoments.characters import character_table, character_value, jacobi_trudi
from liemoments.groups import Family
from liemoments.partitions import Partition, partitions_of
from liemoments.sampling import weyl_character_batch

from oracles import frobenius_character, hook_dimension, koike_terada_character, z

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


@pytest.mark.parametrize("family", list(Family))
def test_koike_terada_forms_at_torus_points(family):
    """At random torus points of rank n <= 3, the family's Jacobi-Trudi form
    at every label |delta| <= 8, longer than the rank too, equals the
    oracle's determinant, whose h_k are eigenvalue products; h_k here comes
    from the power sums by Newton's identity.  Labels that fit the rank
    also equal the sampler's Weyl character, which ties the Monte Carlo
    convention (mirror sums on SO(2n) included) to the exact one."""
    rng = np.random.default_rng(11)
    labels = [d for w in range(9) for d in partitions_of(w)]
    checks, worst = 0, 0.0
    for n in range(1, 4):
        angles = rng.uniform(0.1, np.pi - 0.1, size=(5, n))
        weyl = {d: weyl_character_batch(family, d, angles)[0] for d in labels if d.length <= n}
        for row, theta in enumerate(angles):
            fixed = 1.0 if family is Family.SO_ODD else 0.0
            p = [fixed + 2.0 * np.cos(k * theta).sum() for k in range(1, 9)]
            h = [1.0]
            for k in range(1, 9):
                h.append(sum(p[r - 1] * h[k - r] for r in range(1, k + 1)) / k)
            for delta in labels:
                got = jacobi_trudi(family, delta, h.__getitem__)
                wants = [koike_terada_character(family, n, delta.parts, theta)]
                wants += [weyl[delta][row]] if delta in weyl else []
                for want in wants:
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                    checks += 1
    assert checks == 3 * 5 * 67 + 5 * (9 + 25 + 41)
    assert worst <= 1e-8, worst  # 2.9e-13 at this seed; a wrong sign or index errs by O(1)
