from __future__ import annotations

from fractions import Fraction

import pytest

from liemoments.characters import character_value
from liemoments.groups import Family
from liemoments.lr import (
    branching_decomposition,
    lr_coefficient,
    paired_partitions,
    schur_product,
)
from liemoments.partitions import Partition, partitions_of, sub_splittings

from oracles import is_horizontal_strip, z

P = Partition.parse


def test_base_cases():
    assert lr_coefficient(P("3,1"), P("3,1"), P("")) == 1
    assert lr_coefficient(P("3,1"), P(""), P("3,1")) == 1
    assert lr_coefficient(P("3,1"), P("2"), P("1")) == 0  # weight mismatch
    assert lr_coefficient(P("2"), P("3"), P("")) == 0  # no containment
    assert lr_coefficient(P(""), P(""), P("")) == 1


def test_classic_multiplicity_two():
    assert lr_coefficient(P("3,2,1"), P("2,1"), P("2,1")) == 2


def test_known_square_of_21():
    expected = {
        P("4,2"): 1,
        P("4,1,1"): 1,
        P("3,3"): 1,
        P("3,2,1"): 2,
        P("3,1,1,1"): 1,
        P("2,2,2"): 1,
        P("2,2,1,1"): 1,
    }
    assert schur_product(P("2,1"), P("2,1")) == expected


def test_pieri_rule():
    # multiplying by a one-row shape adds a horizontal strip
    for total in range(7):
        for w in range(total + 1):
            row = Partition([w] if w else [])
            for mu in partitions_of(total - w):
                for lam in partitions_of(total):
                    expected = 1 if is_horizontal_strip(lam.parts, mu.parts) else 0
                    assert lr_coefficient(lam, mu, row) == expected


def test_dual_pieri_rule():
    # multiplying by a one-column shape adds a vertical strip
    for total in range(7):
        for w in range(total + 1):
            col = Partition([1] * w)
            for mu in partitions_of(total - w):
                for lam in partitions_of(total):
                    expected = (
                        1
                        if is_horizontal_strip(
                            lam.conjugate().parts, mu.conjugate().parts
                        )
                        else 0
                    )
                    assert lr_coefficient(lam, mu, col) == expected


def test_symmetry_in_lower_arguments():
    for total in range(7):
        for lam in partitions_of(total):
            for w in range(total + 1):
                for mu in partitions_of(w):
                    for nu in partitions_of(total - w):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        )


def test_conjugation_symmetry():
    for total in range(7):
        for lam in partitions_of(total):
            for w in range(total + 1):
                for mu in partitions_of(w):
                    for nu in partitions_of(total - w):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam.conjugate(), mu.conjugate(), nu.conjugate()
                        )


def _induction_value(mu: Partition, nu: Partition, rho: Partition) -> int:
    # character of the induced product at class rho via cycle-type splitting
    total = 0
    for rho_a, rho_b, mult in sub_splittings(rho, mu.weight):
        total += mult * character_value(mu, rho_a) * character_value(nu, rho_b)
    return total


@pytest.mark.parametrize("total", range(7))
def test_matches_induction_inner_product(total):
    # c^lam_{mu nu} = <chi_lam, chi_mu . chi_nu> with the induced character
    # computed by splitting cycle types, an entirely different route
    for w in range(total + 1):
        for mu in partitions_of(w):
            for nu in partitions_of(total - w):
                for lam in partitions_of(total):
                    ip = sum(
                        Fraction(
                            character_value(lam, rho) * _induction_value(mu, nu, rho),
                            z(rho),
                        )
                        for rho in partitions_of(total)
                    )
                    assert ip == lr_coefficient(lam, mu, nu)


def test_schur_product_weights_and_positivity():
    prod = schur_product(P("3,1"), P("2,2"))
    assert all(lam.weight == 8 and c > 0 for lam, c in prod.items())
    # total dimension bookkeeping in S_8
    from oracles import hook_dimension
    from math import comb

    total = sum(c * hook_dimension(lam.parts) for lam, c in prod.items())
    assert total == comb(8, 4) * hook_dimension((3, 1)) * hook_dimension((2, 2))


def test_schur_product_row_cap():
    labels = [mu for w in range(5) for mu in partitions_of(w)]
    for mu in labels:
        for nu in labels:
            full = schur_product(mu, nu)
            for rows in range(mu.weight + nu.weight + 1):
                capped = {lam: c for lam, c in full.items() if lam.length <= rows}
                assert list(schur_product(mu, nu, rows).items()) == list(capped.items())


def test_paired_partitions():
    # SO pairs with the partitions whose parts are all even, Sp with those
    # whose multiplicities are all even; conjugation swaps the two
    def canonical(ps):
        return sorted(ps, key=lambda p: p.sort_key)

    assert paired_partitions(Family.SO_EVEN, 4) == [P("4"), P("2,2")]
    assert canonical(paired_partitions(Family.SP, 4)) == [P("2,2"), P("1,1,1,1")]
    for w in range(11):
        so = paired_partitions(Family.SO_EVEN, w)
        sp = paired_partitions(Family.SP, w)
        assert paired_partitions(Family.SO_ODD, w) == so
        assert so == [lam for lam in partitions_of(w) if all(p % 2 == 0 for p in lam)]
        assert canonical(sp) == [
            lam
            for lam in partitions_of(w)
            if all(m % 2 == 0 for m in lam.multiplicities().values())
        ]
        assert canonical(lam.conjugate() for lam in so) == canonical(sp)


def test_branching_symplectic():
    got = branching_decomposition(P("1,1"), Family.SP)
    assert got.coeffs == {P("1,1"): 1, P(""): 1}
    got = branching_decomposition(P("2"), Family.SP)
    assert got.coeffs == {P("2"): 1}
    got = branching_decomposition(P("2,1"), Family.SP)
    assert got.coeffs == {P("2,1"): 1, P("1"): 1}


def test_branching_orthogonal():
    got = branching_decomposition(P("2"), Family.SO_EVEN)
    assert got.coeffs == {P("2"): 1, P(""): 1}
    got = branching_decomposition(P("1,1"), Family.SO_ODD)
    assert got.coeffs == {P("1,1"): 1}
    got = branching_decomposition(P("2,2"), Family.SO_EVEN)
    assert got.coeffs == {P("2,2"): 1, P("2"): 1, P(""): 1}


def test_branching_families_coincide_for_so():
    for k in range(6):
        for lam in partitions_of(k):
            assert (
                branching_decomposition(lam, Family.SO_EVEN).coeffs
                == branching_decomposition(lam, Family.SO_ODD).coeffs
            )


def test_branching_conjugate_duality():
    # the sp and so rules are conjugate-dual shape by shape
    for k in range(6):
        for lam in partitions_of(k):
            sp = branching_decomposition(lam, Family.SP).coeffs
            so = branching_decomposition(lam.conjugate(), Family.SO_EVEN).coeffs
            assert sp == {mu.conjugate(): c for mu, c in so.items()}


def test_branching_weight_parity():
    # removed weight is always even
    for k in range(6):
        for lam in partitions_of(k):
            for fam in (Family.SP, Family.SO_EVEN):
                for mu, c in branching_decomposition(lam, fam).coeffs.items():
                    assert (lam.weight - mu.weight) % 2 == 0
                    assert c > 0
