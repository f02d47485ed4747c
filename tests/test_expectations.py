from __future__ import annotations

from itertools import count

import pytest
import numpy as np
from oracles import koike_terada_character, torus_average, weyl_character, weyl_twisted_average

from liemoments import expectations, lr
from liemoments.characters import king_rule
from liemoments.errors import ConsistencyError, StableRangeError
from liemoments.expectations import (
    expect_trace_product,
    expect_twisted,
    expect_twisted_route_a,
    expect_twisted_route_b,
    rains_short_label_sum,
)
from liemoments.groups import Family, GroupSpec, mirror_factor
from liemoments.matchings import double_factorial, fpf_involutions_lds
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
    # route B refuses these cells; the entry point answers them through
    # King's rule, values from the Weyl-integration oracle
    cells = [
        (GroupSpec.sp(1), "2,2", 2),
        (GroupSpec.so_odd(1), "2,1", -1),
        (GroupSpec.so_even(1), "1,1,1,1", 6),
    ]
    for G, lam, want in cells:
        with pytest.raises(StableRangeError):
            expect_twisted_route_b(G, P(""), P(lam))
        assert expect_trace_product(G, P(lam)) == want, (G, lam)


def test_rains_branch_values():
    # E over Sp(2n) of (tr g)^k counts involutions with bounded decreasing runs
    assert expect_trace_product(GroupSpec.sp(1), P("1,1,1,1")) == 2
    assert expect_trace_product(GroupSpec.sp(1), P("1,1")) == 1
    assert expect_trace_product(GroupSpec.sp(2), P("1,1,1,1")) == 3  # stable already
    assert expect_trace_product(GroupSpec.sp(1), P("1,1,1")) == 0
    assert expect_trace_product(GroupSpec.sp(2), Partition([1] * 6)) == 14
    assert expect_trace_product(GroupSpec.sp(3), Partition([1] * 6)) == 15


def test_entry_points_agree_on_every_cell():
    """The plain average is the twisted one at the empty label, also below
    the range, where King's rule answers every cell."""
    for family in Family:
        for n in (1, 2, 3, None):
            G = GroupSpec(family, n)
            for k in range(9):
                for lam in partitions_of(k):
                    want = expect_twisted(G, P(""), lam, verify=True)
                    assert expect_trace_product(G, lam) == want, (G, lam)


# (n, k): the Sp(2n) all-ones cells below the closed form's range, n <= 3, k <= 8
_INVOLUTION_CELLS = [(1, 4), (1, 6), (1, 8), (2, 6), (2, 8), (3, 8)]


def test_involution_cells_match_the_torus():
    """Every cell below the closed form's range with n <= 3, |lam| <= 8,
    |gamma| <= |lam| and l(gamma) <= n, on all three families, against the
    Weyl-integration oracle; the Sp all-ones involution counts are six of
    them.  Plain cells are checked under verify."""
    below = [
        (GroupSpec(family, n), gamma, lam)
        for family in Family
        for n in range(1, 4)
        for k in range(9)
        for lam in partitions_of(k)
        for j in range(k + 1)
        for gamma in partitions_of(j)
        if gamma.length <= n and not GroupSpec(family, n).closed_form_holds(k, j)
    ]
    assert len(below) == 4118
    ones = [
        (G.rank, lam.weight)
        for G, gamma, lam in below
        if G.family is Family.SP and not gamma and lam.parts == (1,) * lam.weight
    ]
    assert ones == _INVOLUTION_CELLS
    wrong = []
    for G, gamma, lam in below:
        value = expect_twisted(G, gamma, lam, verify=not gamma)
        want = weyl_twisted_average(G.family, G.rank, gamma.parts, lam.parts)
        if abs(want - value) > 1e-8:
            wrong.append((str(G), str(gamma), str(lam), value, want))
    assert not wrong, wrong[:5]


# (group, gamma, lam) far below the range: route A lists only the nu with at
# most m rows, so these cost what their answers need, not p(|lam|)
_HEAVY_CELLS = [
    (GroupSpec.so_even(2), "", [2] * 12),
    (GroupSpec.so_even(2), "", [2] * 14),
    (GroupSpec.so_even(3), "", [2] * 15),
    (GroupSpec.so_even(2), "", [1] * 28),
    (GroupSpec.sp(2), "1,1", [2] * 14),
]


def test_heavy_cells_below_the_range_match_the_torus():
    for G, gamma, lam in _HEAVY_CELLS:
        gamma, lam = P(gamma), Partition(lam)
        value = expect_twisted(G, gamma, lam, verify=not gamma)
        if gamma:
            want = weyl_twisted_average(G.family, G.rank, gamma.parts, lam.parts)
        else:
            want = torus_average(G.family, G.rank, lam.parts)
        assert value == pytest.approx(want, rel=1e-9), (str(G), str(gamma), str(lam))


def test_route_a_work_follows_the_rank(monkeypatch):
    # listing every nu of weight 24 would take 470,925 coefficients
    calls = 0
    coefficient = lr.lr_coefficient

    def counted(*args):
        nonlocal calls
        calls += 1
        return coefficient(*args)

    monkeypatch.setattr(lr, "lr_coefficient", counted)
    expectations._multiplicities.cache_clear()
    assert expect_twisted_route_a(GroupSpec.so_even(2), P(""), Partition([2] * 12)) == 853776
    assert 0 < calls < 50_000, calls


def test_verify_checks_the_range_rule(monkeypatch):
    """Admit Sp(2n), n <= 3, one step early (m = w - 2, j < k): route B
    then answers with the stable value, and route A, which knows the rank,
    must refuse each cell where that value is wrong."""
    early = [
        (GroupSpec.sp(n), gamma, lam)
        for n in (1, 2, 3)
        for k in range(2 * n + 3)
        for j in range(k)
        if k + j == 2 * n + 2
        for lam in partitions_of(k)
        for gamma in partitions_of(j)
        if gamma.length <= n
    ]
    truth = [expect_twisted(*cell) for cell in early]
    real = GroupSpec.closed_form_holds

    def one_rank_early(G, k, j=0):
        return real(G, k, j) or (
            G.family is Family.SP and G.rank <= 3 and j < k and k + j == G.matrix_size + 2
        )

    monkeypatch.setattr(GroupSpec, "closed_form_holds", one_rank_early)
    caught = 0
    for cell, want in zip(early, truth):
        if expect_twisted_route_b(*cell) == want:
            assert expect_twisted(*cell, verify=True) == want
        else:
            with pytest.raises(ConsistencyError):
                expect_twisted(*cell, verify=True)
            caught += 1
    assert (len(early), caught) == (116, 86)


def test_involution_count_is_checked_under_verify(monkeypatch):
    G, lam = GroupSpec.sp(1), P("1,1,1,1")
    short = expectations.rains_short_label_sum
    monkeypatch.setattr(expectations, "rains_short_label_sum", lambda *a: short(*a) + 1)
    assert expect_twisted(G, P(""), lam) == 2
    with pytest.raises(ConsistencyError, match="short-label sum gives 3, King's rule 2"):
        expect_twisted(G, P(""), lam, verify=True)


def test_short_label_sum_counts_the_involutions():
    # Rains: the fixed-point-free involutions of k points whose longest
    # decreasing subsequence is at most N, for every bound N, odd ones too
    for k in range(13):
        for N in range(1, k + 3):
            want = fpf_involutions_lds(k, N)
            assert rains_short_label_sum(Family.SP, N, Partition([1] * k)) == want, (k, N)


def test_king_rule_matches_the_koike_terada_determinants():
    """At random torus points of every group with n <= 3, the determinant
    at each label delta, |delta| <= 8, equals sign * the Weyl character of
    the label King's rule gives, and vanishes where the rule gives none.
    Labels that fit the rank check the determinants themselves."""
    rng = np.random.default_rng(5)
    checks, worst = 0, 0.0
    for family in Family:
        for n in range(1, 4):
            m = GroupSpec(family, n).matrix_size
            for delta in (d for w in range(9) for d in partitions_of(w)):
                sign, label = king_rule(family, m, delta)
                assert sign == 1 or delta.length > n, (family, n, delta)
                for theta in rng.uniform(0.1, np.pi - 0.1, size=(5, n)):
                    det = koike_terada_character(family, n, delta.parts, theta)
                    want = sign and sign * weyl_character(family, n, label.parts, theta)
                    worst = max(worst, abs(det - want) / max(1.0, abs(want)))
                    checks += 1
    assert checks == 3 * 3 * 67 * 5  # 1,890 of them at labels longer than n
    assert worst <= 1e-8, worst  # 2.8e-10 at this seed; a wrong rule errs by O(1)


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
    # King's rule answers the cell alone, so verify has no second route
    G = GroupSpec.sp(1)
    assert expect_twisted(G, P("1"), P("2,1")) == 0
    with pytest.raises(StableRangeError, match="King's rule is the only exact route"):
        expect_twisted(G, P("1"), P("2,1"), verify=True)
    with pytest.raises(StableRangeError, match=r"holds from Sp\(4\) on"):
        expect_twisted_route_b(G, P("1"), P("2,1"))


# (family, |lam|, |gamma|) whose cells on SO(3), one rank below the
# threshold, all keep the stable value: no one-row label shows the difference.
_SILENT_BELOW_THRESHOLD = {(Family.SO_ODD, 5, 3), (Family.SO_ODD, 6, 4)}


def _differs_from_stable(family, n, gamma, lam) -> bool:
    stable = expect_twisted_route_b(GroupSpec.stable(family), gamma, lam)
    want = stable * mirror_factor(family, n, gamma)
    return abs(weyl_twisted_average(family, n, gamma.parts, lam.parts) - want) > 1e-8


@pytest.mark.parametrize("family", list(Family))
def test_closed_form_holds_exactly_where_the_torus_agrees(family):
    """Against the Weyl-integration oracle at n <= 3 and |lam| <= 6: every
    cell the predicate admits has the stable value, and one rank below each
    threshold some cell differs, so the thresholds are tight."""
    wrong = []
    silent = set()
    for k in range(1, 7):
        for j in range(k + 1):
            first = next(n for n in count(1) if GroupSpec(family, n).closed_form_holds(k, j))
            for n in range(max(first - 1, 1), 4):
                cells = [
                    (gamma, lam)
                    for gamma in partitions_of(j)
                    if gamma.length <= n
                    for lam in partitions_of(k)
                ]
                differ = [c for c in cells if _differs_from_stable(family, n, *c)]
                if n >= first:
                    wrong += [(n, *c) for c in differ]
                elif not differ:
                    silent.add((family, k, j))
    assert not wrong, wrong[:5]
    assert silent == {c for c in _SILENT_BELOW_THRESHOLD if c[0] is family}


def test_label_longer_than_rank_refused(monkeypatch):
    # the stable group takes any label; Sp(4) has no irreducible with three
    # rows, and the label is refused before either route runs
    assert expect_twisted(SP, P("1,1,1"), P("1,1")) == 0
    assert expect_twisted(SP, P("1,1,1"), P("1,1,1")) == 1

    def no_route(*args):
        raise AssertionError("averaged over an invalid label")

    monkeypatch.setattr(expectations, "expect_twisted_route_b", no_route)
    monkeypatch.setattr(expectations, "expect_twisted_route_a", no_route)
    for verify in (False, True):
        with pytest.raises(ValueError, match="longer than the rank"):
            expect_twisted(GroupSpec.sp(2), P("1,1,1"), P("1,1"), verify=verify)


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
