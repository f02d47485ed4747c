"""Exact Haar-measure averages of trace products, plain and character-twisted.

The plain average of p_lam = prod_i (tr g^{lam_i}) over Sp(2n), SO(2n) or
SO(2n+1) equals sgn(lam)^eps * g(lam) (eps = 1 for Sp, 0 for SO), with g the
preserved-matching count.  Twisted averages insert an irreducible character
of the group evaluated at g; they are computed by two genuinely different
routes that the verification mode plays against each other:

  route A expands p_lam = sum_nu chi_nu(lam) s_nu and restricts each s_nu
  to the group of matrix size m: chi_gamma gets c^nu_{delta, beta} from
  each paired partition beta of the complementary weight
  (`lr.paired_partitions`, shared with branching) and each universal label
  delta that King's rule (`characters.king_rule`) folds to +-gamma;

  route B splits the multiset lam into a piece matched against the twisting
  character and a remainder fed back to the plain average.

No extra sign prefactors appear in either route: for Sp the even
multiplicities of beta turn the matching count into its signed version, and
route B inherits the sign through the plain average of the remainder.

Route B holds where `GroupSpec.closed_form_holds` says so and refuses the
other cells with StableRangeError.  Route A never reads that rule, so
inside the range verification checks it; the stable group is m = 2|lam| + 1,
where nothing folds or is cut.  `expect_twisted` is the one exact entry
point; the plain average is its empty label.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from .characters import character_value, king_rule
from .errors import ConsistencyError, StableRangeError
from .groups import Family, GroupSpec, check_label, mirror_factor
from .lr import paired_partitions, schur_product
from .matchings import g_closed
from .partitions import Partition, partitions_of, sgn, sub_splittings


def _require_stable(G: GroupSpec, k: int, j: int) -> None:
    if not G.closed_form_holds(k, j):
        ranks = (GroupSpec(G.family, r) for r in count(G.rank + 1))
        first = next(H for H in ranks if H.closed_form_holds(k, j))
        raise StableRangeError(
            f"{G} is below the stable range of this observable (|lambda| = {k}, "
            f"|gamma| = {j}): its closed form holds from {first} on; below that, "
            "expect_twisted answers by route A, folded by King's rule."
        )


def _plain_average_stable(family: Family, lam: Partition) -> int:
    value = g_closed(lam)
    if value and family.epsilon:
        value *= sgn(lam)
    return value


@lru_cache(maxsize=None)
def _multiplicities(family: Family, m: int, gamma: Partition, k: int) -> tuple:
    """Coefficient of chi_gamma in each s_nu with |nu| = k, restricted to the
    group of matrix size m: sum of c^nu_{delta, beta} over the paired
    partitions beta and the universal labels delta that King's rule turns
    into +-gamma, so |delta| >= |gamma| (a fold only removes cells).  Only
    delta, beta and nu with at most m rows are listed: s_nu vanishes in m
    variables otherwise, and nu contains delta and beta."""
    mult: dict[Partition, int] = {}
    for w in range(k, gamma.weight - 1, -2):
        for delta in partitions_of(w, m):
            sign, label = king_rule(family, m, delta)
            if sign and label == gamma:
                for beta in (b for b in paired_partitions(family, k - w) if b.length <= m):
                    for nu, c in schur_product(delta, beta, m).items():
                        mult[nu] = mult.get(nu, 0) + sign * c
    return tuple((nu, c) for nu, c in mult.items() if c)


def expect_twisted_route_a(G: GroupSpec, gamma: Partition, lam: Partition) -> int:
    """Twisted average via the Littlewood-Richardson restriction of the
    Schur expansion of p_lam, folded by King's rule at the matrix size m:
    one sum at every rank, which never reads the range rule.  The stable
    group, like any m > 2|lam|, is m = 2|lam| + 1: nothing of weight
    <= |lam| folds or is cut there."""
    k = lam.weight
    m = 2 * k + 1 if G.is_stable else min(G.matrix_size, 2 * k + 1)
    return sum(c * character_value(nu, lam) for nu, c in _multiplicities(G.family, m, gamma, k))


def rains_short_label_sum(family: Family, m: int, lam: Partition) -> int:
    """E[p_lam] over Sp(m) or SO(m), Rains' short-label sum (Electron. J.
    Combin. 5, 1998, R12): chi_beta(lam) over the paired beta with l(beta) <= m,
    and on SO over beta with l(beta) = m and odd parts (the det term).  At
    lam = 1^k on Sp it counts the fixed-point-free involutions of k points
    with no decreasing subsequence longer than m."""
    k = lam.weight
    labels = [b for b in paired_partitions(family, k) if b.length <= m]
    if family is not Family.SP:
        labels += [b for b in partitions_of(k, m) if b.length == m and all(p % 2 for p in b)]
    return sum(character_value(b, lam) for b in labels)


def expect_twisted_route_b(G: GroupSpec, gamma: Partition, lam: Partition) -> int:
    """Twisted average via multiset splittings of lam: the weight-|gamma|
    piece pairs with the twisting character, the remainder takes the plain
    average (which carries the family's sign)."""
    k = lam.weight
    j = gamma.weight
    _require_stable(G, k, j)
    if j > k or (k - j) % 2:
        return 0
    total = 0
    for lam_a, lam_b, m in sub_splittings(lam, j):
        chi = character_value(gamma, lam_a)
        if chi:
            total += m * chi * _plain_average_stable(G.family, lam_b)
    return total


def expect_twisted(
    G: GroupSpec, gamma: Partition, lam: Partition, *, verify: bool = False
) -> int:
    """Twisted average of chi^G_gamma(g) * prod_i tr(g^{lam_i}) over G.

    Inside `GroupSpec.closed_form_holds` route B is the production path, and
    verify=True recomputes through route A, which knows the rank, so the
    range rule itself is checked.  Below it route A is the one exact route;
    verify=True then checks it against Rains' short-label sum at gamma = 0
    and raises StableRangeError for any other label, which has no second
    route.  A disagreement raises ConsistencyError.

    On SO(2n) both routes average the O(2n) character.  For a full-length
    label that is the mirror sum, which det maps to itself, so the SO(2n)
    average E_O[chi p] + E_O[det chi p] is twice the routes' value
    (`mirror_factor`); for other labels the det twin has length
    2n - l(gamma) > n and averages to zero.  At finite rank a label longer
    than the rank is refused (`check_label`).
    """
    if not G.is_stable:
        check_label(gamma, G.rank)
    if G.closed_form_holds(lam.weight, gamma.weight):
        value = expect_twisted_route_b(G, gamma, lam)
        other = expect_twisted_route_a(G, gamma, lam) if verify else value
        names = "Littlewood-Richardson sum", "splitting sum"
    else:
        if verify and gamma:
            raise StableRangeError(
                f"{G} is below the stable range of gamma={gamma}, lam={lam}, where "
                "King's rule is the only exact route: drop verify to use it alone"
            )
        value = expect_twisted_route_a(G, gamma, lam)
        other = rains_short_label_sum(G.family, G.matrix_size, lam) if verify else value
        names = "short-label sum", "King's rule"
    if other != value:
        raise ConsistencyError(
            f"twisted-average routes disagree for {G}, gamma={gamma}, "
            f"lam={lam}: {names[0]} gives {other}, {names[1]} {value}"
        )
    return value * mirror_factor(G.family, G.rank, gamma)


def expect_trace_product(G: GroupSpec, lam: Partition) -> int:
    """Exact average of prod_i tr(g^{lam_i}) over G: `expect_twisted` at the
    empty label."""
    return expect_twisted(G, Partition(), lam)
