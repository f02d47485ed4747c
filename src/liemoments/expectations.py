"""Exact Haar-measure averages of trace products, plain and character-twisted.

The plain average of p_lam = prod_i (tr g^{lam_i}) over Sp(2n), SO(2n) or
SO(2n+1) equals sgn(lam)^eps * g(lam) (eps = 1 for Sp, 0 for SO), with g the
preserved-matching count.  Twisted averages insert an irreducible character
of the group evaluated at g; they are computed by two genuinely different
routes that the verification mode plays against each other:

  route A expands p_lam = sum_nu chi_nu(lam) s_nu and restricts each s_nu
  to the group: the coefficient of chi_gamma is the Littlewood-Richardson
  sum of c^nu_{gamma, beta} over the family's paired partitions beta of the
  complementary weight (`lr.paired_partitions`, shared with branching), so
  the average is sum_beta sum_nu c^nu_{gamma, beta} chi_nu(lam);

  route B splits the multiset lam into a piece matched against the twisting
  character and a remainder fed back to the plain average.

No extra sign prefactors appear in either route: for Sp the even
multiplicities of beta turn the matching count into its signed version, and
route B inherits the sign through the plain average of the remainder.

These closed forms hold exactly where `GroupSpec.closed_form_holds` says so,
and both routes refuse the other cells with StableRangeError.  `expect_twisted`
is the one exact entry point; the plain average is its empty label.  Below
the range it answers one cell, the Sp all-ones plain average.
"""

from __future__ import annotations

from itertools import count

from .characters import character_value
from .errors import ConsistencyError, StableRangeError
from .groups import Family, GroupSpec, check_label, mirror_factor
from .lr import paired_partitions, schur_product
from .matchings import fpf_involutions_lds, g_closed
from .partitions import Partition, sgn, sub_splittings


def _require_stable(G: GroupSpec, k: int, j: int) -> None:
    if not G.closed_form_holds(k, j):
        ranks = (GroupSpec(G.family, r) for r in count(G.rank + 1))
        first = next(H for H in ranks if H.closed_form_holds(k, j))
        raise StableRangeError(
            f"{G} is below the stable range of this observable (|lambda| = {k}, "
            f"|gamma| = {j}): its closed form holds from {first} on. "
            "Use the Monte Carlo verifier (mc-verify) in this regime."
        )


def _plain_average_stable(family: Family, lam: Partition) -> int:
    value = g_closed(lam)
    if value and family.epsilon:
        value *= sgn(lam)
    return value


def expect_twisted_route_a(G: GroupSpec, gamma: Partition, lam: Partition) -> int:
    """Twisted average via the Littlewood-Richardson restriction of the
    Schur expansion of p_lam."""
    k = lam.weight
    j = gamma.weight
    _require_stable(G, k, j)
    if j > k or (k - j) % 2:
        return 0
    total = 0
    for beta in paired_partitions(G.family, k - j):
        for nu, c in schur_product(gamma, beta).items():
            total += c * character_value(nu, lam)
    return total


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

    Route B is the production path; verify=True recomputes through route A
    and raises ConsistencyError on any disagreement.

    On SO(2n) both routes average the O(2n) character.  For a full-length
    label that is the mirror sum, which det maps to itself, so the SO(2n)
    average E_O[chi p] + E_O[det chi p] is twice the routes' value
    (`mirror_factor`); for other labels the det twin has length
    2n - l(gamma) > n and averages to zero in the stable range.  At finite
    rank a label longer than the rank is refused (`check_label`).

    The one cell answered below `GroupSpec.closed_form_holds` is Sp(2n),
    gamma = 0, lam = (1,...,1) with 2n < |lam|: E[(tr g)^k] counts the
    fixed-point-free involutions of k points whose longest decreasing
    subsequence is at most 2n (Rains, Electron. J. Combin. 5, 1998, R12).
    verify=True checks that scan against Rains' length-capped character
    sum, chi_beta(lam) over the paired partitions beta with l(beta) <= 2n.
    """
    if not G.is_stable:
        check_label(gamma, G.rank)
    k = lam.weight
    if G.family is Family.SP and not (gamma or G.closed_form_holds(k)) and lam.parts == (1,) * k:
        value = fpf_involutions_lds(k, G.matrix_size)
        if verify:
            paired = paired_partitions(G.family, k)
            capped = sum(character_value(b, lam) for b in paired if b.length <= G.matrix_size)
            if capped != value:
                raise ConsistencyError(
                    f"Sp all-ones routes disagree for {G}, lam={lam}: length-capped "
                    f"character sum gives {capped}, involution scan {value}"
                )
        return value
    b = expect_twisted_route_b(G, gamma, lam)
    if verify:
        a = expect_twisted_route_a(G, gamma, lam)
        if a != b:
            raise ConsistencyError(
                f"twisted-average routes disagree for {G}, gamma={gamma}, "
                f"lam={lam}: Littlewood-Richardson sum gives {a}, splitting sum {b}"
            )
    return b * mirror_factor(G.family, G.rank, gamma)


def expect_trace_product(G: GroupSpec, lam: Partition) -> int:
    """Exact average of prod_i tr(g^{lam_i}) over G: `expect_twisted` at the
    empty label, so it holds, and is refused, exactly where that does."""
    return expect_twisted(G, Partition(), lam)
