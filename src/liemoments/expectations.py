"""Exact Haar-measure averages of trace products, plain and character-twisted.

The plain average of p_lam = prod_i (tr g^{lam_i}) over Sp(2n), SO(2n) or
SO(2n+1) equals sgn(lam)^eps * g(lam) whenever the rank covers the weight
(eps = 1 for Sp, 0 for SO), with g the preserved-matching count.  Twisted
averages insert an irreducible character of the group evaluated at g; they
are computed by two genuinely different routes that the verification mode
plays against each other:

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
"""

from __future__ import annotations

from .characters import character_value
from .errors import ConsistencyError, StableRangeError
from .groups import Family, GroupSpec, mirror_factor
from .lr import paired_partitions, schur_product
from .matchings import fpf_involutions_lds, g_closed
from .partitions import Partition, sgn, sub_splittings


def _require_stable(G: GroupSpec, k: int) -> None:
    if not G.covers_weight(k):
        raise StableRangeError(
            f"{G} has rank below the weight {k} of the requested observable; "
            f"the exact formula needs rank >= {k}. "
            "Use the Monte Carlo verifier (mc-verify) in this regime."
        )


def _plain_average_stable(family: Family, lam: Partition) -> int:
    value = g_closed(lam)
    if value and family.epsilon:
        value *= sgn(lam)
    return value


def expect_trace_product(G: GroupSpec, lam: Partition) -> int:
    """Exact average of prod_i tr(g^{lam_i}) over G.

    Valid whenever the rank covers the weight.  The one handled exception
    below the stable range is Sp with lam = (1,...,1), where the average of
    (tr g)^k counts fixed-point-free involutions with longest decreasing
    subsequence at most 2n.
    """
    k = lam.weight
    if not G.covers_weight(k) and G.family is Family.SP and lam.parts == (1,) * k:
        return fpf_involutions_lds(k, 2 * G.rank)
    _require_stable(G, k)
    return _plain_average_stable(G.family, lam)


def expect_twisted_route_a(G: GroupSpec, gamma: Partition, lam: Partition) -> int:
    """Twisted average via the Littlewood-Richardson restriction of the
    Schur expansion of p_lam."""
    k = lam.weight
    j = gamma.weight
    _require_stable(G, k)
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
    _require_stable(G, k)
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
    2n - l(gamma) > n and averages to zero in the stable range.
    """
    b = expect_twisted_route_b(G, gamma, lam)
    if verify:
        a = expect_twisted_route_a(G, gamma, lam)
        if a != b:
            raise ConsistencyError(
                f"twisted-average routes disagree for {G}, gamma={gamma}, "
                f"lam={lam}: Littlewood-Richardson sum gives {a}, splitting sum {b}"
            )
    return b * mirror_factor(G.family, G.rank, gamma)
