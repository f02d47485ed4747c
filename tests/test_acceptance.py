"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
pass/fail line on the real stdout so the run log shows the scoreboard even
under pytest capture.  The assertions after the report line carry the
details.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import frobenius_character, torus_average

from liemoments.characters import character_table
from liemoments.config import DEFAULT_TOLERANCES
from liemoments.expectations import (
    expect_trace_product,
    expect_twisted,
    expect_twisted_route_a,
    expect_twisted_route_b,
)
from liemoments.groups import Family, GroupSpec
from liemoments.matchings import g_bruteforce, g_closed
from liemoments.montecarlo import (
    CharacterProductObservable,
    PhiObservable,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    estimate,
    estimate_many,
    estimate_ratio,
)
from liemoments.partitions import Partition, partitions_of
from liemoments.sampling import (
    half_spectrum_batch,
    rng_for_sample,
    sample_matrices,
    weyl_character_batch,
)
from liemoments.szego import (
    FourierData,
    SchurSpecialization,
    expect_phi_series,
    johansson_limit,
)

P = Partition.parse

FAMILIES = [Family.SP, Family.SO_EVEN, Family.SO_ODD]


def report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    # capture in pytest redirects the file descriptor itself, so the only
    # reliable route to the terminal is suspending capture for the one line
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {status}{tail}", flush=True)


def test_c01_matching_count_identity(capsys):
    mismatches = []
    checked = 0
    for k in (2, 4, 6, 8, 10, 12):
        for lam in partitions_of(k):
            if g_closed(lam) != g_bruteforce(lam):
                mismatches.append(lam)
            checked += 1
    report(capsys, 1,  "matching count closed form vs brute force", not mismatches,
           f"{checked} partitions")
    assert not mismatches


def test_c02_exact_trace_moments(capsys):
    sp = GroupSpec.stable(Family.SP)
    so_e = GroupSpec.stable(Family.SO_EVEN)
    so_o = GroupSpec.stable(Family.SO_ODD)
    ok = (
        expect_trace_product(sp, P("2")) == -1
        and expect_trace_product(so_e, P("2")) == 1
        and expect_trace_product(so_o, P("2")) == 1
        and all(
            expect_trace_product(G, P("1,1")) == 1 for G in (sp, so_e, so_o)
        )
        and all(
            expect_trace_product(G, lam) == 0
            for G in (sp, so_e, so_o)
            for lam in (P("1"), P("3"), P("2,1"), P("1,1,1"), P("5"), P("3,2"))
        )
    )
    report(capsys, 2,  "stable second and fourth trace moments, odd vanishing", ok)
    assert ok


def test_c03_twisted_route_cross_validation(capsys):
    mismatches = []
    checked = 0
    for family in FAMILIES:
        G = GroupSpec.stable(family)
        for k in range(9):
            for lam in partitions_of(k):
                for j in range(k + 1):
                    for gamma in partitions_of(j):
                        a = expect_twisted_route_a(G, gamma, lam)
                        b = expect_twisted_route_b(G, gamma, lam)
                        if a != b:
                            mismatches.append((family, gamma, lam, a, b))
                        checked += 1
    report(capsys, 3,  "twisted average routes agree", not mismatches,
           f"{checked} evaluations over 3 families")
    assert not mismatches, mismatches[:5]


def test_c04_ratio_forms_random_rationals(capsys):
    import random

    rng = random.Random(20260823)
    failures = []
    trials = 0
    for _ in range(100):
        j = rng.randint(0, 7)
        parts = sorted(
            (rng.randint(1, max(j, 1)) for _ in range(rng.randint(0, j))),
            reverse=True,
        )
        gamma = Partition(tuple(p for p in parts if p)[: j or None])
        if gamma.weight > 7:
            gamma = Partition(gamma.parts[:1])
        coeffs = {
            i: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for i in range(1, rng.randint(2, 8))
        }
        f = FourierData({i: c for i, c in coeffs.items() if c})
        try:
            SchurSpecialization.compute(gamma, f, verify=True)
        except Exception as exc:  # noqa: BLE001 - recorded and reported below
            failures.append((gamma, f, exc))
        trials += 1
    report(capsys, 4,  "twisted ratio closed forms agree on random rational data",
           not failures, f"{trials} trials")
    assert not failures, failures[:3]


def test_c05_monte_carlo_concordance_stable_range(capsys):
    twisted_cells = [(P("1"), P("2,1")), (P("2"), P("2")), (P("1"), P("1"))]
    plain_cells = [lam for k in range(5) for lam in partitions_of(k)]
    total = 0
    passed = 0
    worst = 0.0
    for family in FAMILIES:
        G = GroupSpec(family, 4)
        observables = [TraceProductObservable(lam) for lam in plain_cells]
        observables += [TwistedObservable(g, l) for g, l in twisted_cells]
        refs = [float(expect_trace_product(G, lam)) for lam in plain_cells]
        refs += [float(expect_twisted(G, g, l)) for g, l in twisted_cells]
        results = estimate_many(G, observables, 200_000, seed=2024)
        for ref, est in zip(refs, results):
            diff = abs(est.mean - ref)
            ok = diff <= 4 * est.stderr
            total += 1
            passed += ok
            if est.stderr > 0:
                worst = max(worst, diff / est.stderr)
    # every cell must pass: at seed 2024 the worst |z| is 2.17, well inside 4 sigma
    report(capsys, 5,  "stable-range Monte Carlo concordance at 4 sigma", passed == total,
           f"{passed}/{total} cells, worst z {worst:.2f}")
    assert passed == total


def test_c06_below_stable_range_involution_count(capsys):
    G = GroupSpec.sp(1)
    lam = P("1,1,1,1")
    exact = expect_trace_product(G, lam)
    est = estimate(G, TraceProductObservable(lam), 200_000, seed=31)
    mc_ok = abs(est.mean - 2.0) <= 4 * est.stderr
    # King's rule below the range, on cells whose values differ from the
    # stable ones (3, 3, 0 and 1)
    cells = [
        (GroupSpec.sp(1), P("1"), P("1,1,1"), 2),
        (GroupSpec.so_even(2), P("1"), P("1,1,1"), 4),
        (GroupSpec.so_odd(2), P("1,1"), P("1,1,1"), 1),
        (GroupSpec.so_even(1), P(""), P("1,1"), 2),
    ]
    bad = []
    details = [f"Sp(2) p(1^4) exact {exact}, mc {est.mean:.4f}+-{est.stderr:.4f}"]
    for H, gamma, mu, want in cells:
        value = expect_twisted(H, gamma, mu)
        stable = expect_twisted(GroupSpec.stable(H.family), gamma, mu)
        obs = TwistedObservable(gamma, mu) if gamma else TraceProductObservable(mu)
        cell = estimate(H, obs, 100_000, seed=13)
        z = (cell.mean - value) / cell.stderr
        if value != want or value == stable or abs(z) > 4:
            bad.append((str(H), str(gamma), str(mu), value, stable, z))
        details.append(f"{H} exact {value}, z {z:+.2f}")
    ok = exact == 2 and mc_ok and not bad
    report(capsys, 6,  "below-stable-range averages by King's rule, against Monte Carlo", ok,
           "; ".join(details))
    assert exact == 2
    assert mc_ok
    assert not bad, bad


def test_c07_exponential_average_convergence(capsys):
    # at rank 10 the series misses the limit by its first omitted term,
    # about 1.2e-11 for c1 = 3/10
    f = FourierData({1: Fraction(3, 10)})
    bad = []
    details = []
    for family in FAMILIES:
        G = GroupSpec(family, 10)
        target = johansson_limit(family, f)
        value, _ = expect_phi_series(G, P(""), f, 10)
        est = estimate(G, PhiObservable(f), 100_000, seed=7)
        gap = abs(float(value) - target)
        z = (est.mean - target) / est.stderr
        if gap > 1e-9 or abs(z) > 4:
            bad.append(family)
        details.append(f"{family.value} series gap {gap:.2e}, mc z {z:+.2f}")
    report(capsys, 7,  "exponential class function average approaches its limit",
           not bad, "; ".join(details))
    assert not bad


def test_c08_twisted_ratio_convergence(capsys):
    f = FourierData({1: 0.3})
    bad = []
    details = []
    for family in FAMILIES:
        G = GroupSpec(family, 8)
        r = estimate_ratio(
            G, TwistedPhiObservable(P("1"), f), PhiObservable(f), 100_000, seed=8
        )
        # 4 sigma alone bounds the gap; 4 sigma / 0.3 is the smallest
        # relative bias this check detects
        tol = 4 * r.stderr
        if abs(r.ratio - 0.3) > tol:
            bad.append((family, r.ratio, r.stderr))
        details.append(f"{family.value} {r.ratio:.4f}+-{r.stderr:.4f}, bias {tol / 0.3:.1%}")
    report(capsys, 8,  "twisted-to-plain ratio approaches the first coefficient",
           not bad, "; ".join(details))
    assert not bad, bad


def test_c09_character_table_vs_polynomial_oracle(capsys):
    mismatches = []
    checked = 0
    for k in range(1, 7):
        table = character_table(k)
        for lam, row in zip(table.labels, table.values):
            for mu, value in zip(table.classes, row):
                if value != frobenius_character(lam.parts, mu.parts):
                    mismatches.append((lam, mu))
                checked += 1
    report(capsys, 9,  "symmetric group characters match the polynomial oracle",
           not mismatches, f"{checked} values")
    assert not mismatches


def test_c10_weyl_character_numerical_sanity(capsys):
    # single-box label must reproduce the plain trace on every family
    worst = 0.0
    clean = True
    for family in FAMILIES:
        G = GroupSpec(family, 3)
        mats = sample_matrices(G, [rng_for_sample(91, i) for i in range(1000)])
        angles, residual = half_spectrum_batch(mats, family)
        values, bad = weyl_character_batch(family, P("1"), angles)
        clean = clean and residual.max() <= DEFAULT_TOLERANCES.pairing and not bad.any()
        worst = max(worst, float(np.max(np.abs(values - np.trace(mats, axis1=1, axis2=2)))))
    trace_ok = clean and worst < 1e-6

    # orthonormality of the low irreducibles under the sampled measure
    labels = [lam for k in range(1, 4) for lam in partitions_of(k)]
    pairs = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i, len(labels))
    ]
    ortho_failures = []
    for family in FAMILIES:
        G = GroupSpec(family, 4)
        obs = [CharacterProductObservable(a, b) for a, b in pairs]
        results = estimate_many(G, obs, 20_000, seed=13)
        for (a, b), est in zip(pairs, results):
            expected = 1.0 if a == b else 0.0
            if abs(est.mean - expected) > 4 * est.stderr:
                ortho_failures.append((family, a, b, est.mean, est.stderr))
    ok = trace_ok and not ortho_failures
    report(capsys, 10,  "character evaluation sanity and orthonormality", ok,
           f"max trace deviation {worst:.2e}, {len(pairs) * 3} pair checks")
    assert trace_ok
    assert not ortho_failures, ortho_failures[:5]


def test_c11_weyl_integration_oracle(capsys):
    # SO(2n) twisted by the full-length label (1^n): the mirror sum is e_n
    # of the eigenvalues, integrated without any Weyl determinant
    mismatches = []
    checked = 0
    for n in range(1, 6):
        G = GroupSpec.so_even(n)
        gamma = Partition([1] * n)
        for lam in partitions_of(n):
            ref = torus_average(Family.SO_EVEN, n, lam.parts, twist_en=True)
            value = expect_twisted(G, gamma, lam, verify=True)
            if abs(value - ref) > 1e-9:
                mismatches.append((G, lam, value, ref))
            checked += 1
    # plain averages on every family validate the three densities, at every
    # weight up to 6 where the closed form holds
    for family in FAMILIES:
        for n in range(1, 5):
            G = GroupSpec(family, n)
            for k in filter(G.closed_form_holds, range(7)):
                for lam in partitions_of(k):
                    ref = torus_average(family, n, lam.parts)
                    value = expect_trace_product(G, lam)
                    if abs(value - ref) > 1e-9:
                        mismatches.append((G, lam, value, ref))
                    checked += 1
    report(capsys, 11,  "exact averages match the Weyl integration formula",
           not mismatches, f"{checked} cells")
    assert not mismatches, mismatches[:5]


def test_c12_monte_carlo_below_the_old_rank_rule(capsys):
    # rank >= |lam| fails on these cells, but the closed form holds; the
    # values come from a torus quadrature
    cells = [
        (GroupSpec.sp(3), P("1"), P("1,1,1,1,1"), 15),
        (GroupSpec.so_odd(2), P(""), P("2,1,1"), 1),
        (GroupSpec.so_even(4), P(""), P("2,2,1,1"), 3),
    ]
    bad = []
    details = []
    for G, gamma, lam, want in cells:
        exact = expect_twisted(G, gamma, lam)
        obs = TwistedObservable(gamma, lam) if gamma else TraceProductObservable(lam)
        est = estimate(G, obs, 100_000, seed=12)
        z = (est.mean - exact) / est.stderr
        if exact != want or abs(z) > 4:
            bad.append((str(G), exact, est.mean, est.stderr))
        details.append(f"{G} exact {exact}, z {z:+.2f}")
    report(capsys, 12, "Monte Carlo agrees below rank = weight, inside the closed form's range",
           not bad, "; ".join(details))
    assert not bad, bad
