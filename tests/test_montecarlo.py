"""Monte Carlo layer: determinism, shared draws, agreement with exact values."""

from __future__ import annotations

import dataclasses
import types
from fractions import Fraction

import numpy as np
import pytest

import liemoments
from liemoments import (
    characters,
    config,
    expectations,
    lr,
    matchings,
    montecarlo,
    partitions,
    szego,
    tablecache,
)
from liemoments.config import DEFAULT_TOLERANCES
from liemoments.errors import DegeneracyError
from liemoments.groups import Family, GroupSpec
from liemoments.montecarlo import (
    CharacterProductObservable,
    MCEstimate,
    PhiObservable,
    TraceProductObservable,
    TwistedObservable,
    TwistedPhiObservable,
    _chunk_block,
    estimate,
    estimate_many,
    estimate_ratio,
    sample_values,
)
from liemoments.partitions import Partition
from liemoments.szego import FourierData, expect_phi_series

P = Partition.parse

GROUPS = [GroupSpec.sp(4), GroupSpec.so_even(4), GroupSpec.so_odd(4)]


def test_thread_count_is_invisible():
    # 9000 samples spans three chunks, so the pool actually splits work
    G = GroupSpec.so_even(3)
    obs = [TraceProductObservable(P("2")), TraceProductObservable(P("1,1"))]
    a = sample_values(G, obs, 9000, seed=42, threads=1)
    b = sample_values(G, obs, 9000, seed=42, threads=3)
    assert a.shape == (2, 9000)
    assert np.array_equal(a, b)


def test_seed_changes_values():
    G = GroupSpec.sp(2)
    obs = [TraceProductObservable(P("1"))]
    a = sample_values(G, obs, 200, seed=1)
    b = sample_values(G, obs, 200, seed=2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "G, expected",
    [(GroupSpec.sp(4), -1.0), (GroupSpec.so_even(4), 1.0), (GroupSpec.so_odd(4), 1.0)],
    ids=str,
)
def test_second_trace_moment(G, expected):
    e = estimate(G, TraceProductObservable(P("2")), 20000, seed=5)
    assert isinstance(e, MCEstimate)
    assert e.samples == 20000 and e.seed == 5
    assert abs(e.mean - expected) < 5 * e.stderr


def test_twisted_estimate_matches_exact():
    # E[chi_(1) tr(g^2) tr(g)] = -1 on the symplectic side, +1 orthogonal
    e = estimate(GroupSpec.sp(4), TwistedObservable(P("1"), P("2,1")), 20000, seed=7)
    assert abs(e.mean + 1.0) < 5 * e.stderr
    e = estimate(GroupSpec.so_odd(4), TwistedObservable(P("1"), P("2,1")), 20000, seed=7)
    assert abs(e.mean - 1.0) < 5 * e.stderr


def test_estimate_many_equals_single():
    # shared draws: joint run must reproduce the single-observable runs
    # bit for bit when the observables need the same trace powers
    G = GroupSpec.sp(3)
    a = TraceProductObservable(P("2"))
    b = TraceProductObservable(P("2,1"))
    joint = estimate_many(G, [a, b], 500, seed=9)
    assert joint[0] == estimate(G, a, 500, seed=9)
    assert joint[1] == estimate(G, b, 500, seed=9)


def test_ratio_of_identical_observables():
    G = GroupSpec.so_odd(3)
    obs = TraceProductObservable(P("1,1"))
    r = estimate_ratio(G, obs, obs, 500, seed=3)
    assert r.ratio == 1.0
    assert r.stderr < 1e-12


def test_ratio_against_independent_means():
    G = GroupSpec.sp(3)
    num = TraceProductObservable(P("2"))
    den = TraceProductObservable(P("1,1"))
    r = estimate_ratio(G, num, den, 4000, seed=13)
    vals = sample_values(G, [num, den], 4000, seed=13)
    assert r.ratio == pytest.approx(float(np.mean(vals[0]) / np.mean(vals[1])))
    assert r.stderr > 0.0


def test_phi_estimate_matches_series():
    f = FourierData({1: Fraction(1, 2)})
    G = GroupSpec.sp(6)
    value, tail = expect_phi_series(G, P(""), f, 6)
    assert value == Fraction(3481, 3072)
    e = estimate(G, PhiObservable(f), 10000, seed=5)
    # truncation at weight 6 leaves a real gap, small for these coefficients
    assert abs(e.mean - float(value)) < 5 * e.stderr + 0.01
    assert tail > 0.0


def test_twisted_phi_ratio_recovers_coefficient():
    # E[chi_(1) Phi] / E[Phi] tends to c_1 as the rank grows
    f = FourierData({1: 0.3})
    G = GroupSpec.so_even(8)
    r = estimate_ratio(
        G, TwistedPhiObservable(P("1"), f), PhiObservable(f), 20000, seed=17
    )
    assert abs(r.ratio - 0.3) < 5 * r.stderr + 0.02


def test_character_orthonormality():
    G = GroupSpec.sp(4)
    probes = [
        (CharacterProductObservable(P("1"), P("1")), 1.0),
        (CharacterProductObservable(P("2"), P("2")), 1.0),
        (CharacterProductObservable(P("1"), P("2")), 0.0),
        (CharacterProductObservable(P("2"), P("1,1")), 0.0),
    ]
    results = estimate_many(G, [p for p, _ in probes], 20000, seed=11)
    for (probe, expected), e in zip(probes, results):
        assert abs(e.mean - expected) < 5 * e.stderr, probe.label


def test_observable_labels():
    assert TraceProductObservable(P("2,1")).label == "trace-product[2,1]"
    assert TwistedObservable(P("1"), P("2")).characters() == (P("1"),)
    assert CharacterProductObservable(P("1"), P("1")).characters() == (P("1"),)
    assert CharacterProductObservable(P("1"), P("2")).characters() == (P("1"), P("2"))
    assert PhiObservable(FourierData({3: 0.1})).max_power() == 3
    assert PhiObservable(FourierData({})).max_power() == 0


_PIN_PHI = FourierData.parse("c0=1/10,c1=2/5,c2=-1/5,c3=1/10")
_PIN_OBSERVABLES = [
    TraceProductObservable(P("")),
    TraceProductObservable(P("2,1,1")),
    TwistedObservable(P("1,1"), P("2")),
    TwistedObservable(P("1"), P("1,1,1")),
    PhiObservable(_PIN_PHI),
    TwistedPhiObservable(P("2"), _PIN_PHI),
    CharacterProductObservable(P("1,1"), P("1,1")),
    CharacterProductObservable(P("1"), P("2,1")),
]
# (mean, stderr) as float.hex of each observable above, 3000 samples at seed 2026
_PINNED = {
    GroupSpec.sp(2): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("-0x1.f3290087f617ap-1", "0x1.e91b7b532436ep-6"),
        ("-0x1.f9d5dad48089ep-1", "0x1.9bc6136cac1c6p-6"),
        ("0x1.6ece1c7a628f6p+1", "0x1.31553c1f3ae33p-3"),
        ("0x1.a82453ea070fep+0", "0x1.c32aab155945cp-7"),
        ("-0x1.a88ca5fd61f46p-3", "0x1.30d9101012c7ep-5"),
        ("0x1.f6a34e4709ad1p-1", "0x1.965ff97ed01cbp-6"),
        ("-0x1.46654b575d093p-5", "0x1.17d728b0fb71fp-5"),
    ],
    GroupSpec.so_even(4): [
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.e47385eca03eep-1", "0x1.a77b70ed2d518p-5"),
        ("-0x1.0765fed429303p+0", "0x1.4f23cf93174ebp-5"),
        ("0x1.4d43a995b3105p+1", "0x1.24844f80d6423p-3"),
        ("0x1.63f1146bd1c93p+0", "0x1.e899a733b3130p-7"),
        ("-0x1.23ca738d6211dp-2", "0x1.1256c3c5c2f4bp-5"),
        ("0x1.db8cc6eeb430cp-1", "0x1.2dbd2a376472cp-5"),
        ("-0x1.7edc456487bb1p-4", "0x1.f308b50cbea5ap-6"),
    ],
}


@pytest.mark.parametrize("G", list(_PINNED), ids=["sp4", "so8"])
def test_every_observable_shape_is_pinned_bit_for_bit(G):
    # one shared draw per group covers all five observable classes, an empty
    # lambda, repeated parts and a squared character
    results = estimate_many(G, _PIN_OBSERVABLES, 3000, seed=2026, threads=1)
    got = [(e.mean.hex(), e.stderr.hex()) for e in results]
    assert got == _PINNED[G]


def test_too_few_samples():
    with pytest.raises(ValueError):
        estimate(GroupSpec.sp(2), TraceProductObservable(P("1")), 99, seed=0)


def test_stable_group_rejected():
    with pytest.raises(ValueError):
        estimate(GroupSpec.sp(None), TraceProductObservable(P("1")), 500, seed=0)


def test_label_longer_than_rank():
    with pytest.raises(ValueError):
        estimate(GroupSpec.sp(2), TwistedObservable(P("1,1,1"), P("1")), 500, seed=0)


def test_impossible_tolerance_aborts(monkeypatch):
    # a trace-imag tolerance below zero marks every draw degenerate, so the
    # redraw loop must exhaust its rounds and abort instead of spinning
    tol = dataclasses.replace(DEFAULT_TOLERANCES, trace_imag=-1.0)
    monkeypatch.setattr(config, "DEFAULT_TOLERANCES", tol)
    with pytest.raises(DegeneracyError):
        estimate(GroupSpec.sp(2), TraceProductObservable(P("1")), 200, seed=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        sample_values(
            GroupSpec.sp(2), [TraceProductObservable(P("1"))], 200, 0, threads=threads
        )


# Tolerances tight enough to send about 1% of draws back for a redraw, each
# with a milder one that stays under the degeneracy budget, and the float.hex
# of the block sum over samples [100, 1100) at seed 5 with the forcing one.
FORCED_REDRAWS = [
    pytest.param(
        GroupSpec.sp(4),
        TraceProductObservable(P("2,1")),
        ("trace_imag", 2.1e-16, 2.5e-16),
        "0x1.f32aec5e232e6p+5",
        id="sp8-trace_imag",
    ),
    pytest.param(
        GroupSpec.sp(4),
        TwistedObservable(P("1"), P("1")),
        ("pairing", 3.2e-15, 4e-15),
        "0x1.083f566625180p+10",
        id="sp8-pairing",
    ),
    pytest.param(
        GroupSpec.so_odd(3),
        TwistedObservable(P("1,1"), P("1")),
        ("denominator_min", 0.3, 0.2),
        "0x1.70c0a317b35c4p+4",
        id="so7-denominator",
    ),
]


@pytest.mark.parametrize("G, obs, tolerance, block_sum", FORCED_REDRAWS)
def test_forced_redraws_are_pinned(G, obs, tolerance, block_sum, monkeypatch):
    """Redraws continue each sample's stream: the redrawn block is pinned bit
    for bit, and the thread count still cannot change any sample."""
    name, forcing, mild = tolerance
    default = sample_values(G, [obs], 9000, seed=5, threads=1)

    def use(value):
        tol = dataclasses.replace(DEFAULT_TOLERANCES, **{name: value})
        monkeypatch.setattr(config, "DEFAULT_TOLERANCES", tol)

    use(forcing)
    labels = list(obs.characters())
    block, redrawn = _chunk_block(G, [obs], 5, 100, 1100, obs.max_power(), labels)
    assert redrawn > 0
    assert float(block.sum()).hex() == block_sum

    use(mild)
    a = sample_values(G, [obs], 9000, seed=5, threads=1)
    b = sample_values(G, [obs], 9000, seed=5, threads=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, default)


def test_names_the_bench_tracer_rebinds_exist():
    """The benchmark under `bench/` rebinds, wraps or reads these package
    names, so renaming or deleting one breaks a benchmark run; this makes it
    fail here first.  Drop the rebinding parts when the timing spans move
    into the package (ROADMAP item 5)."""
    # bench/mc.py:install_tracing rebinds these and reads two thresholds
    for name in (
        "rng_for_sample",
        "sample_matrices",
        "trace_powers_batch",
        "half_spectrum_batch",
        "weyl_character_batch",
        "sample_values",
    ):
        assert callable(getattr(montecarlo, name, None)), name
    assert isinstance(config.DEFAULT_TOLERANCES.trace_imag, float)
    assert isinstance(config.DEFAULT_TOLERANCES.pairing, float)

    # bench/tracer.py:trace_layers wraps these 19 functions and the table build
    wrapped = {
        expectations: ("expect_twisted_route_a", "expect_twisted_route_b"),
        lr: ("lr_coefficient", "schur_product", "branching_decomposition"),
        szego: (
            "ratio_character_sum",
            "ratio_schur_specialization",
            "johansson_limit",
            "twisted_asymptotic",
            "expect_phi_series",
            "weyl_dimension",
        ),
        matchings: ("g_closed", "g_bruteforce", "fpf_involutions_lds"),
        partitions: ("partitions_of", "even_partitions_of", "sub_splittings"),
        tablecache: ("save_table", "load_table"),
    }
    assert sum(len(names) for names in wrapped.values()) == 19
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert callable(characters.CharacterTable.build)

    # bench/tracer.py:cache_sizes, bench/run.py and bench/exact.py read these
    assert characters._strip_recursion.cache_info().currsize >= 0
    assert lr._count_tableaux.cache_info().currsize >= 0
    assert isinstance(partitions.ENUMERATION_BOUND, int)
    branched = lr.branching_decomposition(P("2"), Family.SP).coeffs
    assert branched == {P("2"): 1}
    spec = szego.SchurSpecialization.compute(P("1"), FourierData.parse("c1=1/2"))
    assert spec.value == Fraction(1, 2)

    # names the bench imports from the package root
    for name in (
        "CharacterProductObservable",
        "Family",
        "FourierData",
        "GroupSpec",
        "Partition",
        "PhiObservable",
        "SchurSpecialization",
        "TraceProductObservable",
        "TwistedObservable",
        "TwistedPhiObservable",
        "branching_decomposition",
        "character_table",
        "estimate",
        "estimate_many",
        "estimate_ratio",
        "expect_phi_series",
        "expect_trace_product",
        "expect_twisted",
        "fpf_involutions_lds",
        "g_bruteforce",
        "g_closed",
        "johansson_limit",
        "lr_coefficient",
        "partitions_of",
        "twisted_asymptotic",
    ):
        assert hasattr(liemoments, name), name


def test_package_root_exports_only_what_is_imported_from_it():
    """The package root exports the names the benchmark imports from it (the
    last list above); the CLI and the tests import from the modules."""
    assert sorted(liemoments.__all__) == sorted(
        {
            "CharacterProductObservable",
            "Family",
            "FourierData",
            "GroupSpec",
            "Partition",
            "PhiObservable",
            "SchurSpecialization",
            "TraceProductObservable",
            "TwistedObservable",
            "TwistedPhiObservable",
            "branching_decomposition",
            "character_table",
            "estimate",
            "estimate_many",
            "estimate_ratio",
            "expect_phi_series",
            "expect_trace_product",
            "expect_twisted",
            "fpf_involutions_lds",
            "g_bruteforce",
            "g_closed",
            "johansson_limit",
            "lr_coefficient",
            "partitions_of",
            "twisted_asymptotic",
        }
    )
    # nothing else is bound at the root but submodules
    extra = {
        name
        for name, value in vars(liemoments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert extra - set(liemoments.__all__) == {"annotations"}
