"""Monte Carlo layer: determinism, shared draws, agreement with exact values."""

from __future__ import annotations

import dataclasses
import tracemalloc
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


@pytest.mark.parametrize(
    "G, lam",
    [(GroupSpec.sp(1), P("1,1,1,1")), (GroupSpec.so_even(4), P("2,2"))],
    ids=["sp2-below-range", "so8"],
)
def test_z_scores_are_calibrated(G, lam):
    """Over 100 seeds the z-scores against the exact value have mean 0 and
    standard deviation 1: the bounds are 4 standard errors of 100 draws,
    0.1 for the mean and about 0.07 for the deviation."""
    exact = float(expectations.expect_trace_product(G, lam))
    z = []
    for seed in range(100):
        e = estimate(G, TraceProductObservable(lam), 1000, seed, threads=1)
        z.append((e.mean - exact) / e.stderr)
    assert abs(np.mean(z)) <= 0.4
    assert 0.72 <= np.std(z, ddof=1) <= 1.28


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


def test_decimal_coefficients_are_pinned_bit_for_bit():
    # decimal literals are read as exact rationals and the observable takes
    # float(c), the nearest double, so the estimate keeps these bits
    f = FourierData.parse("c0=0.1,c1=0.3,c2=-0.15")
    e = estimate(GroupSpec.so_odd(3), TwistedPhiObservable(P("1"), f), 8192, seed=5, threads=1)
    assert (e.mean.hex(), e.stderr.hex()) == ("0x1.908fcc83cfe6ap-2", "0x1.181beb8047f1bp-6")


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
    assert TwistedObservable(P("1"), P("2")).char_labels == (P("1"),)
    assert CharacterProductObservable(P("1"), P("1")).char_labels == (P("1"), P("1"))
    assert CharacterProductObservable(P("1"), P("2")).char_labels == (P("1"), P("2"))
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


# The same observables over Sp(40), 700 samples at seed 2026.  Its blocks
# hold 2^20 // (16 * 40^2) = 40 matrices, so the chunk runs as 17 blocks of
# 40 and a partial one of 20.
_PINNED_SP40 = [
    ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("-0x1.01cfc8fa50f92p+0", "0x1.9923d0bb26900p-4"),
    ("-0x1.fe848ffa38fb4p-1", "0x1.3a7d4497b133cp-4"),
    ("0x1.51c70a2f2cc6fp+1", "0x1.1218c462ee88ap-2"),
    ("0x1.407a2cdeae7b5p+3", "0x1.942ff24a899b8p-3"),
    ("-0x1.b0d1de63556f4p+0", "0x1.f3184dd572877p-2"),
    ("0x1.d3e0f0b4ebba2p-1", "0x1.0876c4cff2cf1p-4"),
    ("-0x1.5e8a3ea3fdeddp-4", "0x1.af055cc0ea531p-5"),
]


def test_partial_blocks_are_pinned_bit_for_bit():
    results = estimate_many(GroupSpec.sp(20), _PIN_OBSERVABLES, 700, seed=2026, threads=1)
    got = [(e.mean.hex(), e.stderr.hex()) for e in results]
    assert got == _PINNED_SP40


def test_sample_values_holds_one_block_at_a_time():
    """A worker draws and evaluates a chunk in blocks: over Sp(20) a block
    is 2^20 // (16 * 20^2) = 163 complex 20 x 20 matrices, about 1 MB, and
    a 4096-sample chunk peaks at a few such blocks (the workspace's normals
    and stack, QR's three temporaries, the chunk's stream handles: 6.1 MB),
    not at a few copies of all its matrices (27.9 MB in blocks of 1024)."""
    G = GroupSpec.sp(10)
    block_bytes = montecarlo._block_rows(G) * G.matrix_size**2 * 16
    assert block_bytes <= montecarlo._BLOCK_BYTES
    tracemalloc.start()
    try:
        sample_values(G, [TraceProductObservable(P("1"))], 4096, 8, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * block_bytes


_BLOCK_CELLS = [
    (GroupSpec.sp(10), [TraceProductObservable(P("1,1,1,1")), PhiObservable(_PIN_PHI)]),
    (
        GroupSpec.so_even(4),
        [
            TwistedObservable(P("2,1"), P("2,1")),
            TwistedObservable(P("1,1,1,1"), P("1,1,1,1")),
            CharacterProductObservable(P("2"), P("1,1")),
            CharacterProductObservable(P("1,1,1,1"), P("1,1,1,1")),
        ],
    ),
]


@pytest.mark.parametrize("G, observables", _BLOCK_CELLS, ids=["sp20", "so8"])
def test_block_size_changes_no_bit(G, observables, monkeypatch):
    """Blocks of 1 and 7 samples give every value of the default blocks bit
    for bit: 1100 samples end in a partial block at 7 rows and at the
    default, which must not read a previous block's rows."""

    def hexes():
        values = sample_values(G, observables, 1100, seed=3, threads=1)
        return [[v.hex() for v in row] for row in values.tolist()]

    assert 1100 % montecarlo._block_rows(G) != 0
    default = hexes()
    for rows in (1, 7):
        monkeypatch.setattr(montecarlo, "_block_rows", lambda G: rows)
        assert hexes() == default, rows


def test_too_few_samples():
    with pytest.raises(ValueError):
        estimate(GroupSpec.sp(2), TraceProductObservable(P("1")), 99, seed=0)


def test_symbol_too_large_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the range check")

    monkeypatch.setattr(montecarlo, "sample_matrices", no_draws)
    big = FourierData.parse("c1=1000")
    for obs in (PhiObservable(big), TwistedPhiObservable(P("1"), big)):
        with pytest.raises(ValueError, match="too large to estimate"):
            estimate(GroupSpec.sp(1), obs, 100, seed=0)


def test_stable_group_rejected():
    with pytest.raises(ValueError):
        estimate(GroupSpec.sp(None), TraceProductObservable(P("1")), 500, seed=0)


def test_label_longer_than_rank(monkeypatch):
    # refused before the first draw, also when only a later observable's
    # second character has the long label
    def no_draw(*args):
        raise AssertionError("drew matrices for an invalid label")

    monkeypatch.setattr(montecarlo, "sample_matrices", no_draw)
    with pytest.raises(ValueError, match="longer than the rank"):
        estimate(GroupSpec.sp(2), TwistedObservable(P("1,1,1"), P("1")), 500, seed=0)
    observables = [TraceProductObservable(P("1")), CharacterProductObservable(P("1"), P("1,1,1"))]
    with pytest.raises(ValueError, match="longer than the rank"):
        estimate_many(GroupSpec.sp(2), observables, 500, seed=0)


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
# The Sp(8) tr g^2 residuals bunch at 2^-52: 2.2e-16 sends 1.9% of the block
# back, 2.5e-16 sends 49 of the 9000 samples.
FORCED_REDRAWS = [
    pytest.param(
        GroupSpec.sp(4),
        TraceProductObservable(P("2,1")),
        ("trace_imag", 2.2e-16, 2.5e-16),
        "0x1.e59a926597bcbp+5",
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
    labels = list(dict.fromkeys(obs.char_labels))
    block, redrawn = _chunk_block(G, [obs], 5, 100, 1100, obs.max_power(), labels)
    assert redrawn > 0
    assert float(block.sum()).hex() == block_sum

    use(mild)
    a = sample_values(G, [obs], 9000, seed=5, threads=1)
    b = sample_values(G, [obs], 9000, seed=5, threads=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, default)


def test_forced_redraws_in_small_blocks_are_pinned(monkeypatch):
    """The first forced-redraw cell in blocks of 7 samples: a redraw lands
    in new arrays, not in the workspace that holds the block's matrices,
    so the block sum is the pinned one."""
    G, obs, (name, forcing, _), block_sum = FORCED_REDRAWS[0].values
    tol = dataclasses.replace(DEFAULT_TOLERANCES, **{name: forcing})
    monkeypatch.setattr(config, "DEFAULT_TOLERANCES", tol)
    monkeypatch.setattr(montecarlo, "_block_rows", lambda G: 7)
    block, redrawn = _chunk_block(G, [obs], 5, 100, 1100, obs.max_power(), [])
    assert redrawn > 0
    assert float(block.sum()).hex() == block_sum


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    """Without `threads`, a process allowed one CPU runs a three-chunk call
    without a thread pool, whatever the machine's CPU count."""

    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool on one usable CPU")

    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    values = sample_values(GroupSpec.so_even(3), [TraceProductObservable(P("2"))], 9000, seed=42)
    assert values.shape == (1, 9000)


def test_names_the_bench_tracer_rebinds_exist():
    """The benchmark under `bench/` rebinds, wraps or reads these package
    names, so renaming or deleting one breaks a benchmark run; this makes it
    fail here first.  Drop the rebinding parts when the timing spans move
    into the package (ROADMAP item 4; item 3 switches the bench to them).
    bench/child.py also rebinds every cli.cmd_* after importing the CLI, to
    time the handler; that cli.main runs the rebound one is pinned by
    test_cli.py::test_handler_rebound_after_first_call_runs."""
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
