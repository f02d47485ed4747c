from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    RESIDUAL_LIMITS,
    matrix_residuals,
    reference_generator,
    sp_gram_schmidt,
    trace_powers_repeated,
)

from liemoments.config import DEFAULT_TOLERANCES
from liemoments.groups import Family, GroupSpec
from liemoments.montecarlo import PhiObservable, TraceProductObservable, sample_values
from liemoments.partitions import Partition
from liemoments.sampling import (
    _normals,
    half_spectrum_batch,
    rng_for_sample,
    sample_matrices,
    trace_powers_batch,
    weyl_character_batch,
)
from liemoments.szego import FourierData

P = Partition.parse

GROUPS = [GroupSpec.sp(3), GroupSpec.so_even(3), GroupSpec.so_odd(3)]

# asymptotic two-sided Kolmogorov-Smirnov threshold at alpha = 0.001
KS_FACTOR = math.sqrt(-0.5 * math.log(0.0005))


def _ks_statistic(values: np.ndarray, cdf) -> float:
    x = np.sort(values)
    n = len(x)
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def _draws(G, seed, count):
    return sample_matrices(G, [rng_for_sample(seed, i) for i in range(count)])


def _characters(G, gamma, mats):
    """Character values through the batched path, requiring every draw to
    pass the pairing and denominator checks and the values to be real."""
    angles, residual = half_spectrum_batch(mats, G.family)
    assert residual.max() <= DEFAULT_TOLERANCES.pairing
    values, bad = weyl_character_batch(G.family, gamma, angles)
    assert not bad.any()
    assert values.dtype == np.float64
    return values


def test_rng_streams_are_reproducible():
    a = _normals([rng_for_sample(5, 7)], (4,))
    b = _normals([rng_for_sample(5, 7)], (4,))
    c = _normals([rng_for_sample(5, 8)], (4,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 5, -1, 2**63 + 3])
@pytest.mark.parametrize("shape", [(6, 6), (2, 6, 3)], ids=["so", "sp"])
def test_normals_follow_reference_generator(seed, shape):
    """Each handle reads its own Philox stream, and a handle read again
    (as a redraw does) continues that stream where the last read stopped."""
    indices = [0, 1, 9, 4095]
    streams = [rng_for_sample(seed, i) for i in indices]
    first = _normals(streams, shape)
    again = _normals(streams[1::2], shape)
    refs = [reference_generator(seed, i) for i in indices]
    for row, ref in zip(first, refs):
        assert np.array_equal(row, ref.standard_normal(shape))
    for row, ref in zip(again, refs[1::2]):
        assert np.array_equal(row, ref.standard_normal(shape))
    size = math.prod(shape)
    assert [s.used for s in streams] == [size, 2 * size, size, 2 * size]


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_matrix_invariants(G):
    res = matrix_residuals(G.family, _draws(G, 123, 40))
    expected = {"unitarity", "symplectic" if G.family is Family.SP else "orthogonality"}
    if G.family is not Family.SP:
        expected.add("determinant")
    assert set(res) == expected
    for name, values in res.items():
        assert values.max() < RESIDUAL_LIMITS[name], name


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_batch_matches_single_draws(G):
    rngs = [rng_for_sample(9, i) for i in range(5)]
    batch = sample_matrices(G, rngs)
    for i in range(5):
        single = sample_matrices(G, [rng_for_sample(9, i)])[0]
        assert np.array_equal(batch[i], single)


def test_sp_rank_one_is_su2():
    # 2x2 draws are unitary with the quaternion block structure
    for g in _draws(GroupSpec.sp(1), 3, 25):
        assert g[1, 1] == pytest.approx(np.conj(g[0, 0]))
        assert g[0, 1] == pytest.approx(-np.conj(g[1, 0]))
        tr = np.trace(g)
        assert abs(tr.imag) < 1e-12
        assert -2.0 <= tr.real <= 2.0


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_sp_draw_matches_gram_schmidt(n):
    """The QR draw equals quaternionic Gram-Schmidt on the same normals up
    to rounding, reads as many normals, and its partner half is exact."""
    streams = [rng_for_sample(17, i) for i in range(300)]
    fresh = [rng_for_sample(17, i) for i in range(300)]
    g = sample_matrices(GroupSpec.sp(n), streams)
    ref = sp_gram_schmidt(n, fresh)
    assert np.max(np.abs(g - ref)) < 1e-13
    assert [s.used for s in streams] == [s.used for s in fresh]
    assert np.array_equal(g[:, n:, n:], np.conj(g[:, :n, :n]))
    assert np.array_equal(g[:, :n, n:], -np.conj(g[:, n:, :n]))


def test_so2_angle_uniform():
    n = 10_000
    rngs = [rng_for_sample(2024, i) for i in range(n)]
    mats = sample_matrices(GroupSpec.so_even(1), rngs)
    angles = np.arctan2(mats[:, 1, 0], mats[:, 0, 0])  # signed angle in (-pi, pi]
    u = (angles + np.pi) / (2 * np.pi)
    d = _ks_statistic(u, lambda x: x)
    assert d < KS_FACTOR / math.sqrt(n)


def test_sp1_angle_law():
    # eigenangle density is 2 sin^2(theta)/pi on [0, pi]
    n = 10_000
    rngs = [rng_for_sample(77, i) for i in range(n)]
    mats = sample_matrices(GroupSpec.sp(1), rngs)
    angles, residual = half_spectrum_batch(mats, Family.SP)
    assert residual.max() < 1e-8
    theta = angles[:, 0]
    cdf = lambda t: (t - np.sin(2 * t) / 2) / np.pi
    d = _ks_statistic(theta, cdf)
    assert d < KS_FACTOR / math.sqrt(n)


def test_so3_angle_law():
    # rotation angle density is (1 - cos theta)/pi on [0, pi]
    n = 10_000
    rngs = [rng_for_sample(78, i) for i in range(n)]
    mats = sample_matrices(GroupSpec.so_odd(1), rngs)
    angles, residual = half_spectrum_batch(mats, Family.SO_ODD)
    assert residual.max() < 1e-8
    theta = angles[:, 0]
    cdf = lambda t: (t - np.sin(t)) / np.pi
    d = _ks_statistic(theta, cdf)
    assert d < KS_FACTOR / math.sqrt(n)


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_first_trace_moments(G):
    n = 6000
    rngs = [rng_for_sample(90, i) for i in range(n)]
    mats = sample_matrices(G, rngs)
    traces, imag = trace_powers_batch(mats, 1)
    assert imag.max() < DEFAULT_TOLERANCES.trace_imag
    t = traces[:, 0]
    stderr1 = t.std(ddof=1) / math.sqrt(n)
    assert abs(t.mean()) < 4 * stderr1
    sq = t * t
    stderr2 = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 1.0) < 4 * stderr2


#: largest gap allowed between split and repeated-product traces; the
#: measured worst over 2,000 draws per group and pmax <= 7 is 3.6e-15
TRACE_SPLIT_GAP = 1e-13


def test_trace_powers_batch_against_plain_trace():
    """Split products give the traces and imaginary residuals of repeated
    products to rounding, for odd and even pmax."""
    for G in (GroupSpec.sp(4), GroupSpec.so_even(4), GroupSpec.so_odd(4), GroupSpec.sp(10)):
        mats = _draws(G, 4, 300)
        for pmax in range(8):
            traces, imag = trace_powers_batch(mats, pmax)
            ref, ref_imag = trace_powers_repeated(mats, pmax)
            assert traces.shape == ref.shape == (300, pmax)
            assert np.max(np.abs(traces - ref), initial=0) <= TRACE_SPLIT_GAP, (G, pmax)
            assert np.max(np.abs(imag - ref_imag)) <= TRACE_SPLIT_GAP, (G, pmax)
        empty, res = trace_powers_batch(mats, 0)
        assert empty.shape == (300, 0) and np.all(res == 0)


def test_so2_half_spectrum_is_rotation_angle():
    G = GroupSpec.so_even(1)
    mats = _draws(G, 11, 1)
    angles, residual = half_spectrum_batch(mats, G.family)
    assert residual[0] <= DEFAULT_TOLERANCES.pairing
    theta = abs(math.atan2(mats[0, 1, 0], mats[0, 0, 0]))
    assert angles[0, 0] == pytest.approx(theta, abs=1e-9)


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_spectrum_reconstruction(G):
    mats = _draws(G, 31, 10)
    angles, residual = half_spectrum_batch(mats, G.family)
    assert residual.max() <= DEFAULT_TOLERANCES.pairing
    assert np.all((0.0 <= angles) & (angles <= math.pi))
    for g, h in zip(mats, angles):
        # the half spectrum implies the eigenvalues e^{+-i h}, plus the
        # forced +1 in odd dimension
        t = np.exp(1j * h)
        rebuilt = np.concatenate([t, np.conj(t)])
        if G.family is Family.SO_ODD:
            rebuilt = np.append(rebuilt, 1.0 + 0.0j)
        direct = np.linalg.eigvals(g)
        # align by angle; sorting complex values directly is unstable for
        # exact-conjugate pairs whose real parts differ only by rounding
        rebuilt = rebuilt[np.argsort(np.angle(rebuilt))]
        direct = direct[np.argsort(np.angle(direct))]
        assert np.allclose(rebuilt, direct, atol=1e-6)


def test_sp_trace_from_angles():
    mats = _draws(GroupSpec.sp(2), 8, 1)
    angles, _ = half_spectrum_batch(mats, Family.SP)
    traces, _ = trace_powers_batch(mats, 1)
    assert 2 * np.cos(angles[0]).sum() == pytest.approx(traces[0, 0], abs=1e-6)


def test_eval_trace_product():
    # sample_values needs at least 100 samples; its sample 0 is drawn from
    # rng_for_sample(seed, 0), as _draws does
    G = GroupSpec.sp(2)
    mats = _draws(G, 12, 1)
    traces, _ = trace_powers_batch(mats, 1)
    t1 = traces[0, 0]
    observables = [TraceProductObservable(P(s)) for s in ("", "1,1", "2")]
    empty, row, col = sample_values(G, observables, 100, 12, threads=1)[:, 0]
    assert empty == 1.0
    assert row == pytest.approx(t1 * t1)
    ev = np.linalg.eigvals(mats[0])
    assert col == pytest.approx(np.sum(ev**2).real, abs=1e-6)


def test_eval_phi():
    G = GroupSpec.so_odd(2)
    traces, _ = trace_powers_batch(_draws(G, 13, 1), 1)
    f = FourierData({1: 0.3})
    observables = [
        PhiObservable(FourierData({})),
        PhiObservable(FourierData({}, c0=1.0)),
        PhiObservable(f),
    ]
    trivial, constant, linear = sample_values(G, observables, 100, 13, threads=1)[:, 0]
    assert trivial == 1.0
    assert constant == pytest.approx(math.exp(2.0))
    assert linear == pytest.approx(math.exp(0.3 * traces[0, 0]))


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_character_single_box_is_trace(G):
    mats = _draws(G, 55, 200)
    traces, _ = trace_powers_batch(mats, 1)
    values = _characters(G, P("1"), mats)
    assert np.allclose(values, traces[:, 0], rtol=0, atol=1e-6)


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_character_weight_two_symmetric_functions(G):
    # chi_(2) and chi_(1,1) against explicit symmetric polynomials of the
    # full spectrum, via the branching constants
    mats = _draws(G, 56, 60)
    traces, _ = trace_powers_batch(mats, 2)
    p1, p2 = traces[:, 0], traces[:, 1]
    h2 = (p1 * p1 + p2) / 2
    e2 = (p1 * p1 - p2) / 2
    if G.family is Family.SP:
        expected_row = h2  # s_(2) restricts irreducibly
        expected_col = e2 - 1.0  # s_(11) sheds a trivial summand
    else:
        expected_row = h2 - 1.0
        expected_col = e2
    row = _characters(G, P("2"), mats)
    col = _characters(G, P("1,1"), mats)
    assert np.allclose(row, expected_row, rtol=0, atol=1e-6)
    assert np.allclose(col, expected_col, rtol=0, atol=1e-6)


@pytest.mark.parametrize("n, seed", [(2, 57), (3, 58)])
def test_orthogonal_full_length_is_mirror_sum(n, seed):
    # a full-length even orthogonal label names the sum of the two
    # mirror-image irreducibles, the O(2n) character of (1^n) restricted:
    # e_n of the 2n eigenvalues
    G = GroupSpec.so_even(n)
    mats = _draws(G, seed, 30)
    values = _characters(G, Partition([1] * n), mats)
    e_n = np.array([(-1) ** n * np.poly(ev)[n] for ev in np.linalg.eigvals(mats)])
    assert np.allclose(values, e_n, rtol=0, atol=1e-6)


def test_character_batch_flags_degenerate_angles():
    angles = np.array([[0.0, 0.0], [0.3, 1.1]])
    values, bad = weyl_character_batch(Family.SP, P("1"), angles)
    assert bad[0] and not bad[1]
    assert values[1] == pytest.approx(
        2 * (math.cos(0.3) + math.cos(1.1)), abs=1e-9
    )


def test_character_label_longer_than_rank():
    angles, _ = half_spectrum_batch(_draws(GroupSpec.sp(2), 59, 1), Family.SP)
    with pytest.raises(ValueError):
        weyl_character_batch(Family.SP, P("1,1,1"), angles)
