"""Feature extraction oracles: loop-based smoothing, closed-form spectra,
hand-ranked extrema, and a frozen copy of the per-component extractor that
the batched one must match bit for bit, alone or in any batch."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

from subtrace import features
from subtrace.features import (
    FEATURE_DIM,
    N_EXTREMA,
    N_FFT_BINS,
    NVHT_PERCENTILES,
    PEAKS_DIM,
    STATS_DIM,
    FeatureConfig,
    extract_batch,
    extract_features,
    fit_features,
    fit_nvht_thresholds,
)
from subtrace.pipeline import interval_training_rows, true_segments

THRESHOLDS = (0.5, 2.5, 3.5)
FITTED = ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0))


@contextmanager
def constants(smooth_k=features.SMOOTH_K, peak_windows_s=features.PEAK_WINDOWS_S):
    """The extractor, and the loop extractor, with another smoothing width or peak windows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "SMOOTH_K", smooth_k)
        mp.setattr(features, "PEAK_WINDOWS_S", peak_windows_s)
        yield


def smoothed_rows(segments: list[np.ndarray]) -> list[np.ndarray]:
    """Each segment's smoothed ``(n, 3)`` rows, read off the blocks featurisation smooths."""
    out = [None] * len(segments)
    for chunk, n, block in features._smoothed_chunks(segments):
        for j, i in enumerate(chunk):
            out[i] = block[j, :, : n[j]].T
    return out


def smooth_oracle(x: np.ndarray, k: int) -> np.ndarray:
    if k % 2 == 0:
        k += 1
    h = k // 2
    n = len(x)
    return np.array([np.mean(x[max(0, i - h) : min(n, i + h + 1)]) for i in range(n)])


def east_only_vector(x, windows=(10,), thresholds=THRESHOLDS) -> np.ndarray:
    """The 82-vector of a segment whose east component is x, unsmoothed, and the rest 0.

    ``windows`` are peak window sizes in samples at 10 Hz.
    """
    cfg = FeatureConfig(
        sample_rate=10.0,
        nvht_thresholds=(tuple(thresholds), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    )
    seg = np.zeros((len(x), 3))
    seg[:, 0] = x
    with constants(smooth_k=1, peak_windows_s=tuple(w / 10.0 for w in windows)):
        assert cfg.peak_windows() == tuple(windows)
        return extract_features(seg, cfg)


def statistical_features(x) -> np.ndarray:
    """The fifteen statistics of series x: the east block of its vector."""
    return east_only_vector(x)[:STATS_DIM]


def peak_features(x, windows) -> np.ndarray:
    """The twelve extrema values of series x: the east block of its vector."""
    start = 3 * STATS_DIM + 1
    return east_only_vector(x, windows)[start : start + PEAKS_DIM]


class TestFeatureConfig:
    def test_peak_windows(self):
        cfg = FeatureConfig(sample_rate=10.0, nvht_thresholds=FITTED)
        assert cfg.peak_windows() == (10, 20, 40)

    def test_peak_windows_floor_one(self):
        # at 0.1 Hz every window rounds to no sample at all
        cfg = FeatureConfig(sample_rate=0.1, nvht_thresholds=FITTED)
        assert cfg.peak_windows() == (1, 1, 1)

    @pytest.mark.parametrize(
        "kw",
        [
            {"sample_rate": 0.0},
            {"sample_rate": -1.0},
            {"nvht_thresholds": ((1.0, 2.0, True),) * 3},
            {"nvht_thresholds": ()},
            {"sample_rate": float("nan")},
            {"sample_rate": True},
            {"nvht_thresholds": ((1.0, float("nan"), 3.0),) * 3},
            {"nvht_thresholds": ((1.0, 2.0),) * 3},
            {"nvht_thresholds": ((1.0, 2.0, 3.0),) * 2},
            {"nvht_thresholds": ((1.0, 2.0, "3"),) * 3},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            FeatureConfig(**{"sample_rate": 10.0, "nvht_thresholds": FITTED, **kw})

    def test_dict_round_trip(self):
        cfg = FeatureConfig(sample_rate=10.0, nvht_thresholds=FITTED)
        back = FeatureConfig.from_dict(cfg.to_dict(), 10.0)
        assert back == cfg

    def test_dict_holds_only_the_thresholds(self):
        # the rate is the network's, and smoothing and peak windows are constants
        cfg = FeatureConfig(sample_rate=5.0, nvht_thresholds=FITTED)
        assert cfg.to_dict() == {"nvht_thresholds": [list(t) for t in FITTED]}


class TestSmooth:
    @pytest.mark.parametrize("k", [1, 3, 4, 9, 51])
    def test_matches_loop_oracle(self, k):
        rng = np.random.default_rng(3)
        seg = rng.normal(size=(50, 3))
        with constants(smooth_k=k):
            out = smoothed_rows([seg])[0]
        assert out.shape == seg.shape
        for c in range(3):
            assert np.allclose(out[:, c], smooth_oracle(seg[:, c], k), atol=1e-12)

    def test_k_one_returns_copy(self):
        x = np.arange(15.0).reshape(5, 3)
        with constants(smooth_k=1):
            out = smoothed_rows([x])[0]
        assert np.array_equal(out, x)
        out[0, 0] = 99.0
        assert x[0, 0] == 0.0

    def test_even_k_widened(self):
        rng = np.random.default_rng(4)
        segs = [rng.normal(size=(30, 3)), rng.normal(size=(7, 3))]
        with constants(smooth_k=8):
            even = smoothed_rows(segs)
        with constants(smooth_k=9):
            odd = smoothed_rows(segs)
        for a, b in zip(even, odd):
            assert np.array_equal(a, b)

    def test_constant_unchanged(self):
        x = np.full((20, 3), 2.5)
        assert np.allclose(smoothed_rows([x])[0], x)


class TestStatisticalFeatures:
    """The fifteen statistics, read from the east block of a vector."""

    def test_layout_and_moments(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        feats = statistical_features(x)
        assert feats.shape == (STATS_DIM,)
        assert feats[0] == pytest.approx(2.5)  # mean
        assert feats[1] == pytest.approx(4.0)  # max
        assert feats[2] == pytest.approx(np.sqrt(1.25))  # std
        assert feats[3] == pytest.approx(2.5)  # mean |x|
        assert feats[4:7] == pytest.approx([4.0, 2.0, 1.0])  # exceedances

    def test_pure_tone_spectrum(self):
        # 32 samples of a bin-5 cosine: FFT magnitude n/2 at bin 5, zero
        # elsewhere, so entropy vanishes and the peak index is 5
        k = np.arange(32)
        x = np.cos(2 * np.pi * 5 * k / 32)
        feats = statistical_features(x)
        bins = feats[7:13]
        assert bins[4] == pytest.approx(16.0)
        assert np.all(np.abs(np.delete(bins, 4)) < 1e-9)
        assert feats[13] == pytest.approx(0.0, abs=1e-9)  # entropy
        assert feats[14] == 5.0  # peak bin

    def test_two_tone_entropy(self):
        # power 4:1 between bins 2 and 5 gives a closed-form entropy
        k = np.arange(32)
        x = 2.0 * np.cos(2 * np.pi * 2 * k / 32) + np.cos(2 * np.pi * 5 * k / 32)
        feats = statistical_features(x)
        assert feats[7 + 1] == pytest.approx(32.0)
        assert feats[7 + 4] == pytest.approx(16.0)
        expected = -(0.8 * np.log(0.8) + 0.2 * np.log(0.2))
        assert feats[13] == pytest.approx(expected)
        assert feats[14] == 2.0

    def test_zero_series(self):
        feats = statistical_features(np.zeros(10))
        assert np.array_equal(feats, np.zeros(STATS_DIM))

    def test_constant_series_hits_zero_spectrum_branch(self):
        feats = statistical_features(np.full(10, 3.0))
        assert feats[0] == 3.0 and feats[1] == 3.0 and feats[3] == 3.0
        assert feats[2] == 0.0
        assert feats[4:7] == pytest.approx([10.0, 10.0, 0.0])
        assert np.array_equal(feats[7:], np.zeros(8))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty segment"):
            statistical_features(np.empty(0))


class TestPeakFeatures:
    """The twelve extrema values, read from the east block of a vector."""

    def test_hand_ranked_extrema(self):
        # spikes at 20 (3.0), 70 (7.0) and a dip at 45 (-5.0); all three
        # window sizes nominate both spikes, so they outrank the zero
        # clusters, and the dip cluster absorbs the nearby zero nominees
        x = np.zeros(100)
        x[20], x[70], x[45] = 3.0, 7.0, -5.0
        out = peak_features(x, (10, 20, 50))
        assert out == pytest.approx(
            [7.0, 0.70, 3.0, 0.20, 0.0, 0.0, -5.0, 0.45, 0.0, 0.0, 0.0, 0.21]
        )

    def test_tail_window_nominates(self):
        # lone spike in the trailing partial window still gets nominated,
        # but the two merged zero nominees outrank it on cluster size
        x = np.zeros(25)
        x[22] = 9.0
        out = peak_features(x, (10,))
        assert out[:6] == pytest.approx([0.0, 0.0, 9.0, 0.88, 0.0, 0.0])

    def test_mirror_symmetry(self):
        # negating the series swaps the peak and valley blocks with
        # amplitudes negated and positions unchanged
        rng = np.random.default_rng(5)
        x = rng.normal(size=200)
        ws = (7, 13, 31)
        pf = peak_features(x, ws)
        nf = peak_features(-x, ws)
        assert nf[0:6:2] == pytest.approx(-pf[6:12:2])
        assert nf[1:6:2] == pytest.approx(pf[7:12:2])
        assert nf[6:12:2] == pytest.approx(-pf[0:6:2])
        assert nf[7:12:2] == pytest.approx(pf[1:6:2])

    def test_short_series_pads(self):
        out = peak_features(np.array([1.0, 2.0]), (10,))
        assert out.shape == (12,)
        assert out[0] == 2.0 and out[1] == 0.5
        assert out[6] == 1.0 and out[7] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty segment"):
            peak_features(np.empty(0), (10,))


class TestExtractFeatures:
    @pytest.fixture()
    def cfg(self):
        return FeatureConfig(
            sample_rate=10.0,
            nvht_thresholds=((0.1, 0.2, 0.3),) * 3,
        )

    def test_vector_layout(self, cfg):
        rng = np.random.default_rng(6)
        seg = rng.normal(size=(120, 3))
        vec = extract_features(seg, cfg)
        assert vec.shape == (FEATURE_DIM,)
        assert np.all(np.isfinite(vec))
        assert vec[3 * STATS_DIM] == 120.0

    def test_composes_from_parts(self):
        # each component's statistics and extrema depend on that component
        # and its thresholds only: moved into the east column, with its
        # thresholds there, it yields the same blocks
        thresholds = ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9))
        cfg = FeatureConfig(sample_rate=10.0, nvht_thresholds=thresholds)
        rng = np.random.default_rng(7)
        seg = rng.normal(size=(80, 3))
        vec = extract_features(seg, cfg)
        peaks = 3 * STATS_DIM + 1
        for c in range(3):
            moved = np.zeros_like(seg)
            moved[:, 0] = seg[:, c]
            alone = extract_features(moved, FeatureConfig(
                sample_rate=10.0, nvht_thresholds=(thresholds[c],) * 3
            ))
            assert np.array_equal(vec[c * STATS_DIM : (c + 1) * STATS_DIM], alone[:STATS_DIM])
            assert np.array_equal(
                vec[peaks + c * PEAKS_DIM : peaks + (c + 1) * PEAKS_DIM],
                alone[peaks : peaks + PEAKS_DIM],
            )
        assert vec[3 * STATS_DIM] == 80.0

    def test_deterministic(self, cfg):
        rng = np.random.default_rng(8)
        seg = rng.normal(size=(60, 3))
        a = extract_features(seg, cfg)
        b = extract_features(seg, cfg)
        assert np.array_equal(a, b)

    def test_unfitted_config_rejected(self):
        with pytest.raises(ValueError, match="nvht_thresholds must be 3 rows"):
            FeatureConfig(sample_rate=10.0, nvht_thresholds=None)

    @pytest.mark.parametrize("shape", [(50,), (50, 2), (0, 3)])
    def test_bad_segment_shape(self, cfg, shape):
        with pytest.raises(ValueError):
            extract_features(np.zeros(shape), cfg)

    def test_empty_batch(self, cfg):
        assert extract_batch([], cfg).shape == (0, FEATURE_DIM)


class TestFitThresholds:
    def test_pooled_percentiles(self):
        rng = np.random.default_rng(9)
        segs = [rng.normal(size=(40, 3)), rng.normal(size=(60, 3))]
        with constants(smooth_k=5):
            fitted = fit_nvht_thresholds(smoothed_rows(segs), 10.0)
        assert fitted.sample_rate == 10.0
        for c in range(3):
            pooled = np.concatenate([np.abs(_loop_smooth(s[:, c], 5)) for s in segs])
            want = tuple(float(np.percentile(pooled, p)) for p in NVHT_PERCENTILES)
            assert fitted.nvht_thresholds[c] == want

    def test_smoothed_segments_untouched(self):
        # the pooled values are taken absolute and partitioned in a copy
        smoothed = smoothed_rows([np.random.default_rng(10).normal(size=(30, 3))])
        before = smoothed[0].copy()
        fit_nvht_thresholds(smoothed, 10.0)
        assert smoothed[0].tobytes() == before.tobytes()

    def test_no_segments(self):
        with pytest.raises(ValueError):
            fit_nvht_thresholds([], 10.0)

    def test_fit_features_refuses_empty_segment(self):
        with pytest.raises(ValueError, match="empty segment"):
            fit_features([np.zeros((5, 3)), np.empty((0, 3))], 10.0)


# --- frozen per-component extractor ----------------------------------------------
#
# The extractor as it was before it worked on all three components at once:
# one smoothing, one set of statistics and one Python sort of every window's
# nominee per component. The vectorised extractor must reproduce its vectors
# byte for byte.


def _loop_smooth(x: np.ndarray, k: int) -> np.ndarray:
    if k % 2 == 0:
        k += 1
    n = len(x)
    if n == 0 or k == 1:
        return x.copy()
    h = k // 2
    cs = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(n)
    lo = np.maximum(idx - h, 0)
    hi = np.minimum(idx + h + 1, n)
    return (cs[hi] - cs[lo]) / (hi - lo)


def _loop_stats(x: np.ndarray, thresholds) -> np.ndarray:
    n = len(x)
    mean = float(np.mean(x))
    counts = [float(np.sum(np.abs(x) > t)) for t in thresholds]
    nfft = max(16, 1 << (n - 1).bit_length())
    spec = np.abs(np.fft.rfft(x - mean, nfft))
    bins = spec[1 : N_FFT_BINS + 1]
    power = spec[1 : nfft // 2 + 1] ** 2
    total = float(power.sum())
    if total > 0.0:
        p = power / total
        p = p[p > 0]
        entropy = float(-np.sum(p * np.log(p)))
        peak_pos = float(np.argmax(power) + 1)
    else:
        entropy = 0.0
        peak_pos = 0.0
    return np.array(
        [mean, float(np.max(x)), float(np.std(x)), float(np.mean(np.abs(x))),
         *counts, *bins, entropy, peak_pos]
    )


def _loop_window_extrema(x: np.ndarray, w: int, sign: int) -> list[tuple[float, int]]:
    n = len(x)
    n_full = n // w
    idx: list[int] = []
    if n_full:
        blocks = (sign * x[: n_full * w]).reshape(n_full, w)
        idx.extend((np.argmax(blocks, axis=1) + np.arange(n_full) * w).tolist())
    if n_full * w < n:
        idx.append(n_full * w + int(np.argmax(sign * x[n_full * w :])))
    cands = [(float(x[i]), int(i)) for i in idx]
    cands.sort(key=lambda c: (-sign * c[0], c[1]))
    return cands[:N_EXTREMA]


def _loop_rank_clusters(cands, merge_dist: int, n: int, sign: int) -> list[float]:
    clusters: list[list[tuple[float, int]]] = []
    for val, idx in sorted(cands, key=lambda c: c[1]):
        if clusters and idx - clusters[-1][-1][1] <= merge_dist:
            clusters[-1].append((val, idx))
        else:
            clusters.append([(val, idx)])
    ranked = []
    for members in clusters:
        best = max(members, key=lambda c: (sign * c[0], -c[1]))
        ranked.append((len(members), best[0], best[1]))
    ranked.sort(key=lambda r: (-r[0], -sign * r[1], r[2]))
    out: list[float] = []
    for _, val, idx in ranked[:N_EXTREMA]:
        out.extend([val, idx / n])
    while len(out) < 2 * N_EXTREMA:
        out.extend([0.0, 0.0])
    return out


def _loop_peaks(x: np.ndarray, window_sizes) -> np.ndarray:
    peaks: list[tuple[float, int]] = []
    valleys: list[tuple[float, int]] = []
    for w in window_sizes:
        peaks.extend(_loop_window_extrema(x, w, +1))
        valleys.extend(_loop_window_extrema(x, w, -1))
    merge_dist = min(window_sizes)
    return np.array(
        _loop_rank_clusters(peaks, merge_dist, len(x), +1)
        + _loop_rank_clusters(valleys, merge_dist, len(x), -1)
    )


def loop_extract_vector(segment: np.ndarray, config: FeatureConfig) -> np.ndarray:
    seg = np.asarray(segment, dtype=float)
    sm = [_loop_smooth(seg[:, ci], features.SMOOTH_K) for ci in range(3)]
    stats = [_loop_stats(sm[ci], config.nvht_thresholds[ci]) for ci in range(3)]
    peaks = [_loop_peaks(sm[ci], config.peak_windows()) for ci in range(3)]
    return np.concatenate([*stats, [float(len(seg))], *peaks])


def loop_fit_thresholds(segments, config: FeatureConfig):
    pooled = [
        np.concatenate([np.abs(_loop_smooth(np.asarray(s, float)[:, ci], features.SMOOTH_K))
                        for s in segments])
        for ci in range(3)
    ]
    return tuple(
        tuple(float(np.percentile(pooled[ci], p)) for p in NVHT_PERCENTILES) for ci in range(3)
    )


#
# The peak finder as it was before window maxima came from cell maxima: one
# argmax per gcd-sized cell, then a strictly greater scan over each window's
# cells. The current one must reproduce its extrema byte for byte.


def frozen_extrema(sm, n, valid, windows):
    s, _, L = sm.shape
    base = math.gcd(*windows)
    width = max(-(-L // w) * w for w in windows)
    signed = np.full((s, 6, width), -np.inf)
    signed[:, :3, :L] = sm
    np.negative(sm, out=signed[:, 3:, :L])
    np.copyto(signed[:, :, :L], -np.inf, where=~valid)
    maxima = signed[:, :3, :L].max(axis=2)
    R = 6 * s
    cells = signed.reshape(-1, base)
    at = np.argmax(cells, axis=1)
    cell_max = cells[np.arange(len(cells)), at].reshape(R, -1)
    cell_at = at.reshape(R, -1) + np.arange(width // base) * base
    n_win = [-(-L // w) for w in windows]
    nominee = np.full((R, len(windows), max(n_win)), -np.inf)
    start = np.zeros(nominee.shape, dtype=np.intp)
    rows = np.arange(R)[:, None]
    for i, (w, m) in enumerate(zip(windows, n_win)):
        k = w // base
        sub = cell_max[:, : m * k].reshape(R, m, k)
        strongest = sub[:, :, 0].copy()
        pick = np.zeros((R, m), dtype=np.intp)
        for j in range(1, k):
            pick += (sub[:, :, j] > strongest) * (j - pick)
            np.maximum(strongest, sub[:, :, j], out=strongest)
        pick += np.arange(m) * k
        nominee[:, i, :m] = cell_max[rows, pick]
        start[:, i, :m] = cell_at[rows, pick]
    nominee = nominee.reshape(-1, nominee.shape[2])
    start = start.reshape(nominee.shape)
    flat = np.arange(len(nominee))
    cand_idx, cand_val = [], []
    for _ in range(N_EXTREMA):
        best = np.argmax(nominee, axis=1)
        cand_idx.append(start[flat, best])
        cand_val.append(nominee[flat, best])
        nominee[flat, best] = -np.inf
    ranked = features._ranked_clusters(
        np.stack(cand_idx, axis=1).reshape(R, -1),
        np.stack(cand_val, axis=1).reshape(R, -1),
        np.repeat(n, 6),
        min(windows),
    )
    return maxima, ranked.reshape(s, 2, 3, 2 * N_EXTREMA).transpose(0, 2, 1, 3).reshape(s, -1)


def assert_same_bytes(segments, cfg):
    """Every segment and its negation, featurised in one batch, match the loop extractor."""
    batch = [s for seg in segments for s in (seg, -seg)]
    got = extract_batch(batch, cfg)
    for s, row in zip(batch, got):
        want = loop_extract_vector(s, cfg)
        assert row.tobytes() == want.tobytes(), f"differs on a {s.shape} segment"


@pytest.fixture(scope="module")
def acceptance_segments(acceptance_corpus):
    segs = [seg for trip in acceptance_corpus.trips for seg, _ in true_segments(trip)]
    cfg = fit_nvht_thresholds(smoothed_rows(segs), acceptance_corpus.network.sample_rate)
    return segs, cfg


class TestMatchesLoopExtractor:
    """Vectors equal the frozen per-component extractor's, byte for byte."""

    CFG = FeatureConfig(sample_rate=10.0, nvht_thresholds=((0.1, 0.2, 0.3),) * 3)

    def test_acceptance_corpus_true_segments(self, acceptance_segments):
        segs, cfg = acceptance_segments
        assert len(segs) == 400
        assert_same_bytes(segs, cfg)

    def test_fitted_thresholds(self, acceptance_segments):
        segs, cfg = acceptance_segments
        assert cfg.nvht_thresholds == loop_fit_thresholds(segs, cfg)

    @pytest.mark.parametrize("held_out", [0, 195, 390])
    def test_fold_thresholds_match_one_percentile_per_call(self, acceptance_segments, held_out):
        # the pool of a leave-one-out fold: all but ten consecutive segments
        segs, cfg = acceptance_segments
        fold = segs[:held_out] + segs[held_out + 10:]
        fitted = fit_nvht_thresholds(smoothed_rows(fold), cfg.sample_rate)
        assert fitted.nvht_thresholds == loop_fit_thresholds(fold, cfg)

    def test_training_fold_smoothed_once(self, acceptance_corpus):
        # what train_ensemble_on fits: thresholds and vectors of one fold
        segs, _ = interval_training_rows(acceptance_corpus, list(range(1, 40)))
        fitted, X = fit_features(segs, acceptance_corpus.network.sample_rate)
        assert fitted.nvht_thresholds == loop_fit_thresholds(segs, fitted)
        want = np.stack([loop_extract_vector(s, fitted) for s in segs])
        assert X.tobytes() == want.tobytes()

    def test_prefixes_around_every_window_size(self, acceptance_segments):
        # the partial tail window appears, vanishes and reappears as the
        # length crosses each window size and its multiples
        segs, cfg = acceptance_segments
        rng = np.random.default_rng(21)
        k = features.SMOOTH_K
        lengths = {1, 2, k - 1, k, k + 1}
        for w in cfg.peak_windows():
            lengths |= {w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1, 3 * w + 7}
        prefixes = []
        for n in sorted(lengths):
            seg = segs[int(rng.integers(len(segs)))]
            prefixes.append(seg[:n])
            prefixes.append(rng.normal(size=(n, 3)))
        assert_same_bytes(prefixes, cfg)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 40, 41, 137])
    def test_constant_series(self, n):
        assert_same_bytes([np.zeros((n, 3)), np.full((n, 3), 2.5)], self.CFG)

    def test_plateaus_and_ties(self):
        # equal maxima within and across windows exercise the tie-break:
        # amplitude first, then the lower index
        rng = np.random.default_rng(22)
        steps = np.repeat(rng.integers(-2, 3, size=(30, 3)).astype(float), 7, axis=0)
        coarse = np.round(rng.normal(size=(250, 3)), 0)
        saw = np.tile(np.array([0.0, 1.0, 1.0, 0.0, -1.0]), (3, 40)).T
        twin_peaks = np.zeros((120, 3))
        twin_peaks[[5, 25, 65, 105], :] = 4.0
        assert_same_bytes([steps, coarse, saw, twin_peaks], self.CFG)

    def test_spectra_with_zero_bins(self):
        # 32 samples that repeat with period 16 have exactly zero odd FFT
        # bins; entropy then drops those bins and sums the rest on its own,
        # in the order the loop extractor sums them
        rng = np.random.default_rng(26)
        segs = [np.tile(rng.normal(size=(16, 3)), (2, 1)) for _ in range(20)]
        with constants(smooth_k=1):
            assert_same_bytes(segs, self.CFG)

    def test_other_window_sizes_and_smoothing(self):
        cfg = FeatureConfig(
            sample_rate=25.0,
            nvht_thresholds=((0.2, 0.5, 1.0), (0.1, 0.2, 0.3), (1.0, 1.5, 2.0)),
        )
        rng = np.random.default_rng(23)
        segs = [rng.normal(size=(int(n), 3)) for n in rng.integers(1, 400, size=25)]
        with constants(smooth_k=4, peak_windows_s=(0.2, 0.44, 3.0)):
            assert cfg.peak_windows() == (5, 11, 75)
            assert_same_bytes(segs, cfg)


class TestBatchIndependence:
    """A vector is the same bytes alone, in any batch order and across chunk boundaries."""

    CFG = TestMatchesLoopExtractor.CFG

    @pytest.fixture(scope="class")
    def mixed(self, acceptance_segments):
        segs, _ = acceptance_segments
        rng = np.random.default_rng(25)
        # lengths on both sides of the FFT sizes 16, 1024 and 2048, and of the
        # window sizes, plus length 1; zero, constant and tie-heavy content
        ride = np.concatenate(segs[:4])
        out = [ride[i : i + n] for i, n in zip(range(0, 4000, 500), (15, 16, 17, 1023, 1024, 1025, 2047))]
        out += [segs[i] for i in range(3, 400, 37)]
        for n in (1, 1, 2, 9, 10, 11, 39, 40, 41, 79):
            out.append(np.round(rng.normal(size=(n, 3)), 0))
        out += [np.zeros((1, 3)), np.zeros((50, 3)), np.full((33, 3), -1.25), np.full((1, 3), 4.0)]
        out.append(np.full((12, 3), -0.0))
        return out

    def test_alone_equals_batch(self, mixed):
        batch = extract_batch(mixed, self.CFG)
        for seg, row in zip(mixed, batch):
            assert extract_features(seg, self.CFG).tobytes() == row.tobytes()
            assert row.tobytes() == loop_extract_vector(seg, self.CFG).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_any_order(self, mixed, seed):
        batch = extract_batch(mixed, self.CFG)
        order = np.random.default_rng(seed).permutation(len(mixed))
        shuffled = extract_batch([mixed[i] for i in order], self.CFG)
        assert shuffled.tobytes() == batch[order].tobytes()

    @pytest.mark.parametrize("budget", [1, 64, 3000])
    def test_chunk_boundaries(self, mixed, budget, monkeypatch):
        # a budget of one sample puts every segment in a chunk of its own
        batch = extract_batch(mixed, self.CFG)
        fitted, X = fit_features(mixed, 10.0)
        monkeypatch.setattr(features, "CHUNK_SAMPLES", budget)
        assert extract_batch(mixed, self.CFG).tobytes() == batch.tobytes()
        fitted_small, X_small = fit_features(mixed, 10.0)
        assert fitted_small == fitted
        assert X_small.tobytes() == X.tobytes() == extract_batch(mixed, fitted).tobytes()


class TestPeakFinderMatchesFrozen:
    """The cell-maximum peak finder equals the frozen per-cell argmax one, byte for byte."""

    WINDOW_SETS = [(10, 20, 40), (1, 2, 4), (3, 6), (5,)]

    @staticmethod
    def blocks(rng, count):
        """Padded chunks of 1..137-sample rows: noise, plateaus, ties and signed zeros."""
        for trial in range(count):
            n = rng.integers(1, 138, size=int(rng.integers(1, 6)))
            x = rng.normal(size=(len(n), 3, int(n.max())))
            kind = trial % 5
            if kind == 1:  # few distinct values: ties within and across windows
                x = np.round(x)
            elif kind == 2:  # plateaus
                x = np.repeat(np.round(x[:, :, ::7]), 7, axis=2)[:, :, : x.shape[2]]
            elif kind == 3:  # only zeros, of both signs
                x = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)
            elif kind == 4:  # signed zeros tied with a few peaks and valleys
                x = np.where(rng.random(x.shape) < 0.9, np.where(x < 0, -0.0, 0.0), np.round(x))
            yield x, n

    @pytest.mark.parametrize("windows", WINDOW_SETS)
    def test_random_chunks(self, windows):
        rng = np.random.default_rng(sum(windows))
        for sm, n in self.blocks(rng, 150):
            valid = (np.arange(sm.shape[2]) < n[:, None])[:, None, :]
            maxima, idx, strength = features._extrema(sm, valid, windows)
            ranked = features._ranked_clusters(idx, strength, np.repeat(n, 6), min(windows))
            ranked = ranked.reshape(-1, 2, 3, 2 * N_EXTREMA).transpose(0, 2, 1, 3)
            ranked = ranked.reshape(len(n), -1)
            want = frozen_extrema(sm, n, valid, windows)
            assert maxima.tobytes() == want[0].tobytes()
            assert ranked.tobytes() == want[1].tobytes(), (n.tolist(), windows)

    @pytest.mark.parametrize("windows", WINDOW_SETS[1:])
    def test_loop_extractor_other_windows(self, windows):
        # only the extrema: the statistics' max of a row of mixed signed zeros
        # may be either zero, in the frozen extractor as in this one
        cfg = TestMatchesLoopExtractor.CFG
        rng = np.random.default_rng(27)
        segs = [
            np.moveaxis(sm, 1, 2)[j, : n[j]]
            for sm, n in self.blocks(rng, 30)
            for j in range(len(n))
        ]
        with constants(smooth_k=1, peak_windows_s=tuple(w / 10.0 for w in windows)):
            assert cfg.peak_windows() == windows
            got = extract_batch(segs, cfg)[:, 3 * STATS_DIM + 1 :]
        for seg, row in zip(segs, got):
            want = np.concatenate([_loop_peaks(seg[:, ci], windows) for ci in range(3)])
            assert row.tobytes() == want.tobytes(), f"differs on a {seg.shape} segment"
