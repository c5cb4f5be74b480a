"""Per-segment feature extraction for interval classification.

Each detected segment yields an 82-dimensional vector: fifteen statistical
and spectral features per Earth-frame component (east, north, vertical),
the segment length in samples, and six ranked extrema (three peaks, three
valleys) per component with their amplitudes and relative positions.

The extractor works on all three components at once:

- one cumulative sum along the samples smooths the ``(n, 3)`` segment;
- the statistics reduce the rows of the smoothed ``(3, n)`` array, each a
  contiguous row, so every sum adds in the order it would for one series;
- for each peak window size ``w``, the three components and their negations
  (peaks, then valleys) form a ``(6, n // w, w)`` block with one ``argmax``
  per window, plus one ``argmax`` over the partial window at the end. A
  window nominates its first maximum, and each row keeps its three
  strongest nominees: amplitude descending, then sample index ascending.

Vectors are bit-identical to featurising each component on its own.
``extract_features`` returns the plain ``(82,)`` vector, laid out as the
three components' statistics, the length, then the three components'
extrema; ``SliceFeatures`` keeps the vectors of one recording's slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_SMOOTH_K = 9
DEFAULT_PEAK_WINDOWS_S = (1.0, 2.0, 4.0)
NVHT_PERCENTILES = (50.0, 75.0, 90.0)
N_FFT_BINS = 6
N_EXTREMA = 3

STATS_DIM = 4 + 3 + N_FFT_BINS + 2  # mean/max/std/mav, nvht x3, fft bins, entropy, peak pos
PEAKS_DIM = 2 * N_EXTREMA * 2  # (amp, pos) for peaks and valleys
FEATURE_DIM = 3 * STATS_DIM + 1 + 3 * PEAKS_DIM


@dataclass(frozen=True)
class FeatureConfig:
    """Everything the extractor needs, so train and attack agree exactly."""

    sample_rate: float
    smooth_k: int = DEFAULT_SMOOTH_K
    peak_windows_s: tuple[float, ...] = DEFAULT_PEAK_WINDOWS_S
    nvht_thresholds: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.smooth_k < 1:
            raise ValueError("smooth_k must be >= 1")
        if not self.peak_windows_s:
            raise ValueError("need at least one peak window size")

    def peak_windows(self) -> tuple[int, ...]:
        return tuple(max(1, int(round(s * self.sample_rate))) for s in self.peak_windows_s)

    def to_dict(self) -> dict:
        return {
            "sample_rate": self.sample_rate,
            "smooth_k": self.smooth_k,
            "peak_windows_s": list(self.peak_windows_s),
            "nvht_thresholds": None
            if self.nvht_thresholds is None
            else [list(t) for t in self.nvht_thresholds],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureConfig":
        thr = doc["nvht_thresholds"]
        return cls(
            sample_rate=float(doc["sample_rate"]),
            smooth_k=int(doc["smooth_k"]),
            peak_windows_s=tuple(float(s) for s in doc["peak_windows_s"]),
            nvht_thresholds=None if thr is None else tuple(tuple(t) for t in thr),
        )


def smooth(series: np.ndarray, k: int = DEFAULT_SMOOTH_K) -> np.ndarray:
    """Centered moving average along the first axis; even k is widened by one, edges truncate.

    An ``(n, c)`` array smooths each column with one cumulative sum, which
    adds each column's samples in the same order as smoothing it alone.
    """
    if k < 1:
        raise ValueError("smoothing width must be >= 1")
    if k % 2 == 0:
        k += 1
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n == 0 or k == 1:
        return x.copy()
    h = k // 2
    cs = np.concatenate([np.zeros((1, *x.shape[1:])), np.cumsum(x, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(idx - h, 0)
    hi = np.minimum(idx + h + 1, n)
    width = (hi - lo).reshape(n, *[1] * (x.ndim - 1))
    return (cs[hi] - cs[lo]) / width


def statistical_features(series: np.ndarray, thresholds: tuple | np.ndarray) -> np.ndarray:
    """Fifteen stats of one smoothed component, or of each row of several.

    ``series`` is one component ``(n,)`` with ``thresholds`` ``(3,)``, or
    one component per row ``(c, n)`` with ``thresholds`` ``(c, 3)``; the
    result is ``(15,)`` or ``(c, 15)`` to match.

    Layout: mean, max, std, mean absolute value, three exceedance counts,
    magnitudes of FFT bins 1..6 (mean removed, zero-padded to a power of
    two of at least 16), spectral entropy over bins 1..nfft/2, and the
    1-based index of the strongest of those bins. An all-zero spectrum
    reports entropy 0 and peak position 0.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("empty series")
    rows = np.atleast_2d(x)
    thr = np.atleast_2d(np.asarray(thresholds, dtype=float))
    n = rows.shape[1]
    # every reduction runs along a contiguous row, so it sums in the order
    # a single series would
    mean = np.mean(rows, axis=1)
    absx = np.abs(rows)
    counts = np.count_nonzero(absx[:, None, :] > thr[:, :, None], axis=2)

    nfft = max(16, 1 << (n - 1).bit_length())
    spec = np.abs(np.fft.rfft(rows - mean[:, None], nfft, axis=1))
    power = spec[:, 1 : nfft // 2 + 1] ** 2
    total = power.sum(axis=1)
    entropy = np.zeros(len(rows))
    peak_pos = np.zeros(len(rows))
    for r in np.flatnonzero(total > 0.0):
        p = power[r] / total[r]
        p = p[p > 0]
        entropy[r] = -np.sum(p * np.log(p))
        peak_pos[r] = np.argmax(power[r]) + 1

    out = np.column_stack(
        [
            mean,
            np.max(rows, axis=1),
            np.std(rows, axis=1),
            np.mean(absx, axis=1),
            counts,
            spec[:, 1 : N_FFT_BINS + 1],
            entropy,
            peak_pos,
        ]
    )
    return out[0] if x.ndim == 1 else out


def _window_extrema(signed: np.ndarray, w: int) -> np.ndarray:
    """Each row's top extrema of equal chopped windows: up to 3 indices.

    ``signed`` holds one series per row, negated where valleys are wanted.
    Every window of w samples, and the partial window at the end, nominates
    its maximum (first on ties); a row's nominees are ordered by amplitude,
    strongest first, then by index.
    """
    m, n = signed.shape
    n_full = n // w
    parts = []
    if n_full:
        blocks = signed[:, : n_full * w].reshape(m, n_full, w)
        parts.append(np.argmax(blocks, axis=2) + np.arange(n_full) * w)
    if n_full * w < n:
        parts.append(n_full * w + np.argmax(signed[:, n_full * w :], axis=1, keepdims=True))
    idx = np.concatenate(parts, axis=1)
    row = np.arange(m)[:, None]
    order = np.lexsort((idx, -signed[row, idx]))[:, :N_EXTREMA]
    return idx[row, order]


def _rank_clusters(
    cands: list[tuple[float, int]], merge_dist: int, n: int, sign: int
) -> list[float]:
    """Merge near-coincident extrema across window sizes and rank them.

    A cluster's strength is how many window sizes nominated it, then its
    amplitude. Output is 3 x (amplitude, position fraction), zero-padded.
    """
    clusters: list[list[tuple[float, int]]] = []
    for val, idx in sorted(cands, key=lambda c: c[1]):
        if clusters and idx - clusters[-1][-1][1] <= merge_dist:
            clusters[-1].append((val, idx))
        else:
            clusters.append([(val, idx)])

    ranked = []
    for members in clusters:
        wins = len(members)
        best = max(members, key=lambda c: (sign * c[0], -c[1]))
        ranked.append((wins, best[0], best[1]))
    ranked.sort(key=lambda r: (-r[0], -sign * r[1], r[2]))

    out: list[float] = []
    for _, val, idx in ranked[:N_EXTREMA]:
        out.extend([val, idx / n])
    while len(out) < 2 * N_EXTREMA:
        out.extend([0.0, 0.0])
    return out


def peak_features(series: np.ndarray, window_sizes: tuple[int, ...]) -> np.ndarray:
    """Three strongest peaks and valleys of a smoothed component, or of each row.

    ``series`` is ``(n,)`` or ``(c, n)``; the result is ``(12,)`` or
    ``(c, 12)``. Every window size nominates its top extrema independently;
    nominations within the smallest window size of each other merge into one
    candidate, and candidates backed by more window sizes outrank stronger
    loners.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("empty series")
    rows = np.atleast_2d(x)
    c, n = rows.shape
    merge_dist = min(window_sizes)
    # rows 0..c-1 nominate peaks, rows c..2c-1 valleys of the same components
    signed = np.concatenate([rows, -rows])
    idx = np.concatenate([_window_extrema(signed, w) for w in window_sizes], axis=1)
    ranked = [
        _rank_clusters(
            list(zip(rows[r % c, idx[r]].tolist(), idx[r].tolist())),
            merge_dist,
            n,
            +1 if r < c else -1,
        )
        for r in range(2 * c)
    ]
    out = np.array([ranked[r] + ranked[c + r] for r in range(c)])
    return out[0] if x.ndim == 1 else out


def extract_features(segment: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The ``(82,)`` vector of one (n, 3) Earth-frame segment of (east, north, vertical)."""
    seg = np.asarray(segment, dtype=float)
    if seg.ndim != 2 or seg.shape[1] != 3:
        raise ValueError(f"expected (n, 3) segment, got {seg.shape}")
    if len(seg) == 0:
        raise ValueError("empty segment")
    if config.nvht_thresholds is None:
        raise ValueError("feature config has no fitted exceedance thresholds")
    sm = np.ascontiguousarray(smooth(seg, config.smooth_k).T)
    stats = statistical_features(sm, config.nvht_thresholds)
    peaks = peak_features(sm, config.peak_windows())
    vec = np.concatenate([stats.ravel(), [float(len(seg))], peaks.ravel()])
    assert vec.shape == (FEATURE_DIM,)
    return vec


class SliceFeatures:
    """Feature vectors of ``[lo, hi)`` slices of one ``(n, 3)`` series, each computed once.

    Overlapping cut layouts of one recording cut the same slice many times;
    this keeps each slice's vector, not the slice, for as long as its owner
    keeps the object.
    """

    def __init__(self, components: np.ndarray, config: FeatureConfig):
        self.components = components
        self.config = config
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        vec = self._memo.get((lo, hi))
        if vec is None:
            vec = extract_features(self.components[lo:hi], self.config)
            self._memo[(lo, hi)] = vec
        return vec


def fit_nvht_thresholds(
    segments: list[np.ndarray], config: FeatureConfig
) -> FeatureConfig:
    """Set per-component exceedance thresholds from training segments."""
    if not segments:
        raise ValueError("no segments to fit thresholds")
    pooled = [[] for _ in range(3)]
    for seg in segments:
        sm = np.abs(smooth(seg, config.smooth_k))
        for ci in range(3):
            pooled[ci].append(sm[:, ci])
    thresholds = tuple(
        tuple(np.percentile(np.concatenate(pooled[ci]), NVHT_PERCENTILES).tolist())
        for ci in range(3)
    )
    return replace(config, nvht_thresholds=thresholds)
