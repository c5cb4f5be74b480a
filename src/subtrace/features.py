"""Feature extraction for interval classification, one batch of segments at a time.

Each detected segment yields an 82-dimensional vector: fifteen statistical
and spectral features per Earth-frame component (east, north, vertical),
the segment length in samples, and six ranked extrema (three peaks, three
valleys) per component with their amplitudes and relative positions. The
vector is laid out as the three components' statistics, the length, then
the three components' extrema.

Every segment is smoothed ``SMOOTH_K`` samples wide, and its extrema are
nominated over windows of ``PEAK_WINDOWS_S`` seconds. Both are module
constants, not settings: a ``FeatureConfig`` holds only the sample rate and
the exceedance thresholds that training fitted.

``extract_batch`` turns a list of k ``(n, 3)`` segments into a ``(k, 82)``
matrix and ``extract_features`` is its batch of one. A trainer calls
``fit_features``, which takes the exceedance thresholds from the smoothed
rows of its segments (``fit_nvht_thresholds``) and featurises the same
smoothed blocks. A component's thresholds are the ``NVHT_PERCENTILES`` of
its pooled absolute values, by numpy's linear rule, bit for bit;
``model.percentiles`` places each order statistic they need with a
single-kth partition of the pooled array. An attack or an evaluation
featurises the distinct segments it needs from one recording in one
``extract_batch`` call per screening round (``infer.decode_spans``), each
segment once, so nothing here remembers a segment between calls.

A batch is sorted by length and cut into chunks that share one FFT length
and whose padded size stays within ``CHUNK_SAMPLES`` samples. Each chunk is
one ``(s, 3, L)`` block: segment, component, sample, padded with -0.0 and
smoothed once (``_smoothed_chunks``), for training and decoding alike. A
vector is byte-identical to featurising its segment alone, whatever else
shares its batch or chunk, with one exception: the three max columns (1,
16 and 31) of a component whose largest value is a zero, held as both 0.0
and -0.0, may differ in the sign of that zero. Everything else agrees
because every sum still adds in the order it would for one segment:

- *Smoothing:* one cumulative sum runs along each padded row, so it
  restarts at every segment (one sum over the concatenated segments would
  round differently); adding -0.0 changes no float, so through the padding
  it stays at the row's total.
- *Mean, std and mean |x|:* each is one pairwise sum over the segment's own
  ``(3, n)`` slice of the block. Summing whole padded rows would move
  numpy's pairwise blocks.
- *Max and exceedance counts:* these are exact, so they reduce the whole
  block, with -inf padding for the max and the padding masked out of the
  counts. Only ``np.max`` may return either zero of a row that holds both,
  and the block and the lone row may return different ones.
- *Spectrum:* the mean-removed rows, zero-padded to the chunk's ``nfft``
  (the smallest power of two of at least 16 and n), go through one
  ``rfft``, which transforms each row on its own. Spectral entropy sums a
  whole row of bin probabilities when no bin is zero; a row with a zero bin
  drops those bins and sums on its own, as one segment alone did.
- *Peaks:* the components and their negations (peaks, then valleys) form a
  -inf-padded ``(s, 6, L')`` block. Every window size is a multiple of the
  sizes' gcd, so a column-wise ``np.maximum`` scan gives the maximum of
  every cell of that size, and the same scan over cells gives every
  window's maximum. Three ``argmax`` rounds over each window size's window
  maxima pick each row's three strongest windows, the lower index winning a
  tie. A chosen window's first maximum lies in the first of its cells whose
  maximum equals the window's, and one ``argmax`` over that cell's samples
  finds it. A maximum is exact and ``argmax`` compares 0.0 equal to -0.0,
  so every round picks the windows that ranking the windows' first maximal
  samples would pick. Only the sign of a zero can differ, as
  ``np.maximum(0.0, -0.0)`` may return either, so a nominee's amplitude is
  read from its sample, never from a maximum.
- *Clusters:* the nominees of all chunks are ranked together, once per
  batch. One ``lexsort`` over every (segment, row) group orders its
  nominees by index; a nominee within the smallest window size of the one
  before it joins its cluster. A cluster is represented by its strongest,
  then earliest, member, and clusters rank by how many nominations they
  hold, then amplitude, then index. Each group is ranked on its own, so the
  ranking does not depend on what else shares the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import is_finite_real, percentiles

# the centered moving-average width, in samples, and the extrema window sizes, in
# seconds; both are read at call time
SMOOTH_K = 9
PEAK_WINDOWS_S = (1.0, 2.0, 4.0)
NVHT_PERCENTILES = (50.0, 75.0, 90.0)
N_FFT_BINS = 6
N_EXTREMA = 3

STATS_DIM = 4 + 3 + N_FFT_BINS + 2  # mean/max/std/mav, nvht x3, fft bins, entropy, peak pos
PEAKS_DIM = 2 * N_EXTREMA * 2  # (amp, pos) for peaks and valleys
FEATURE_DIM = 3 * STATS_DIM + 1 + 3 * PEAKS_DIM
PEAKS_AT = 3 * STATS_DIM + 1  # the extrema follow the statistics and the length


@dataclass(frozen=True)
class FeatureConfig:
    """The sample rate and the fitted exceedance thresholds, so train and attack agree exactly."""

    sample_rate: float
    nvht_thresholds: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not (is_finite_real(self.sample_rate) and self.sample_rate > 0):
            raise ValueError(f"sample_rate must be finite and positive, got {self.sample_rate!r}")
        thr = self.nvht_thresholds
        if not (
            isinstance(thr, tuple)
            and len(thr) == 3
            and all(len(t) == len(NVHT_PERCENTILES) and all(map(is_finite_real, t)) for t in thr)
        ):
            raise ValueError(f"nvht_thresholds must be 3 rows of 3 finite numbers, got {thr!r}")

    def peak_windows(self) -> tuple[int, ...]:
        return tuple(max(1, int(round(s * self.sample_rate))) for s in PEAK_WINDOWS_S)

    def to_dict(self) -> dict:
        """The thresholds; the attack model's network states ``sample_rate``."""
        return {"nvht_thresholds": [list(t) for t in self.nvht_thresholds]}

    @classmethod
    def from_dict(cls, doc: dict, sample_rate: float) -> "FeatureConfig":
        thr = doc["nvht_thresholds"]
        return cls(sample_rate, tuple(map(tuple, thr)) if isinstance(thr, list) else thr)


# padded samples per chunk: bounds what one chunk's arrays hold, while keeping the
# numpy calls per segment few. 1 << 15 featurises a recording's batch faster
# still, but its larger blocks raise the peak resident memory of a process
# that trains and then decodes by about 5 MB; 1 << 14 does not.
CHUNK_SAMPLES = 1 << 14


def _nfft(n: int) -> int:
    """FFT length of an n-sample row: the smallest power of two of at least 16 and n."""
    return max(16, 1 << (n - 1).bit_length())


def _chunks(lengths: list[int]):
    """Index lists of length-sorted runs that share one ``_nfft`` and whose
    padded size stays within ``CHUNK_SAMPLES``."""
    chunk: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and (
            (len(chunk) + 1) * lengths[i] > CHUNK_SAMPLES
            or _nfft(lengths[i]) != _nfft(lengths[chunk[0]])
        ):
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def _padded(arrays: list[np.ndarray], lengths: np.ndarray) -> np.ndarray:
    """``(s, c, L)`` block of ``(n, c)`` arrays, one component per row, padded with -0.0.

    Adding -0.0 leaves every float as it is, so a cumulative sum stays at a
    row's last prefix all through the padding.
    """
    block = np.full((len(arrays), arrays[0].shape[1], int(lengths.max())), -0.0)
    for j, a in enumerate(arrays):
        block[j, :, : len(a)] = a.T
    return block


def _smoothed(block: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Centered moving average of each row of a ``_padded`` block over its first n samples.

    Even k is widened by one and edges truncate.
    """
    h = k // 2
    if h == 0:
        return block
    s, c, L = block.shape
    # cs[:, :, h + j] is the sum of the first j samples, held at 0 for j < 0
    # and, through the padding, at the row's total for j > n
    cs = np.zeros((s, c, L + 2 * h + 1))
    np.cumsum(block, axis=2, out=cs[:, :, h + 1 : h + 1 + L])
    cs[:, :, h + 1 + L :] = cs[:, :, h + L : h + L + 1]
    idx = np.arange(L)
    width = np.minimum(idx + h + 1, n[:, None]) - np.maximum(idx - h, 0)
    # padding positions only need a nonzero width
    return (cs[:, :, 2 * h + 1 :] - cs[:, :, :L]) / np.maximum(width, 1)[:, None, :]


def _smoothed_chunks(segments: list[np.ndarray]):
    """Each ``_chunks`` chunk of k ``(n, 3)`` segments, smoothed ``SMOOTH_K`` wide.

    Yields the chunk's segment indices, their lengths and its ``_smoothed``
    ``(s, 3, L)`` block. A segment that is not ``(n, 3)``, or is empty,
    raises ``ValueError``.
    """
    segs = [np.asarray(s, dtype=float) for s in segments]
    for s in segs:
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"expected (n, 3) segment, got {s.shape}")
    lengths = [len(s) for s in segs]
    if 0 in lengths:
        raise ValueError("empty segment")
    for chunk in _chunks(lengths):
        n = np.array([lengths[i] for i in chunk])
        yield chunk, n, _smoothed(_padded([segs[i] for i in chunk], n), n, SMOOTH_K)


def _stats_and_nominees(sm: np.ndarray, n: np.ndarray, config: FeatureConfig) -> tuple:
    """Statistics of a smoothed ``(s, 3, L)`` block whose rows hold ``n`` samples.

    Returns the ``(s, 46)`` statistics and lengths, the first ``PEAKS_AT``
    columns of the vectors, and the block's ``_extrema`` nominees. Every
    row's length has the same ``_nfft``.
    """
    s, _, L = sm.shape
    valid = (np.arange(L) < n[:, None])[:, None, :]
    sums = np.empty((s, 3))
    for j, nj in enumerate(n.tolist()):
        sums[j] = np.add.reduce(sm[j, :, :nj], axis=1)
    # np.mean and np.std divide by the count after one pairwise sum
    mean = sums / n[:, None]
    absx = np.abs(sm)
    for j, nj in enumerate(n.tolist()):
        sums[j] = np.add.reduce(absx[j, :, :nj], axis=1)
    mav = sums / n[:, None]
    thr = np.asarray(config.nvht_thresholds, dtype=float)
    counts = np.count_nonzero((absx[:, :, None, :] > thr[:, :, None]) & valid[:, :, None, :], axis=3)
    del absx

    dev = np.zeros((s, 3, _nfft(L)))
    np.subtract(sm, mean[:, :, None], out=dev[:, :, :L])
    np.copyto(dev[:, :, :L], 0.0, where=~valid)
    bins, entropy, peak_pos = _spectrum(dev)
    np.multiply(dev, dev, out=dev)
    for j, nj in enumerate(n.tolist()):
        sums[j] = np.add.reduce(dev[j, :, :nj], axis=1)
    del dev
    std = np.sqrt(sums / n[:, None])

    maxima, idx, strength = _extrema(sm, valid, config.peak_windows())
    stats = np.concatenate(
        [
            np.stack([mean, maxima, std, mav], axis=2),
            counts,
            bins,
            entropy[..., None],
            peak_pos[..., None],
        ],
        axis=2,
    )
    return np.concatenate([stats.reshape(s, -1), n[:, None].astype(float)], axis=1), idx, strength


def _spectrum(dev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FFT bins 1..6, spectral entropy and peak bin of each zero-padded mean-removed row.

    ``dev`` is ``(s, 3, nfft)``. Entropy is taken over bins 1..nfft/2; an
    all-zero spectrum reports entropy 0 and peak position 0.
    """
    nfft = dev.shape[2]
    spec = np.abs(np.fft.rfft(dev, axis=2))
    bins = spec[:, :, 1 : N_FFT_BINS + 1].copy()
    power = spec[:, :, 1 : nfft // 2 + 1] ** 2
    del spec
    total = power.sum(axis=2)
    spread = total > 0.0
    peak_pos = np.where(spread, np.argmax(power, axis=2) + 1, 0)
    p = np.divide(power, np.where(spread, total, 1.0)[:, :, None], out=power)
    positive = p > 0.0
    plogp = np.log(p, out=np.zeros_like(p), where=positive)
    plogp *= p
    # a whole row sums in the order of its filtered copy only when no bin is zero
    entropy = -plogp.sum(axis=2)
    for i, c in zip(*np.nonzero(spread & ~positive.all(axis=2))):
        q = p[i, c][positive[i, c]]
        entropy[i, c] = -np.sum(q * np.log(q))
    entropy[~spread] = 0.0
    return bins, entropy, peak_pos


def _extrema(
    sm: np.ndarray, valid: np.ndarray, windows: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's maximum, and the nominated peaks and valleys of each segment's six rows.

    Rows 0..2 of each segment's six nominate peaks of the components, rows
    3..5 valleys. Returns the ``(s, 3)`` maxima and the ``(6 s, windows * 3)``
    sample indices and signed amplitudes of the nominees, in (window size,
    round) order, the amplitude -inf where a round found no sample. Every
    window size is a multiple of ``base``, so a window's maximum is the
    maximum of its base cells, and its first maximum lies in the first cell
    that reaches it.
    """
    s, _, L = sm.shape
    base = math.gcd(*windows)
    width = max(-(-L // w) * w for w in windows)
    signed = np.full((s, 6, width), -np.inf)
    signed[:, :3, :L] = sm
    np.negative(sm, out=signed[:, 3:, :L])
    np.copyto(signed[:, :, :L], -np.inf, where=~valid)
    maxima = signed[:, :3, :L].max(axis=2)
    R = 6 * s
    samples = signed.reshape(R, -1)
    cells = samples.reshape(R, -1, base)
    cell_max = cells[:, :, 0].copy()
    for j in range(1, base):
        np.maximum(cell_max, cells[:, :, j], out=cell_max)

    # each window size's window maxima fill one row of a -inf-padded (R, windows, n) block
    ks = [w // base for w in windows]
    n_win = [-(-L // w) for w in windows]
    win_max = np.full((R, len(windows), max(n_win)), -np.inf)
    for i, (k, m) in enumerate(zip(ks, n_win)):
        sub = cell_max[:, : m * k].reshape(R, m, k)
        np.copyto(win_max[:, i, :m], sub[:, :, 0])
        for j in range(1, k):
            np.maximum(win_max[:, i, :m], sub[:, :, j], out=win_max[:, i, :m])
    win_max = win_max.reshape(-1, win_max.shape[2])
    flat = np.arange(len(win_max))
    picks, tops = [], []
    for _ in range(N_EXTREMA):
        best = np.argmax(win_max, axis=1)
        picks.append(best)
        tops.append(win_max[flat, best])
        win_max[flat, best] = -np.inf
    # (R, windows * N_EXTREMA) chosen windows, in (window size, round) order
    pick = np.stack(picks, axis=1).reshape(R, -1)
    top = np.stack(tops, axis=1).reshape(R, -1)
    k = np.repeat(ks, N_EXTREMA)
    # the first cell of each chosen window that holds its maximum, then that cell's first maximum
    j = np.arange(max(ks))
    cell = np.minimum(pick[:, :, None] * k[:, None] + j, cell_max.shape[1] - 1)
    hit = cell_max[np.arange(R)[:, None, None], cell] == top[:, :, None]
    first = pick * k + np.argmax(hit, axis=2)
    at = first[:, :, None] * base + np.arange(base)
    vals = samples[np.arange(R)[:, None, None], at]
    off = np.argmax(vals, axis=2)
    cand_idx = first * base + off
    cand_val = np.take_along_axis(vals, off[:, :, None], axis=2)[:, :, 0]
    # a round left with only -inf windows picks one again; it nominates nothing
    cand_val[top == -np.inf] = -np.inf
    return maxima, cand_idx, cand_val


def _ranked_clusters(
    idx: np.ndarray, strength: np.ndarray, n: np.ndarray, merge_dist: int
) -> np.ndarray:
    """Top 3 (amplitude, position fraction) clusters of each of R nominee groups.

    ``idx`` and ``strength`` are ``(R, c)``: each group's nominated sample
    indices and their signed amplitudes (negated in valley rows, which are
    rows 3..5 of every six), -inf where a slot holds no nominee; ``n`` is each
    group's segment length. A cluster's strength is how many nominations it
    holds, then its strongest member's amplitude; the result is ``(R, 6)``,
    zero-padded.
    """
    R, c = idx.shape
    keep = strength.ravel() > -np.inf
    group = np.repeat(np.arange(R), c)[keep]
    idx, strength = idx.ravel()[keep], strength.ravel()[keep]
    order = np.lexsort((idx, group))
    group, idx, strength = group[order], idx[order], strength[order]
    starts = np.ones(len(idx), dtype=bool)
    starts[1:] = (group[1:] != group[:-1]) | (idx[1:] - idx[:-1] > merge_dist)
    cluster = np.cumsum(starts) - 1
    wins = np.bincount(cluster)
    # members are grouped by cluster, so each cluster's first slot after this
    # sort is its strongest member, the earliest on ties
    best = np.lexsort((idx, -strength, cluster))[np.flatnonzero(starts)]
    group, idx, strength = group[best], idx[best], strength[best]
    ranked = np.lexsort((idx, -strength, -wins, group))
    group, idx, strength = group[ranked], idx[ranked], strength[ranked]
    first = np.ones(len(group), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    rank = np.arange(len(group)) - np.maximum.accumulate(np.where(first, np.arange(len(group)), 0))
    top = rank < N_EXTREMA
    group, idx, strength, rank = group[top], idx[top], strength[top], rank[top]
    out = np.zeros((R, N_EXTREMA, 2))
    out[group, rank, 0] = np.where(group % 6 < 3, strength, -strength)
    out[group, rank, 1] = idx / n[group]
    return out.reshape(R, 2 * N_EXTREMA)


def _featurise(chunks, k: int, config: FeatureConfig) -> np.ndarray:
    """The ``(k, 82)`` vectors of k segments, read off their ``_smoothed_chunks``."""
    out = np.empty((k, FEATURE_DIM))
    order, lengths, idx, strength = [], [], [], []
    for chunk, n, block in chunks:
        out[chunk, :PEAKS_AT], chunk_idx, chunk_strength = _stats_and_nominees(block, n, config)
        order += chunk
        lengths.append(n)
        idx.append(chunk_idx)
        strength.append(chunk_strength)
    if not order:
        return out
    n = np.repeat(np.concatenate(lengths), 6)
    ranked = _ranked_clusters(np.vstack(idx), np.vstack(strength), n, min(config.peak_windows()))
    # (k, peak or valley, component, 6) -> (k, component, peak then valley)
    ranked = ranked.reshape(-1, 2, 3, 2 * N_EXTREMA).transpose(0, 2, 1, 3)
    out[order, PEAKS_AT:] = ranked.reshape(len(order), -1)
    return out


def extract_batch(segments: list[np.ndarray], config: FeatureConfig) -> np.ndarray:
    """The ``(k, 82)`` vectors of k ``(n, 3)`` Earth-frame segments of (east, north, vertical)."""
    return _featurise(_smoothed_chunks(segments), len(segments), config)


def extract_features(segment: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The ``(82,)`` vector of one segment: ``extract_batch`` of a batch of one."""
    return extract_batch([segment], config)[0]


def fit_nvht_thresholds(smoothed: list[np.ndarray], sample_rate: float) -> FeatureConfig:
    """The config whose per-component exceedance thresholds fit smoothed training segments.

    Each component's pooled |values| are one new array, which
    ``model.percentiles`` partitions in place.
    """
    if not smoothed:
        raise ValueError("no segments to fit thresholds")

    def thresholds(pooled: np.ndarray) -> tuple[float, ...]:
        np.abs(pooled, out=pooled)
        return percentiles(pooled, NVHT_PERCENTILES, overwrite_input=True)

    fitted = tuple(thresholds(np.concatenate([s[:, ci] for s in smoothed])) for ci in range(3))
    return FeatureConfig(sample_rate, fitted)


def fit_features(segments: list[np.ndarray], sample_rate: float) -> tuple[FeatureConfig, np.ndarray]:
    """Fit the exceedance thresholds on training segments and featurise them.

    Each segment is smoothed once, for both: the thresholds pool the
    segments' smoothed ``(n, 3)`` views in chunk order, which no order
    statistic depends on. Returns the fitted config and the ``(k, 82)`` vectors.
    """
    chunks = list(_smoothed_chunks(segments))
    smoothed = [block[j, :, :nj].T for _, n, block in chunks for j, nj in enumerate(n.tolist())]
    fitted = fit_nvht_thresholds(smoothed, sample_rate)
    return fitted, _featurise(chunks, len(segments), fitted)
