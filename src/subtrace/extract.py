"""Metro ride extraction from a day-long HRA series.

The series is chopped into fixed windows of m samples, each window is
classified metro / non-metro by a Gaussian naive Bayes over five summary
features, and the window labels are then refined: isolated flips are undone
and span boundaries are located by re-classifying the windows that slide
back across each transition. The caller passes m. The line fixes it at half
the shortest station interval (``pipeline.mode_window_size``), in training
and in the attack alike, so a mode model holds only its thresholds and its
naive Bayes.

``window_features`` is the one place the five features are computed, over
every row of an ``(n_windows, m)`` block at once. Training stacks a series'
disjoint windows (its short trailing window as a block of its own),
``classify_windows`` stacks a whole series into one block and returns one
label per window, and the back-scan
stacks all of a transition's candidate windows into one contiguous block
(a window cut short by the series end is a one-row block of its own) and
labels them with one ``predict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classify import GaussianNB
from .model import is_finite_real, percentiles

# Low / mid / high percentiles of metro-class HRA.  The low threshold must
# clear the stationary sensor-noise ceiling so its count reads "any real
# movement": a resting phone scores zero there while every metro window,
# dwells included, keeps a large count.  The upper two separate metro
# cruising from harder road traffic.
THRESHOLD_PERCENTILES = (35.0, 60.0, 85.0)
BACKSCAN_WINDOWS = 2  # boundary search depth, in units of the window size

NON_METRO, METRO = 0, 1


@dataclass(frozen=True)
class MetroSpan:
    """Half-open sample range judged to be one continuous metro ride."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty span [{self.start}, {self.end})")


def fit_thresholds(metro_hra: np.ndarray) -> tuple[float, float, float]:
    """Low/mid/high HRA thresholds from metro-class training data."""
    metro_hra = np.asarray(metro_hra, dtype=float)
    if metro_hra.size == 0:
        raise ValueError("no metro HRA samples to fit thresholds")
    ta, tb, tc = percentiles(metro_hra, THRESHOLD_PERCENTILES)
    if not ta < tb < tc:
        raise ValueError(f"degenerate thresholds {ta}, {tb}, {tc}: HRA has no spread")
    return ta, tb, tc


def window_features(
    windows: np.ndarray, thresholds: tuple[float, float, float]
) -> np.ndarray:
    """(n_windows, 5) features of the rows of an (n_windows, m) block.

    Each row gives mean, variance and its counts above each threshold.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2 or windows.shape[1] == 0:
        raise ValueError(f"expected a non-empty (n_windows, m) block, got {windows.shape}")
    counts = [np.sum(windows > t, axis=1) for t in thresholds]
    return np.column_stack([np.mean(windows, axis=1), np.var(windows, axis=1), *counts])


@dataclass
class ModeModel:
    """Gaussian NB over window features, and the thresholds those features count over."""

    nb: GaussianNB
    thresholds: tuple[float, float, float]

    def __post_init__(self):
        t = self.thresholds
        if not (len(t) == 3 and all(map(is_finite_real, t)) and t[0] < t[1] < t[2]):
            raise ValueError(f"mode thresholds must be 3 increasing finite numbers, got {t!r}")

    def to_dict(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "nb": self.nb.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModeModel":
        return cls(
            nb=GaussianNB.from_dict(doc["nb"]),
            thresholds=tuple(doc["thresholds"]),
        )


def train_mode_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    thresholds: tuple[float, float, float],
) -> ModeModel:
    """Fit the metro / non-metro window classifier."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or features.shape[1] != 5:
        raise ValueError("expected (n, 5) window features")
    if len(set(labels.tolist())) < 2:
        raise ValueError("need both metro and non-metro training windows")
    nb = GaussianNB.fit(features, labels, n_classes=2)
    return ModeModel(nb=nb, thresholds=thresholds)


def classify_windows(hra: np.ndarray, model: ModeModel, m: int) -> np.ndarray:
    """Label disjoint m-sample windows; a trailing partial counts too.

    Label i covers samples ``[i * m, (i + 1) * m)``. The trailing partial is
    judged on the last full m samples (overlapping the previous window) so
    that its label rests on as much evidence as the rest; the label still
    applies to the remainder region only. A series shorter than m is judged
    as one window.
    """
    hra = np.asarray(hra, dtype=float)
    n = len(hra)
    if n < m:
        windows = hra[None, :]
    else:
        windows = hra[: n // m * m].reshape(-1, m)
        if n % m:
            windows = np.vstack([windows, hra[n - m :]])
    return model.nb.predict(window_features(windows, model.thresholds)).astype(int)


def _locate_start(hra: np.ndarray, model: ModeModel, boundary: int, w: int) -> int:
    """Span start near a non-metro -> metro window transition at `boundary`.

    Windows starting at boundary-1, boundary-2, ... are scanned for the
    first non-metro one; the transition is taken at that window's midpoint.
    The scan is capped at 2w windows; if everything classifies metro the start
    falls back to the midpoint of the window before the boundary. All
    candidates are labelled with one ``predict``. Indexing the sliding-window
    view with an array copies the windows into one contiguous (k, w) block,
    so each row reduces in the same order as a one-row block would.
    """
    lo_cap = max(0, boundary - BACKSCAN_WINDOWS * w)
    starts = np.arange(boundary - 1, lo_cap - 1, -1)
    fits = starts <= len(hra) - w
    # windows running past the series end come first in scan order
    rows = [window_features(hra[st:][None, :], model.thresholds) for st in starts[~fits]]
    if fits.any():
        block = sliding_window_view(hra, w)[starts[fits]]
        rows.append(window_features(block, model.thresholds))
    hits = np.flatnonzero(model.nb.predict(np.vstack(rows)) == NON_METRO)
    if hits.size:
        return int(starts[hits[0]]) + w // 2
    return max(0, boundary - w) + w // 2


def refine_boundaries(
    labels: np.ndarray, hra: np.ndarray, model: ModeModel, w: int
) -> list[MetroSpan]:
    """Turn window labels into sample-accurate metro spans.

    Isolated single-window flips are undone first (in both directions), then
    each surviving transition is localized by the sliding back-scan; span ends
    use the same scan on the reversed series, which is exact because the
    window statistics are order-invariant.
    """
    labels = np.asarray(labels, dtype=int).copy()
    hra = np.asarray(hra, dtype=float)
    n = len(hra)
    if len(labels) >= 3:
        iso = (labels[1:-1] != labels[:-2]) & (labels[:-2] == labels[2:])
        labels[1:-1] = np.where(iso, labels[:-2], labels[1:-1])

    spans: list[list[int]] = []
    in_span = False
    for wi, lab in enumerate(labels):
        if lab == METRO and not in_span:
            spans.append([wi, wi + 1])
            in_span = True
        elif lab == METRO:
            spans[-1][1] = wi + 1
        else:
            in_span = False

    out: list[MetroSpan] = []
    rev = hra[::-1]
    for ws, we in spans:
        start = 0 if ws == 0 else _locate_start(hra, model, ws * w, w)
        if we >= len(labels):
            end = n
        else:
            end = n - _locate_start(rev, model, n - we * w, w)
        if out and start < out[-1].end:
            start = out[-1].end  # back-scans may not cross an earlier span
        if end - start >= w:
            out.append(MetroSpan(start, min(end, n)))
    return out


def extract_spans(hra: np.ndarray, model: ModeModel, w: int) -> list[MetroSpan]:
    """Full extraction over w-sample windows: window classification plus boundary refinement."""
    return refine_boundaries(classify_windows(hra, model, w), hra, model, w)
