"""Interval classifiers: Gaussian NB, boosted NB, and a random forest.

The two ensembles are trained on the same rows and averaged 50/50 at
prediction time. Everything is written against plain numpy arrays and
serializes to JSON inside one attack model file; the arrays alone fix the
class count. Boost rounds and tree counts have no defaults: ``PipelineConfig``
sets them.

``GaussianNB.predict`` and the boosted vote take each learner's argmax of
``log_joint`` from two matrix products that score every row against every
learner's classes at once. Only a row whose two best scores lie within the
products' rounding bound of each other, or whose scale is too large to
bound, is decided by ``log_joint`` itself, so every argmax, and so every
vote, is the one ``log_joint`` gives (``_argmax_log_joints`` states the
bound). The alphas are still added learner by learner. ``log_joint``
stays the one exact expression: ``predict_proba`` and that fallback use it.

The forest grows all its trees in lockstep. Each tree keeps its own
depth-first stack and its own generator; every step takes the next node
of every tree that needs a split search, draws its candidate features and
searches all those nodes together, cut into batches of at most
``SPLIT_BATCH_ROWS`` rows. Every generator therefore makes the draws, in
the order, that growing its tree alone would make. A batch's split search
sorts one element per (row, candidate feature) on integer keys (node,
feature, value rank, bag position) and screens every split with exact
integer class sums: the Gini score is ``1 - Q / nn`` in real arithmetic,
with ``Q`` built from cumulative sums over the sorted elements. Only the
splits within a narrow band of each node's best ``Q`` get the float Gini
expression of a per-feature search, and the band provably holds that
search's float minimum (``_best_splits``). The chosen split is the first
minimum in (feature draw order, position) order: a feature's first minimum
and the first feature, in draw order, with the strictly smallest score.
Prediction and the out-of-bag vote share one walk: the trees are laid end
to end as one flat node table, leaves point to themselves, and one step
per depth level moves every row down every tree. Leaf histograms are then
added tree by tree. Every tree, score and probability is bit-identical to
growing and walking one tree, one node and one feature at a time: the
float arithmetic that picks a split, its order and every tie-break are
the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_DIM, FeatureConfig

VAR_FLOOR = 1e-6
ERR_FLOOR = 1e-10
MAX_RESAMPLE_RETRIES = 5

DEFAULT_MAX_DEPTH = 12
DEFAULT_MIN_LEAF = 2


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows with interval labels in [0, n_classes)."""

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    sample_weight: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with matching labels")
        if y.min(initial=0) < 0 or y.max(initial=0) >= self.n_classes:
            raise ValueError("labels outside [0, n_classes)")
        counts = np.bincount(y, minlength=self.n_classes)
        thin = np.nonzero((counts > 0) & (counts < 2))[0]
        if thin.size:
            raise ValueError(f"classes {thin.tolist()} have fewer than 2 rows")
        if self.sample_weight is not None:
            w = np.asarray(self.sample_weight, dtype=float)
            if w.shape != y.shape or (w < 0).any() or w.sum() <= 0:
                raise ValueError("bad sample weights")
            object.__setattr__(self, "sample_weight", w)


# a row whose two best screened scores lie within SCREEN_GAP times its scale,
# or whose scale reaches SCREEN_LIMIT, is decided by log_joint;
# _argmax_log_joints shows why that settles every other row exactly
SCREEN_GAP = 1e-12
SCREEN_LIMIT = 1e300


def _screen_terms(priors: np.ndarray, means: np.ndarray, variances: np.ndarray) -> tuple:
    """Constants of one NB's screened scores: ``(A, a, B, b)`` for ``_argmax_log_joints``.

    With ``X2 = X * X``, ``[X2, X] @ A + a`` is the log joint expanded as
    ``log prior - (X2 . 1/var - 2 X . mean/var + sum log(2 pi var) + sum mean^2/var) / 2``
    and ``[X2, |X|] @ B + b`` is its scale
    ``X2 . 1/var + 2 |X| . |mean/var| + sum (|log(2 pi var)| + 1) + sum mean^2/var
    + 2 |log prior| + sum X2 + sum mean^2``, a zero prior adding nothing. The
    last two terms bound ``(x - mean) ** 2 / 2``, which ``log_joint`` squares
    before it divides.
    """
    with np.errstate(all="ignore"):
        lp = np.where(priors > 0, np.log(priors), -np.inf)
        inv = 1.0 / variances
        mv = means / variances
        logs = np.log(2.0 * np.pi * variances)
        m2 = (means * mv).sum(axis=1)
        A = np.vstack([-0.5 * inv.T, mv.T])
        a = lp - 0.5 * (logs.sum(axis=1) + m2)
        B = np.vstack([(inv + 1.0).T, 2.0 * np.abs(mv.T)])
        b = (
            (np.abs(logs) + 1.0).sum(axis=1)
            + m2
            + 2.0 * np.where(priors > 0, np.abs(lp), 0.0)
            + (means * means).sum(axis=1)
        )
    return A, a, B, b


def _argmax_log_joints(X: np.ndarray, learners: list, screen: tuple) -> np.ndarray:
    """``(n, len(learners))``: ``argmax(nb.log_joint(X), axis=1)`` of each learner.

    ``screen`` holds the learners' ``_screen_terms`` side by side. Two
    matrix products score every row against every learner's classes; a
    score ``F`` has the top class of a learner settled when it leads the
    runner-up by more than ``SCREEN_GAP * S``, with ``S`` the row's largest
    scale among that learner's classes, and ``S < SCREEN_LIMIT``.
    Every other (row, learner) takes the argmax of ``log_joint`` itself.

    Why a settled class is ``log_joint``'s argmax: let u = 2 ** -53 and d
    the feature count, and take the real log joint ``L`` of each class from
    the float model and row. ``log_joint`` rounds each of its d terms
    ``log(2 pi var) + (x - mean) ** 2 / var`` within a few u of its
    magnitude plus u absolute (numpy's log is within 4 ulp), and a float sum
    of d terms, in any order, is within (d - 1) u of their magnitude sum.
    As ``(x - mean) ** 2 <= X2 + 2 |x mean| + mean ** 2``, ``log_joint`` is
    within (d + 10) u S / 2 of ``L``. A product's float sum of 2d terms, in
    any order, is within 2d u of their magnitude sum, so ``F`` is within
    (2d + 12) u S / 2 of ``L``. The ``+ 1`` per feature covers the absolute
    errors and underflow, ``2 |log prior|`` the rounding of the last
    addition, and below ``SCREEN_LIMIT`` no intermediate of either overflows
    (``sum X2 + sum mean^2`` bounds the squares). So a class that
    leads every other in ``F`` by more than (3d + 22) u S leads them all in
    ``log_joint`` too, and strictly, so no tie-break is involved.
    (3d + 22) u S is below ``SCREEN_GAP * S`` for fewer than 2900 features.
    A row with a NaN score, or with no finite one, is never settled: NaN
    fails every comparison, and ``-inf - -inf`` is NaN.
    """
    n, k = len(X), len(learners)
    A, a, B, b = screen
    with np.errstate(all="ignore"):
        X2 = X * X
        F = (np.hstack([X2, X]) @ A + a).reshape(n, k, len(a) // k)
        S = (np.hstack([X2, np.abs(X)]) @ B + b).reshape(F.shape).max(axis=2)
        best = np.argmax(F, axis=2)
        top = np.take_along_axis(F, best[..., None], axis=2)[..., 0]
        np.put_along_axis(F, best[..., None], -np.inf, axis=2)
        settled = (top - F.max(axis=2) > SCREEN_GAP * S) & (S < SCREEN_LIMIT)
    for j in np.flatnonzero(~settled.all(axis=0)):
        rows = ~settled[:, j]
        best[rows, j] = np.argmax(learners[j].log_joint(X[rows]), axis=1)
    return best


class GaussianNB:
    """Diagonal Gaussian naive Bayes with optional sample weights."""

    def __init__(self, priors: np.ndarray, means: np.ndarray, variances: np.ndarray):
        if not (
            priors.ndim == 1 and means.ndim == 2 and means.shape[:1] == priors.shape
        ) or variances.shape != means.shape:
            raise ValueError(
                "naive Bayes priors, means and variances must be (m,), (m, d) and (m, d) arrays, "
                f"got {priors.shape}, {means.shape} and {variances.shape}"
            )
        if not (np.isfinite(priors).all() and (priors >= 0).all() and np.isfinite(means).all()):
            raise ValueError("naive Bayes priors must be finite and nonnegative, and means finite")
        if not (np.isfinite(variances).all() and (variances > 0).all()):
            raise ValueError("naive Bayes variances must be finite and positive")
        self.priors = priors
        self.means = means
        self.variances = variances
        self._screen = _screen_terms(priors, means, variances)

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        sample_weight: np.ndarray | None = None,
    ) -> "GaussianNB":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        priors = np.zeros(n_classes)
        means = np.zeros((n_classes, d))
        variances = np.full((n_classes, d), VAR_FLOOR)
        for c in range(n_classes):
            wc = w[y == c]
            tot = wc.sum()
            priors[c] = tot
            if tot <= 0:
                continue
            Xc = X[y == c]
            mu = (wc[:, None] * Xc).sum(axis=0) / tot
            var = (wc[:, None] * (Xc - mu) ** 2).sum(axis=0) / tot
            means[c] = mu
            variances[c] = np.maximum(var, VAR_FLOOR)
        priors /= priors.sum()
        return cls(priors, means, variances)

    def log_joint(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        with np.errstate(divide="ignore"):
            lp = np.where(self.priors > 0, np.log(self.priors), -np.inf)
        # (n, 1, d) against (m, d) class params
        diff = X[:, None, :] - self.means[None, :, :]
        ll = -0.5 * (
            np.log(2.0 * np.pi * self.variances)[None] + diff**2 / self.variances[None]
        ).sum(axis=2)
        return lp[None, :] + ll

    def predict(self, X: np.ndarray) -> np.ndarray:
        """``argmax(log_joint(X), axis=1)``, screened by two matrix products."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _argmax_log_joints(X, [self], self._screen)[:, 0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        lj = self.log_joint(X)
        lj = np.where(np.isfinite(lj), lj, -1e300)
        return _softmax(lj)

    def to_dict(self) -> dict:
        return {
            "priors": self.priors.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussianNB":
        return cls(
            np.array(doc["priors"], dtype=float),
            np.array(doc["means"], dtype=float),
            np.array(doc["variances"], dtype=float),
        )


class AdaBoostNB:
    """SAMME boosting over NB learners, resampling by the boost weights.

    Each round draws a weight-proportional bootstrap, fits NB on it, and
    scores the error on the original rows. Rounds whose error reaches the
    random-guess bound 1 - 1/m are redrawn a few times, then boosting stops;
    a zero-error round keeps its learner and stops early.
    """

    def __init__(self, learners: list[GaussianNB], alphas: np.ndarray):
        if not learners:
            raise ValueError("boosted model needs at least one learner")
        if alphas.shape != (len(learners),) or not np.isfinite(alphas).all():
            raise ValueError(
                f"boosted model needs one finite alpha per learner ({len(learners)}), "
                f"got shape {alphas.shape}"
            )
        shapes = sorted({nb.means.shape for nb in learners})
        if len(shapes) != 1:
            raise ValueError(f"boosted learners must share one means shape, got {shapes}")
        self.learners = learners
        self.alphas = alphas
        self.n_classes = shapes[0][0]
        # every learner's screen terms side by side, one column block per learner
        self._screen = tuple(
            np.concatenate(terms, axis=-1) for terms in zip(*(nb._screen for nb in learners))
        )

    def vote_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        preds = _argmax_log_joints(X, self.learners, self._screen)
        scores = np.zeros((len(X), self.n_classes))
        for alpha, pred in zip(self.alphas, preds.T):
            scores[np.arange(len(X)), pred] += alpha
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.vote_scores(X))

    def to_dict(self) -> dict:
        return {
            "alphas": self.alphas.tolist(),
            "learners": [nb.to_dict() for nb in self.learners],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaBoostNB":
        return cls(
            [GaussianNB.from_dict(d) for d in doc["learners"]],
            np.array(doc["alphas"], dtype=float),
        )


def train_adaboost_nb(train: TrainingSet, rounds: int, seed: int = 0) -> AdaBoostNB:
    X, y, m = train.X, train.y, train.n_classes
    n = len(X)
    rng = np.random.default_rng(seed)
    w = np.ones(n) if train.sample_weight is None else train.sample_weight.copy()
    w = w / w.sum()
    limit = 1.0 - 1.0 / m

    learners: list[GaussianNB] = []
    alphas: list[float] = []
    for _ in range(rounds):
        nb = None
        for _ in range(1 + MAX_RESAMPLE_RETRIES):
            idx = rng.choice(n, size=n, p=w)
            cand = GaussianNB.fit(X[idx], y[idx], m)
            mis = cand.predict(X) != y
            err = float(w[mis].sum())
            if err < limit:
                nb = cand
                break
        if nb is None:
            break
        err_f = min(max(err, ERR_FLOOR), 1.0 - ERR_FLOOR)
        alpha = float(np.log((1.0 - err_f) / err_f) + np.log(m - 1.0))
        learners.append(nb)
        alphas.append(alpha)
        if err <= 0.0:
            break
        w = w * np.exp(alpha * mis)
        w = w / w.sum()

    if not learners:
        # hopeless resampling: fall back to one NB on the untouched rows
        learners = [GaussianNB.fit(X, y, m, sample_weight=train.sample_weight)]
        alphas = [1.0]
    return AdaBoostNB(learners, np.array(alphas))


# rows of the nodes searched in one batch: bounds what one batch's arrays hold
# (n_feats sort elements per row), while keeping the numpy calls per node few
SPLIT_BATCH_ROWS = 1 << 12

# half-width of the screen's band per row of the node; _best_splits shows it is wide enough
SCREEN_BAND = 1e-9


def _value_ranks(X: np.ndarray) -> np.ndarray:
    """(n, d) dense rank of each value within its column; every NaN ranks ``n``."""
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    step = np.concatenate([np.zeros((1, d), dtype=np.int64), xs[1:] != xs[:-1]])
    rank = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(rank, order, np.cumsum(step, axis=0), axis=0)
    rank[np.isnan(X)] = n
    return rank


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    return np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))


def _best_splits(nodes, X, source, cls, rank, n_classes, min_leaf) -> tuple | None:
    """Best Gini split of every node of a batch that has a valid split.

    ``nodes`` holds ``(rows, feats)`` pairs: forest rows (``t * n`` plus the
    bag position, ``source`` maps them to rows of ``X``) and the drawn
    features in draw order. Returns None if no node has a valid split, else
    the batch index of each node that splits, its feature, its threshold,
    and the rows and the ``(2 * splits, n_classes)`` class counts of its
    children, left then right.

    One sort element stands for a (row, feature) pair. Segment ``b * k + j``
    holds node b's rows of its j-th feature, sorted by value rank, then bag
    position: exactly the order a stable sort of the node's values gives.
    So the element at position ``p`` of a segment is the cell, or candidate
    split, with ``nl = p + 1`` rows on the left. It is valid where the next
    value is strictly larger and both sides hold ``min_leaf`` rows.

    The score of a split is ``(nl * gl + nr * gr) / nn`` with
    ``gl = 1 - sum_c (cnt_c / nl) ** 2``, ``gr`` alike on the right counts
    ``tot_c - cnt_c``, each sum over one contiguous row of classes. In real
    arithmetic it is ``1 - Q / nn`` with ``Q = S_L / nl + S_R / nr``,
    ``S_L = sum_c cnt_c ** 2`` and ``S_R = sum_c tot_c ** 2 - 2 sum_c tot_c cnt_c
    + S_L``. These sums are exact integers: a row whose class has occurred
    ``r`` times up to it adds ``2r - 1`` to ``S_L`` and ``tot_c`` to the
    cross sum, so both are cumulative sums along the segment. The screen
    keeps the cells whose float ``Q`` lies within ``SCREEN_BAND * nn`` of
    the node's largest, and only those get the float score.

    Why the band holds the float argmin: let u = 2 ** -53. Each of the m
    squared ratios rounds with relative error below 3u and sums of
    non-negative terms keep relative error below (m - 1) u, so the float
    score is within d = (m + 7) u of the real score. The float ``Q`` is
    within 2u Q <= 2u nn of the real one (``Q <= nl + nr``). If c maximises
    the float ``Q`` and c* minimises the float score, then real
    Q(c*) >= Q(c) - 2 d nn, so float Q(c*) >= float Q(c) - (2d + 4u) nn, and
    so does every cell whose float score ties c*'s. (2d + 4u) nn is below
    ``SCREEN_BAND * nn`` for fewer than a million classes. The first
    minimum of the float scores in (draw order, position) order is then the
    split a per-feature search picks: its first minimum per feature, then
    the first feature with the least score.
    """
    n, d = X.shape
    m = n_classes
    k = len(nodes[0][1])
    sizes = np.array([len(rows) for rows, _ in nodes])
    rows = np.concatenate([rows for rows, _ in nodes])
    node = np.repeat(np.arange(len(nodes)), sizes)
    feats = np.stack([f for _, f in nodes])
    row_cls = cls[rows]
    tot = np.bincount(node * m + row_cls, minlength=len(nodes) * m).reshape(len(nodes), m)
    # sort key (segment, value rank, bag position) of each (row, feature) element
    ranks = rank.ravel()[(source[rows] * d)[:, None] + feats[node]]
    key = (node * (k * (n + 1) * n) + rows % n)[:, None] + np.arange(k) * ((n + 1) * n) + ranks * n
    order = np.argsort(key, axis=None)
    at_row = order // k
    rank_s = ranks.ravel()[order]
    seg_len = np.repeat(sizes, k)
    seg_start = np.cumsum(seg_len) - seg_len
    seg_s = np.repeat(np.arange(len(seg_len)), seg_len)
    at = np.arange(len(order))
    nl = at + 1 - np.repeat(seg_start, seg_len)
    nr = np.repeat(seg_len, seg_len) - nl
    valid = (nl >= min_leaf) & (nr >= max(min_leaf, 1))
    valid[:-1] &= (rank_s[:-1] < rank_s[1:]) & (rank_s[1:] < n)

    # occurrence of each element within its class in its segment: its place in
    # (class, position) order less the place where its (segment, class) run starts
    cls_s = row_cls[at_row]
    by_class = np.argsort(cls_s, kind="stable")
    place = np.empty_like(at)
    place[by_class] = at
    run = seg_s * m + cls_s
    count = np.bincount(run, minlength=len(seg_len) * m).reshape(len(seg_len), m)
    class_start = np.cumsum(count.sum(axis=0)) - count.sum(axis=0)
    run_start = np.cumsum(count, axis=0) - count + class_start

    def seg_cumsum(inc):
        """Cumulative sums of ``inc`` along each segment."""
        c = np.cumsum(inc)
        return c - np.repeat(c[seg_start] - inc[seg_start], seg_len)

    s_l = seg_cumsum(2 * (place - run_start.ravel()[run]) + 1)
    cross = seg_cumsum(tot.ravel()[node * m + row_cls][at_row])
    s_r = np.repeat((tot * tot).sum(axis=1), k * sizes) - 2 * cross + s_l
    q = np.where(valid, s_l / nl + s_r / np.maximum(nr, 1), -np.inf)
    floor = np.maximum.reduceat(q, seg_start[::k]) - SCREEN_BAND * sizes
    cells = np.flatnonzero(valid & (q >= np.repeat(floor, k * sizes)))
    if not cells.size:
        return None
    start = seg_start[seg_s[cells]]
    node_c = seg_s[cells] // k

    # class counts left of each cell, from the elements in (class, position) order
    by_class_key = cls_s[by_class].astype(np.int64) * len(at) + by_class
    class_base = np.arange(m) * len(at)
    cum = (
        np.searchsorted(by_class_key, class_base + cells[:, None], side="right")
        - np.searchsorted(by_class_key, class_base + start[:, None])
    ).astype(float)
    nl_c, nr_c = nl[cells], nr[cells]
    gl = 1.0 - ((cum / nl_c[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - (((tot[node_c] - cum) / nr_c[:, None]) ** 2).sum(axis=1)
    score = (nl_c * gl + nr_c * gr) / sizes[node_c]
    first = _group_starts(node_c)
    low = np.repeat(np.minimum.reduceat(score, first), np.diff(np.append(first, len(score))))
    hit = np.flatnonzero(score == low)
    win = cells[hit[_group_starts(node_c[hit])]]

    # split each winning segment where its values pass the threshold
    w_node, w_seg = seg_s[win] // k, seg_s[win]
    w_feat = feats[w_node, w_seg % k]
    low_row, high_row = rows[at_row[win]], rows[at_row[win + 1]]
    thr = 0.5 * (X[source[low_row], w_feat] + X[source[high_row], w_feat])
    lens = seg_len[w_seg]
    span = np.repeat(seg_start[w_seg] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    w_rows = rows[at_row[span]]
    go_left = X[source[w_rows], np.repeat(w_feat, lens)] <= np.repeat(thr, lens)
    side = np.repeat(np.arange(len(win)) * 2, lens) + ~go_left
    counts = np.bincount(side * m + cls[w_rows], minlength=len(win) * 2 * m)
    n_left = np.add.reduceat(go_left, np.cumsum(lens) - lens).tolist()
    lefts, rights = w_rows[go_left], w_rows[~go_left]
    l_at = r_at = 0
    children = []
    for nl_i, len_i in zip(n_left, lens.tolist()):
        children += [lefts[l_at : l_at + nl_i], rights[r_at : r_at + len_i - nl_i]]
        l_at += nl_i
        r_at += len_i - nl_i
    return w_node.tolist(), w_feat.tolist(), thr.tolist(), children, counts.reshape(-1, m)


def _batches(searches: list[tuple]) -> list[list[tuple]]:
    """Runs of ``(tree, node, depth, rows, feats)`` searches, in order, whose
    rows stay within ``SPLIT_BATCH_ROWS``; a larger node is a run alone."""
    batches, rows = [], 0
    for s in searches:
        if not batches or rows + len(s[3]) > SPLIT_BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append(s)
        rows += len(s[3])
    return batches


def _grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    bags: list[np.ndarray],
    rngs: list[np.random.Generator],
    max_depth: int,
    min_leaf: int,
    n_feats: int,
) -> list[dict]:
    """CART trees with Gini splits, one per bag, stored as flat arrays (feature -1: leaf).

    Tree ``t`` grows on rows ``bags[t]`` of ``X`` depth-first and draws each
    node's candidate features from ``rngs[t]``. Each step pops every tree's
    stack down to its next node that needs a split search, so each generator
    sees the draws it would see growing its tree alone, and searches those
    nodes together in batches of at most ``SPLIT_BATCH_ROWS`` rows.
    """
    n, d = X.shape
    m = n_classes
    source = np.concatenate(bags)
    cls = y[source].astype(np.min_scalar_type(max(m - 1, 0)))
    rank = _value_ranks(X)
    trees = [{"feature": [], "threshold": [], "left": [], "right": [], "probs": []} for _ in bags]

    def node_stats(counts, depth):
        """Leaf histogram and leaf flag of nodes from their (k, m) class counts."""
        counts = counts.astype(float)
        size = counts.sum(axis=1)
        leaf = (size < 2 * min_leaf) | ((counts > 0).sum(axis=1) == 1) | (depth >= max_depth)
        return counts / size[:, None], leaf.tolist()

    roots = np.bincount(np.repeat(np.arange(len(bags)) * m, n) + cls, minlength=len(bags) * m)
    probs, leaf = node_stats(roots.reshape(len(bags), m), 0)
    stacks = [
        [(np.arange(t * n, (t + 1) * n), 0, -1, False, probs[t], leaf[t])]
        for t in range(len(bags))
    ]
    while any(stacks):
        searches = []
        for t, stack in enumerate(stacks):
            tree = trees[t]
            while stack:
                rows, depth, parent, is_right, probs, leaf = stack.pop()
                node = len(tree["feature"])
                if parent >= 0:
                    tree["right" if is_right else "left"][parent] = node
                tree["feature"].append(-1)
                tree["threshold"].append(0.0)
                tree["left"].append(-1)
                tree["right"].append(-1)
                tree["probs"].append(probs)
                if not leaf:
                    feats = rngs[t].choice(d, size=n_feats, replace=False)
                    searches.append((t, node, depth, rows, feats))
                    break
        for batch in _batches(searches):
            nodes = [(rows, feats) for _, _, _, rows, feats in batch]
            found = _best_splits(nodes, X, source, cls, rank, m, min_leaf)
            if found is None:
                continue
            split_nodes, feature, threshold, children, counts = found
            probs, leaf = node_stats(counts, np.repeat([batch[b][2] + 1 for b in split_nodes], 2))
            for i, b in enumerate(split_nodes):
                t, node, depth, _, _ = batch[b]
                trees[t]["feature"][node] = feature[i]
                trees[t]["threshold"][node] = threshold[i]
                # the right child first, so that the left one pops first
                for c, is_right in ((2 * i + 1, True), (2 * i, False)):
                    stacks[t].append((children[c], depth + 1, node, is_right, probs[c], leaf[c]))

    return [
        {
            "feature": np.array(tree["feature"], dtype=np.int64),
            "threshold": np.array(tree["threshold"], dtype=float),
            "left": np.array(tree["left"], dtype=np.int64),
            "right": np.array(tree["right"], dtype=np.int64),
            "probs": np.stack(tree["probs"]),
        }
        for tree in trees
    ]


class RandomForest:
    """Bagged CART trees with soft voting over leaf class histograms.

    ``trees`` keeps one dict of arrays per tree, the serialised form. The
    constructor also lays all trees end to end as one flat node table with
    forest-wide child indices; a leaf's children are the leaf itself, so a
    fixed number of steps (the deepest tree's depth) walks every row down
    every tree at once.
    """

    def __init__(self, trees: list[dict], oob_accuracy: float | None = None):
        if not trees:
            raise ValueError("forest needs at least one tree")
        n_classes = np.atleast_2d(trees[0]["probs"]).shape[1]
        for t, tree in enumerate(trees):
            nodes = len(tree["feature"])
            shape = (nodes, n_classes)
            if tree["probs"].shape != shape:
                raise ValueError(f"forest tree {t} probs are {tree['probs'].shape}, not {shape}")
            # a child after its parent keeps every walk finite
            split = np.nonzero(tree["feature"] >= 0)[0]
            if {len(tree[key]) for key in ("threshold", "left", "right")} != {nodes} or any(
                ((tree[key][split] <= split) | (tree[key][split] >= nodes)).any()
                for key in ("left", "right")
            ):
                raise ValueError(f"forest tree {t} has a split whose child is not a later node")
        self.trees = trees
        self.n_classes = n_classes
        self.oob_accuracy = oob_accuracy

        sizes = [len(t["feature"]) for t in trees]
        self._roots = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([t["feature"] for t in trees])
        leaf = feature < 0
        own = np.arange(len(feature))
        offset = np.repeat(self._roots, sizes)
        self._feature = np.where(leaf, 0, feature)
        self._threshold = np.concatenate([t["threshold"] for t in trees])
        self._left = np.where(leaf, own, np.concatenate([t["left"] for t in trees]) + offset)
        self._right = np.where(leaf, own, np.concatenate([t["right"] for t in trees]) + offset)
        self._probs = np.concatenate([t["probs"] for t in trees])
        self._depth = 0
        level = self._roots
        while True:
            level = level[~leaf[level]]
            if not level.size:
                break
            level = np.concatenate([self._left[level], self._right[level]])
            self._depth += 1

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """(n_rows, n_trees) flat index of the leaf each row reaches in each tree."""
        node = np.tile(self._roots, (len(X), 1))
        rows = np.arange(len(X))[:, None]
        for _ in range(self._depth):
            go_left = X[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        leaves = self._leaves(X)
        acc = np.zeros((len(X), self.n_classes))
        # tree by tree, so every row's histogram sum adds in tree order
        for t in range(len(self.trees)):
            acc += self._probs[leaves[:, t]]
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "oob_accuracy": self.oob_accuracy,
            "trees": [{k: a.tolist() for k, a in t.items()} for t in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomForest":
        trees = [
            {
                "feature": np.array(t["feature"], dtype=np.int64),
                "threshold": np.array(t["threshold"], dtype=float),
                "left": np.array(t["left"], dtype=np.int64),
                "right": np.array(t["right"], dtype=np.int64),
                "probs": np.array(t["probs"], dtype=float),
            }
            for t in doc["trees"]
        ]
        return cls(trees, doc.get("oob_accuracy"))


def train_random_forest(
    train: TrainingSet,
    n_trees: int,
    seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
) -> RandomForest:
    """Bootstrap-bagged trees over sqrt(d) random features per split, with OOB accuracy."""
    X, y, m = train.X, train.y, train.n_classes
    n, d = X.shape
    n_feats = max(1, int(round(np.sqrt(d))))
    if train.sample_weight is not None:
        p = train.sample_weight / train.sample_weight.sum()
    else:
        p = None

    # each tree's bagging draw comes first on its own generator
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_trees)]
    bags = [rng.choice(n, size=n, p=p) for rng in rngs]
    in_bag = np.zeros((n, n_trees), dtype=bool)
    for t, idx in enumerate(bags):
        in_bag[idx, t] = True

    forest = RandomForest(_grow_forest(X, y, m, bags, rngs, max_depth, min_leaf, n_feats))
    leaves = forest._leaves(X)
    oob_votes = np.zeros((n, m))
    for t in range(n_trees):
        oob = ~in_bag[:, t]
        oob_votes[oob] += forest._probs[leaves[oob, t]]
    oob_hit = ~in_bag.all(axis=1)
    if oob_hit.any():
        pred = np.argmax(oob_votes[oob_hit], axis=1)
        forest.oob_accuracy = float(np.mean(pred == y[oob_hit]))
    return forest


@dataclass
class IntervalEnsemble:
    """Boosted NB and forest averaged 50/50 over the interval classes.

    Both parts must read ``FEATURE_DIM``-wide feature vectors and vote over
    the same classes: the learners' means rows and the leaf-probability columns.
    """

    boost: AdaBoostNB
    forest: RandomForest
    config: FeatureConfig

    def __post_init__(self):
        if self.boost.n_classes != self.forest.n_classes:
            raise ValueError(
                f"ensemble's boost votes over {self.boost.n_classes} classes, "
                f"its forest over {self.forest.n_classes}"
            )
        width = self.boost.learners[0].means.shape[1]
        top = int(self.forest._feature.max())  # leaves read 0 there
        if width != FEATURE_DIM or top >= FEATURE_DIM:
            raise ValueError(
                f"ensemble reads {FEATURE_DIM} features, but its boosted means are {width} wide "
                f"and its forest splits on feature {top} at most"
            )

    @property
    def n_classes(self) -> int:
        return self.boost.n_classes

    def predict_matrix(self, rows: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Row-stochastic (n_segments, n_classes) probability matrix of feature vectors."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        p = 0.5 * self.boost.predict_proba(rows) + 0.5 * self.forest.predict_proba(rows)
        p = p / p.sum(axis=1, keepdims=True)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        return p

    def to_dict(self) -> dict:
        return {
            "feature_config": self.config.to_dict(),
            "boost": self.boost.to_dict(),
            "forest": self.forest.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict, sample_rate: float) -> "IntervalEnsemble":
        return cls(
            boost=AdaBoostNB.from_dict(doc["boost"]),
            forest=RandomForest.from_dict(doc["forest"]),
            config=FeatureConfig.from_dict(doc["feature_config"], sample_rate),
        )


def train_interval_ensemble(
    train: TrainingSet,
    config: FeatureConfig,
    boost_rounds: int,
    n_trees: int,
    seed: int = 0,
) -> IntervalEnsemble:
    ss = np.random.SeedSequence(seed)
    boost_seed, forest_seed = (int(c.generate_state(1)[0]) for c in ss.spawn(2))
    boost = train_adaboost_nb(train, rounds=boost_rounds, seed=boost_seed)
    forest = train_random_forest(train, n_trees=n_trees, seed=forest_seed)
    return IntervalEnsemble(boost=boost, forest=forest, config=config)
