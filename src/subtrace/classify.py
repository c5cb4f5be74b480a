"""Interval classifiers: Gaussian NB, boosted NB, and a random forest.

The two ensembles are trained on the same rows and averaged 50/50 at
prediction time. Everything is written against plain numpy arrays and
serializes to versioned JSON so a trained attack model is a single file.
Boost rounds and tree counts have no defaults: ``PipelineConfig`` sets them.

The forest works on whole arrays. At each node the split search gathers
the node's rows of all candidate features as one ``(rows, features)``
block, sorts every column with one stable argsort and counts classes with
one cumulative sum laid out ``(rows, features, classes)``; each Gini sum
then runs over one contiguous row of classes. The chosen split is the
first minimum of a feature's scores, and across features the first
feature, in draw order, with the strictly smallest score. Prediction and
the out-of-bag vote share one walk: the trees are laid end to end as one
flat node table, leaves point to themselves, and one step per depth level
moves every row down every tree. Leaf histograms are then added tree by
tree. Every tree, score and probability is bit-identical to growing and
walking one tree and one feature at a time: the arithmetic, its order and
every tie-break are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureConfig

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


class GaussianNB:
    """Diagonal Gaussian naive Bayes with optional sample weights."""

    def __init__(self, priors: np.ndarray, means: np.ndarray, variances: np.ndarray):
        self.priors = priors
        self.means = means
        self.variances = variances

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
        return np.argmax(self.log_joint(X), axis=1)

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

    def __init__(self, learners: list[GaussianNB], alphas: np.ndarray, n_classes: int):
        if not learners:
            raise ValueError("boosted model needs at least one learner")
        self.learners = learners
        self.alphas = alphas
        self.n_classes = n_classes

    def vote_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.zeros((len(X), self.n_classes))
        for alpha, nb in zip(self.alphas, self.learners):
            pred = nb.predict(X)
            scores[np.arange(len(X)), pred] += alpha
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.vote_scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.vote_scores(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "alphas": self.alphas.tolist(),
            "learners": [nb.to_dict() for nb in self.learners],
            "n_classes": self.n_classes,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaBoostNB":
        return cls(
            [GaussianNB.from_dict(d) for d in doc["learners"]],
            np.array(doc["alphas"], dtype=float),
            int(doc["n_classes"]),
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
    return AdaBoostNB(learners, np.array(alphas), m)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    max_depth: int,
    min_leaf: int,
    n_feats: int,
) -> dict:
    """CART with Gini splits, stored as flat arrays (feature -1 marks a leaf)."""
    n, d = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    probs: list[np.ndarray] = []
    onehot = np.eye(n_classes)[y]

    def leaf_probs(idx: np.ndarray) -> np.ndarray:
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        return counts / counts.sum()

    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        probs.append(leaf_probs(idx))

        ysub = y[idx]
        nn = len(idx)
        if depth >= max_depth or nn < 2 * min_leaf or ysub.min() == ysub.max():
            continue

        # all candidate features at once: rows on axis 0, features on axis 1,
        # classes last so each Gini sum runs over one contiguous class row
        feats = rng.choice(d, size=n_feats, replace=False)
        xs = X[idx[:, None], feats]
        order = np.argsort(xs, axis=0, kind="stable")
        xo = xs[order, np.arange(n_feats)]
        cum = np.cumsum(onehot[idx[order]], axis=0)
        total = cum[-1]
        nl = np.arange(1, nn)
        gl = 1.0 - ((cum[:-1] / nl[:, None, None]) ** 2).sum(axis=2)
        gr = 1.0 - (((total - cum[:-1]) / (nn - nl)[:, None, None]) ** 2).sum(axis=2)
        score = (nl[:, None] * gl + (nn - nl)[:, None] * gr) / nn
        sizes_ok = (nl >= min_leaf) & ((nn - nl) >= min_leaf)
        valid = (xo[:-1] < xo[1:]) & sizes_ok[:, None]
        score = np.where(valid, score, np.inf)
        # first minimum per feature, then the first feature with the least score
        j = np.argmin(score, axis=0)
        best = score[j, np.arange(n_feats)]
        b = int(np.argmin(best))
        if best[b] == np.inf:
            continue

        best_f = int(feats[b])
        best_t = float(0.5 * (xo[j[b], b] + xo[j[b] + 1, b]))
        feature[node] = best_f
        threshold[node] = best_t
        go_left = X[idx, best_f] <= best_t
        stack.append((idx[~go_left], depth + 1, node, True))
        stack.append((idx[go_left], depth + 1, node, False))

    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "probs": np.stack(probs),
    }


class RandomForest:
    """Bagged CART trees with soft voting over leaf class histograms.

    ``trees`` keeps one dict of arrays per tree, the serialised form. The
    constructor also lays all trees end to end as one flat node table with
    forest-wide child indices; a leaf's children are the leaf itself, so a
    fixed number of steps (the deepest tree's depth) walks every row down
    every tree at once.
    """

    def __init__(self, trees: list[dict], n_classes: int, oob_accuracy: float | None = None):
        if not trees:
            raise ValueError("forest needs at least one tree")
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "n_classes": self.n_classes,
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
        return cls(trees, int(doc["n_classes"]), doc.get("oob_accuracy"))


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

    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    in_bag = np.zeros((n, n_trees), dtype=bool)
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        idx = rng.choice(n, size=n, p=p)
        trees.append(_grow_tree(X[idx], y[idx], m, rng, max_depth, min_leaf, n_feats))
        in_bag[idx, t] = True

    forest = RandomForest(trees, m)
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
    """Boosted NB and forest averaged 50/50 over the interval classes."""

    boost: AdaBoostNB
    forest: RandomForest
    config: FeatureConfig
    n_classes: int

    def predict_matrix(self, rows: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Row-stochastic (n_segments, n_classes) probability matrix of feature vectors."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        p = 0.5 * self.boost.predict_proba(rows) + 0.5 * self.forest.predict_proba(rows)
        p = p / p.sum(axis=1, keepdims=True)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        return p

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "interval_ensemble",
            "n_classes": self.n_classes,
            "feature_config": self.config.to_dict(),
            "boost": self.boost.to_dict(),
            "forest": self.forest.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "IntervalEnsemble":
        if doc.get("kind") != "interval_ensemble" or doc.get("schema_version") != 1:
            raise ValueError("not a version-1 interval ensemble document")
        return cls(
            boost=AdaBoostNB.from_dict(doc["boost"]),
            forest=RandomForest.from_dict(doc["forest"]),
            config=FeatureConfig.from_dict(doc["feature_config"]),
            n_classes=int(doc["n_classes"]),
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
    return IntervalEnsemble(boost=boost, forest=forest, config=config, n_classes=train.n_classes)
