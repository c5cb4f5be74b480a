"""Classifier oracles: closed-form NB boundaries, boosting and forest
contracts, exact JSON round-trips."""

from __future__ import annotations

import json

from fractions import Fraction

import numpy as np
import pytest

from subtrace import classify, coord
from subtrace.classify import (
    VAR_FLOOR,
    AdaBoostNB,
    GaussianNB,
    IntervalEnsemble,
    RandomForest,
    TrainingSet,
    train_adaboost_nb,
    train_interval_ensemble,
    train_random_forest,
)
from subtrace.extract import window_features
from subtrace.features import (
    FEATURE_DIM,
    N_EXTREMA,
    STATS_DIM,
    FeatureConfig,
    extract_batch,
    fit_features,
)
from subtrace.pipeline import PipelineConfig, build_corpus, interval_training_rows, train_mode_model


def cluster_set(seed: int, n_classes: int = 4, n_per: int = 20, d: int = 5) -> TrainingSet:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=10.0, size=(n_classes, d))
    X = np.vstack([c + rng.normal(scale=0.1, size=(n_per, d)) for c in centers])
    y = np.repeat(np.arange(n_classes), n_per)
    return TrainingSet(X=X, y=y, n_classes=n_classes)


def dummy_features(length: int, fill: float = 0.0) -> np.ndarray:
    """A feature vector laid out as ``extract_features`` lays it out."""
    return np.concatenate(
        [np.full(3 * STATS_DIM, fill), [float(length)], np.full(3 * 4 * N_EXTREMA, fill)]
    )


class TestTrainingSet:
    def test_coerces_dtypes(self):
        ts = TrainingSet(X=[[1, 2], [3, 4], [5, 6], [7, 8]], y=[0, 0, 1, 1], n_classes=2)
        assert ts.X.dtype == float and ts.y.dtype == int

    def test_absent_class_allowed(self):
        TrainingSet(X=np.zeros((4, 2)), y=[0, 0, 2, 2], n_classes=3)

    @pytest.mark.parametrize(
        "X,y,m",
        [
            (np.zeros(4), [0, 0, 1, 1], 2),  # 1-d X
            (np.zeros((3, 2)), [0, 0], 2),  # length mismatch
            (np.zeros((4, 2)), [0, 0, 2, 2], 2),  # label out of range
            (np.zeros((4, 2)), [0, 0, -1, 1], 2),  # negative label
            (np.zeros((3, 2)), [0, 0, 1], 2),  # class 1 has one row
        ],
    )
    def test_rejects_bad_data(self, X, y, m):
        with pytest.raises(ValueError):
            TrainingSet(X=X, y=y, n_classes=m)

    @pytest.mark.parametrize(
        "w", [np.ones(3), -np.ones(4), np.zeros(4)]
    )
    def test_rejects_bad_weights(self, w):
        with pytest.raises(ValueError):
            TrainingSet(X=np.zeros((4, 2)), y=[0, 0, 1, 1], n_classes=2, sample_weight=w)


class TestGaussianNB:
    @pytest.fixture()
    def two_class(self):
        X = np.array([[0.0], [2.0], [4.0], [6.0]])
        y = np.array([0, 0, 1, 1])
        return GaussianNB.fit(X, y, 2)

    def test_fitted_moments(self, two_class):
        assert two_class.priors == pytest.approx([0.5, 0.5])
        assert np.allclose(two_class.means, [[1.0], [5.0]])
        assert np.allclose(two_class.variances, [[1.0], [1.0]])

    def test_midpoint_boundary(self, two_class):
        # symmetric unit-variance classes at 1 and 5 split exactly at 3
        assert two_class.predict([[2.9], [3.1], [3.0]]).tolist() == [0, 1, 0]

    def test_log_joint_closed_form(self, two_class):
        lj = two_class.log_joint([[0.0]])
        want0 = np.log(0.5) - 0.5 * (np.log(2 * np.pi) + 1.0)
        want1 = np.log(0.5) - 0.5 * (np.log(2 * np.pi) + 25.0)
        assert lj[0] == pytest.approx([want0, want1])

    def test_weighted_fit(self):
        X = np.array([[0.0], [2.0], [10.0], [12.0]])
        y = np.array([0, 0, 1, 1])
        nb = GaussianNB.fit(X, y, 2, sample_weight=np.array([3.0, 1.0, 1.0, 1.0]))
        assert nb.priors == pytest.approx([2 / 3, 1 / 3])
        assert nb.means[0, 0] == pytest.approx(0.5)
        assert nb.variances[0, 0] == pytest.approx(0.75)

    def test_variance_floor(self):
        nb = GaussianNB.fit(np.zeros((4, 2)), [0, 0, 1, 1], 2)
        assert np.all(nb.variances == VAR_FLOOR)

    def test_absent_class_never_predicted(self):
        X = np.array([[0.0], [0.5], [5.0], [5.5]])
        nb = GaussianNB.fit(X, [0, 0, 2, 2], 3)
        grid = np.linspace(-5, 10, 50)[:, None]
        assert not np.any(nb.predict(grid) == 1)
        proba = nb.predict_proba(grid)
        assert proba.sum(axis=1) == pytest.approx(np.ones(50))
        assert np.all(proba[:, 1] < 1e-12)

    def test_proba_is_softmax_of_log_joint(self, two_class):
        X = np.array([[1.5], [4.2]])
        lj = two_class.log_joint(X)
        want = np.exp(lj) / np.exp(lj).sum(axis=1, keepdims=True)
        assert two_class.predict_proba(X) == pytest.approx(want)

    def test_tie_goes_to_first_class(self):
        X = np.array([[0.0], [2.0], [0.0], [2.0]])
        nb = GaussianNB.fit(X, [0, 0, 1, 1], 2)
        assert nb.predict([[1.0]]).tolist() == [0]

    def test_json_round_trip(self, two_class):
        doc = json.loads(json.dumps(two_class.to_dict()))
        back = GaussianNB.from_dict(doc)
        assert np.array_equal(back.priors, two_class.priors)
        assert np.array_equal(back.means, two_class.means)
        assert np.array_equal(back.variances, two_class.variances)


class TestAdaBoost:
    def test_separable_data_stops_early(self):
        train = cluster_set(seed=1)
        model = train_adaboost_nb(train, rounds=12, seed=0)
        # a zero-error first round keeps one learner and stops
        assert len(model.learners) == 1
        assert np.array_equal(np.argmax(model.vote_scores(train.X), axis=1), train.y)

    def test_vote_scores_spend_all_alphas(self):
        train = cluster_set(seed=2)
        model = train_adaboost_nb(train, rounds=6, seed=3)
        scores = model.vote_scores(train.X)
        assert scores.shape == (len(train.X), train.n_classes)
        assert scores.sum(axis=1) == pytest.approx(
            np.full(len(train.X), model.alphas.sum())
        )

    def test_deterministic_per_seed(self):
        train = cluster_set(seed=4)
        a = train_adaboost_nb(train, rounds=8, seed=5)
        b = train_adaboost_nb(train, rounds=8, seed=5)
        assert np.array_equal(a.alphas, b.alphas)
        for la, lb in zip(a.learners, b.learners):
            assert np.array_equal(la.means, lb.means)

    def test_hard_labels_still_produce_model(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
        rng.shuffle(y)
        model = train_adaboost_nb(TrainingSet(X=X, y=y, n_classes=2), rounds=10, seed=7)
        assert 1 <= len(model.learners) <= 10
        assert set(np.argmax(model.vote_scores(X), axis=1)) <= {0, 1}

    def test_json_round_trip(self):
        train = cluster_set(seed=8)
        model = train_adaboost_nb(train, rounds=4, seed=9)
        back = AdaBoostNB.from_dict(json.loads(json.dumps(model.to_dict())))
        assert np.array_equal(back.vote_scores(train.X), model.vote_scores(train.X))

    def test_needs_learners(self):
        with pytest.raises(ValueError):
            AdaBoostNB([], np.array([]), 2)


class TestRandomForest:
    def test_fits_separable_data(self):
        train = cluster_set(seed=10)
        forest = train_random_forest(train, n_trees=15, seed=11)
        assert np.array_equal(np.argmax(forest.predict_proba(train.X), axis=1), train.y)
        assert forest.oob_accuracy is not None
        assert 0.9 <= forest.oob_accuracy <= 1.0

    def test_proba_rows_sum_to_one(self):
        train = cluster_set(seed=12)
        forest = train_random_forest(train, n_trees=8, seed=13)
        rng = np.random.default_rng(14)
        proba = forest.predict_proba(rng.normal(size=(25, 5)))
        assert proba.sum(axis=1) == pytest.approx(np.ones(25))

    def test_deterministic_per_seed(self):
        train = cluster_set(seed=15)
        a = train_random_forest(train, n_trees=6, seed=16)
        b = train_random_forest(train, n_trees=6, seed=16)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_trees(self):
        train = cluster_set(seed=15)
        a = train_random_forest(train, n_trees=6, seed=16)
        c = train_random_forest(train, n_trees=6, seed=17)
        assert a.to_dict() != c.to_dict()

    def test_json_round_trip(self):
        train = cluster_set(seed=20)
        forest = train_random_forest(train, n_trees=5, seed=21)
        back = RandomForest.from_dict(json.loads(json.dumps(forest.to_dict())))
        rng = np.random.default_rng(22)
        probe = rng.normal(size=(10, 5))
        assert np.array_equal(back.predict_proba(probe), forest.predict_proba(probe))

    def test_needs_trees(self):
        with pytest.raises(ValueError):
            RandomForest([], 2)


@pytest.fixture(scope="module")
def trained():
    train = cluster_set(seed=23, d=FEATURE_DIM)
    config = FeatureConfig(sample_rate=10.0, nvht_thresholds=((1.0, 2.0, 3.0),) * 3)
    ens = train_interval_ensemble(train, config, boost_rounds=4, n_trees=6, seed=24)
    return train, ens


class TestIntervalEnsemble:
    def test_matrix_is_row_stochastic(self, trained):
        train, ens = trained
        p = ens.predict_matrix(train.X)
        assert p.shape == (len(train.X), train.n_classes)
        assert p.sum(axis=1) == pytest.approx(np.ones(len(train.X)))
        assert np.all(p >= 0)

    def test_fifty_fifty_mix(self, trained):
        train, ens = trained
        rows = train.X[:5]
        mixed = 0.5 * ens.boost.predict_proba(rows) + 0.5 * ens.forest.predict_proba(rows)
        mixed = mixed / mixed.sum(axis=1, keepdims=True)
        assert ens.predict_matrix(rows) == pytest.approx(mixed)

    def test_accepts_feature_list(self, trained):
        _, ens = trained
        rows = [dummy_features(30, fill=0.5), dummy_features(40, fill=1.5)]
        p = ens.predict_matrix(rows)
        assert p.shape == (2, ens.n_classes)
        assert p.tobytes() == ens.predict_matrix(np.stack(rows)).tobytes()

    def test_training_is_deterministic(self, trained):
        train, ens = trained
        again = train_interval_ensemble(
            train, ens.config, boost_rounds=4, n_trees=6, seed=24
        )
        assert np.array_equal(again.predict_matrix(train.X), ens.predict_matrix(train.X))

    def test_json_round_trip_exact(self, trained):
        train, ens = trained
        back = IntervalEnsemble.from_dict(json.loads(json.dumps(ens.to_dict())))
        assert back.n_classes == ens.n_classes
        assert back.config == ens.config
        assert np.array_equal(back.predict_matrix(train.X), ens.predict_matrix(train.X))

    @pytest.mark.parametrize(
        "patch", [{"kind": "other"}, {"schema_version": 2}]
    )
    def test_rejects_foreign_documents(self, trained, patch):
        _, ens = trained
        doc = ens.to_dict()
        doc.update(patch)
        with pytest.raises(ValueError):
            IntervalEnsemble.from_dict(doc)


# --- frozen per-feature forest ------------------------------------------------------
#
# The forest as it was before split search and prediction worked on whole
# arrays: one Python pass per candidate feature at each node, and one walk
# per tree. Trees, OOB accuracy and probabilities must match it bit for bit.


def _loop_grow_tree(X, y, n_classes, rng, max_depth, min_leaf, n_feats) -> dict:
    n, d = X.shape
    feature, threshold, left, right, probs = [], [], [], [], []

    def leaf_probs(idx):
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        return counts / counts.sum()

    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = node

        ysub = y[idx]
        pure = ysub.min() == ysub.max()
        if depth >= max_depth or len(idx) < 2 * min_leaf or pure:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            probs.append(leaf_probs(idx))
            continue

        feats = rng.choice(d, size=n_feats, replace=False)
        best_gini, best_f, best_t = np.inf, -1, 0.0
        onehot = np.eye(n_classes)[ysub]
        nn = len(idx)
        for f in feats:
            xs = X[idx, f]
            order = np.argsort(xs, kind="stable")
            xo = xs[order]
            if xo[0] == xo[-1]:
                continue
            cum = np.cumsum(onehot[order], axis=0)
            total = cum[-1]
            nl = np.arange(1, nn)
            gl = 1.0 - ((cum[:-1] / nl[:, None]) ** 2).sum(axis=1)
            gr = 1.0 - (((total - cum[:-1]) / (nn - nl)[:, None]) ** 2).sum(axis=1)
            score = (nl * gl + (nn - nl) * gr) / nn
            valid = (xo[:-1] < xo[1:]) & (nl >= min_leaf) & ((nn - nl) >= min_leaf)
            if not valid.any():
                continue
            score = np.where(valid, score, np.inf)
            j = int(np.argmin(score))
            if score[j] < best_gini:
                best_gini, best_f, best_t = float(score[j]), int(f), float(
                    0.5 * (xo[j] + xo[j + 1])
                )

        if best_f < 0:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            probs.append(leaf_probs(idx))
            continue

        go_left = X[idx, best_f] <= best_t
        feature.append(best_f)
        threshold.append(best_t)
        left.append(-1)
        right.append(-1)
        probs.append(leaf_probs(idx))
        stack.append((idx[~go_left], depth + 1, node, True))
        stack.append((idx[go_left], depth + 1, node, False))

    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "probs": np.stack(probs),
    }


def _loop_tree_apply(tree, X):
    n = len(X)
    node = np.zeros(n, dtype=np.int64)
    feat, thr, left, right = tree["feature"], tree["threshold"], tree["left"], tree["right"]
    rows = np.arange(n)
    while True:
        f = feat[node]
        active = f >= 0
        if not active.any():
            return node
        fx = X[rows, np.where(active, f, 0)]
        nxt = np.where(fx <= thr[node], left[node], right[node])
        node = np.where(active, nxt, node)


def loop_train_random_forest(train, n_trees, seed, max_depth=12, min_leaf=2):
    """Today's defaults only: bootstrap bagging and sqrt(d) features per split."""
    X, y, m = train.X, train.y, train.n_classes
    n, d = X.shape
    n_feats = max(1, int(round(np.sqrt(d))))
    p = None if train.sample_weight is None else train.sample_weight / train.sample_weight.sum()
    trees = []
    oob_votes = np.zeros((n, m))
    oob_hit = np.zeros(n, dtype=bool)
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        idx = rng.choice(n, size=n, p=p)
        tree = _loop_grow_tree(X[idx], y[idx], m, rng, max_depth, min_leaf, n_feats)
        trees.append(tree)
        oob = np.setdiff1d(np.arange(n), idx, assume_unique=False)
        if oob.size:
            oob_votes[oob] += tree["probs"][_loop_tree_apply(tree, X[oob])]
            oob_hit[oob] = True
    oob_accuracy = None
    if oob_hit.any():
        pred = np.argmax(oob_votes[oob_hit], axis=1)
        oob_accuracy = float(np.mean(pred == y[oob_hit]))
    return trees, oob_accuracy


def loop_predict_proba(trees, n_classes, X):
    acc = np.zeros((len(X), n_classes))
    for tree in trees:
        acc += tree["probs"][_loop_tree_apply(tree, X)]
    return acc / len(trees)


def on_thresholds(trees, X) -> np.ndarray:
    """Rows of X with one feature moved exactly onto a split threshold each."""
    probes = []
    for tree in trees:
        for f, t in zip(tree["feature"], tree["threshold"]):
            if f >= 0:
                row = X[len(probes) % len(X)].copy()
                row[f] = t
                probes.append(row)
    return np.array(probes).reshape(-1, X.shape[1])


def assert_forest_matches(train, probe, **kw):
    got = train_random_forest(train, **kw)
    trees, oob_accuracy = loop_train_random_forest(train, **kw)
    assert len(got.trees) == len(trees)
    for g, w in zip(got.trees, trees):
        assert g.keys() == w.keys()
        for key in w:
            assert g[key].dtype == w[key].dtype, key
            assert g[key].shape == w[key].shape, key
            assert g[key].tobytes() == w[key].tobytes(), key
    assert type(got.oob_accuracy) is type(oob_accuracy)
    assert got.oob_accuracy == oob_accuracy
    for rows in (probe, on_thresholds(trees, probe), train.X):
        want = loop_predict_proba(trees, train.n_classes, rows)
        assert got.predict_proba(rows).tobytes() == want.tobytes()
    return got


@pytest.fixture(scope="module")
def loo_fold():
    """The 390 training rows of the acceptance corpus's first leave-one-out fold."""
    corpus = build_corpus(PipelineConfig())
    segs, uids = interval_training_rows(corpus, list(range(1, len(corpus.trips))))
    fconfig, X = fit_features(segs, FeatureConfig(sample_rate=corpus.network.sample_rate))
    held_out, _ = interval_training_rows(corpus, [0])
    probe = extract_batch(held_out, fconfig)
    return TrainingSet(X=X, y=uids, n_classes=corpus.network.num_intervals), probe


def tie_heavy(seed: int, n: int = 60, d: int = 9, n_classes: int = 3) -> np.ndarray:
    """Few distinct values, a duplicated column, a constant and a near-constant one."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 0)
    X[:, 1] = X[:, 0]
    X[:, 2] = 4.0
    X[:, 3] = 0.0
    X[rng.integers(n), 3] = 1.0
    return X


class TestForestMatchesLoopForest:
    """Trees, OOB accuracy and probabilities equal the frozen loop forest's."""

    def test_acceptance_loo_fold(self, loo_fold):
        train, probe = loo_fold
        assert train.X.shape == (390, FEATURE_DIM)
        forest = assert_forest_matches(train, probe, n_trees=60, seed=5)
        assert forest.oob_accuracy is not None

    @pytest.mark.parametrize("min_leaf", [1, 2, 3, 7])
    @pytest.mark.parametrize("max_depth", [1, 3, 12])
    def test_ties_duplicates_and_constant_columns(self, min_leaf, max_depth):
        X = tie_heavy(seed=min_leaf * 31 + max_depth)
        rng = np.random.default_rng(max_depth)
        y = rng.integers(0, 3, size=len(X))
        y[:6] = [0, 0, 1, 1, 2, 2]
        train = TrainingSet(X=X, y=y, n_classes=3)
        assert_forest_matches(
            train, tie_heavy(seed=99, n=25), n_trees=12, seed=min_leaf,
            max_depth=max_depth, min_leaf=min_leaf,
        )

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_node_sizes_at_min_leaf_boundary(self, n):
        X = tie_heavy(seed=n, n=n)
        train = TrainingSet(X=X, y=[0, 1] * (n // 2) + [0] * (n % 2), n_classes=2)
        assert_forest_matches(train, X, n_trees=10, seed=n, min_leaf=2)

    def test_class_with_no_rows(self):
        base = cluster_set(seed=30, n_classes=4, n_per=15, d=6)
        y = np.where(base.y == 2, 3, base.y)
        X = np.round(base.X, 0)
        train = TrainingSet(X=X, y=y, n_classes=5)
        forest = assert_forest_matches(train, X[::3] + 0.5, n_trees=9, seed=31)
        assert np.all(forest.predict_proba(X)[:, [2, 4]] == 0.0)

    def test_sample_weights(self):
        base = cluster_set(seed=32, n_classes=3, n_per=20, d=7)
        rng = np.random.default_rng(33)
        w = rng.exponential(size=len(base.y))
        w[:10] = 0.0
        train = TrainingSet(X=np.round(base.X, 0), y=base.y, n_classes=3, sample_weight=w)
        assert_forest_matches(train, base.X, n_trees=15, seed=34)

    @pytest.mark.parametrize("min_leaf,max_depth", [(1, 12), (2, 4), (3, 12)])
    def test_ten_class_ties(self, min_leaf, max_depth):
        # eight or more classes: each Gini sum adds its class row in numpy's
        # pairwise order, not left to right
        X = tie_heavy(seed=40 + min_leaf, n=150)
        y = np.random.default_rng(max_depth).integers(0, 10, size=len(X))
        train = TrainingSet(X=X, y=y, n_classes=10)
        forest = assert_forest_matches(
            train, tie_heavy(seed=98, n=30), n_trees=12, seed=min_leaf,
            max_depth=max_depth, min_leaf=min_leaf,
        )
        assert len({len(t["feature"]) for t in forest.trees}) > 1  # trees end at different steps

    def test_nan_and_signed_zero(self):
        # the search ranks values: NaN sorts last and never starts a valid
        # split, and -0.0 ties 0.0, as a stable float sort has it
        X = tie_heavy(seed=46, n=80)
        rng = np.random.default_rng(47)
        X[rng.random(X.shape) < 0.1] = np.nan
        X[rng.random(X.shape) < 0.1] = -0.0
        y = rng.integers(0, 4, size=len(X))
        train = TrainingSet(X=X, y=y, n_classes=4)
        assert_forest_matches(train, X, n_trees=10, seed=48, min_leaf=1)

    @pytest.mark.parametrize("swap", [False, True])
    def test_real_tie_settled_by_float_scores(self, swap):
        # The root holds 4 rows of each class. Column a puts classes (1, 1, 0)
        # left, column b puts (0, 1, 1): equal Gini in real arithmetic, but
        # the float sums differ in their last bit, and the per-feature search
        # takes column a whichever of the two is drawn first.
        y = np.repeat([0, 1, 2], 4)
        a, b = np.ones(12), np.ones(12)
        a[[0, 4]] = 0.0
        b[[5, 8]] = 0.0
        X = np.column_stack([b, a, np.full(12, 2.0)] if swap else [a, b, np.full(12, 2.0)])
        tot = np.array([4.0, 4.0, 4.0])

        def float_score(left):
            left = np.array(left, dtype=float)
            gl = 1.0 - ((left / 2) ** 2).sum()
            gr = 1.0 - (((tot - left) / 10) ** 2).sum()
            return (2 * gl + 10 * gr) / 12

        def real_score(left):
            gl = 1 - sum(Fraction(c, 2) ** 2 for c in left)
            gr = 1 - sum(Fraction(4 - c, 10) ** 2 for c in left)
            return (2 * gl + 10 * gr) / 12

        assert real_score((1, 1, 0)) == real_score((0, 1, 1))
        assert float_score((1, 1, 0)) < float_score((0, 1, 1))
        train = TrainingSet(X=X, y=y, n_classes=3)
        # seed 1 bags 4 rows of each class, one each of rows 0, 4, 5 and 8,
        # and draws columns 0 and 1 at the root
        forest = assert_forest_matches(train, X, n_trees=1, seed=1, min_leaf=1)
        root = forest.trees[0]
        assert root["probs"][0].tolist() == [1 / 3] * 3
        assert root["feature"][0] == (1 if swap else 0)

    @pytest.mark.parametrize("budget", [1, 100])
    def test_row_budget(self, loo_fold, monkeypatch, budget):
        # a budget of 1 searches every node alone; 100 rows cut even the
        # steps of 390-row roots into several batches
        monkeypatch.setattr(classify, "SPLIT_BATCH_ROWS", budget)
        train, probe = loo_fold
        assert_forest_matches(train, probe, n_trees=8, seed=budget)
        X = tie_heavy(seed=41, n=150)
        y = np.random.default_rng(budget).integers(0, 10, size=len(X))
        assert_forest_matches(TrainingSet(X=X, y=y, n_classes=10), X, n_trees=6, seed=7)

    def test_one_tree(self):
        X = tie_heavy(seed=42, n=40)
        y = np.random.default_rng(43).integers(0, 3, size=len(X))
        assert_forest_matches(TrainingSet(X=X, y=y, n_classes=3), X, n_trees=1, seed=44)

    def test_no_valid_split_in_a_step(self):
        # every column constant: each root draws its features, finds no
        # split and stays a leaf, so no node of the step splits
        X = np.full((10, 4), 3.0)
        train = TrainingSet(X=X, y=[0, 1] * 5, n_classes=2)
        forest = assert_forest_matches(train, X, n_trees=5, seed=45)
        assert all(len(t["feature"]) == 1 for t in forest.trees)


# --- the screened vote ------------------------------------------------------------


def loop_vote_scores(model: AdaBoostNB, X: np.ndarray) -> np.ndarray:
    """The boosted vote as it was: each learner's argmax of ``log_joint``, alphas added in order."""
    scores = np.zeros((len(X), model.n_classes))
    for alpha, nb in zip(model.alphas, model.learners):
        scores[np.arange(len(X)), np.argmax(nb.log_joint(X), axis=1)] += alpha
    return scores


def assert_vote_matches(model: AdaBoostNB, X: np.ndarray):
    for nb in model.learners:
        assert nb.predict(X).tobytes() == np.argmax(nb.log_joint(X), axis=1).tobytes()
    assert model.vote_scores(X).tobytes() == loop_vote_scores(model, X).tobytes()


def one_nb(priors, means, variances) -> AdaBoostNB:
    nb = GaussianNB(*(np.array(a, dtype=float) for a in (priors, means, variances)))
    return AdaBoostNB([nb], np.array([1.0]), len(priors))


class TestScreenedVote:
    """Every learner's screened argmax equals ``argmax(log_joint)``, and so does the vote."""

    def test_loo_rows(self, loo_fold):
        train, probe = loo_fold
        model = train_adaboost_nb(train, rounds=12, seed=1)
        assert len(model.learners) == 12
        assert_vote_matches(model, np.vstack([train.X, probe]))

    def test_exact_ties(self):
        # classes 1 and 2 are the same Gaussian: every row ties and the lower class wins
        rng = np.random.default_rng(32)
        means = rng.normal(size=(3, 6))
        means[2] = means[1]
        model = one_nb([0.2, 0.4, 0.4], means, np.full((3, 6), 0.5))
        X = np.vstack([means[1] + rng.normal(scale=0.1, size=(50, 6)), means[0]])
        assert set(model.learners[0].predict(X[:50]).tolist()) == {1}
        assert_vote_matches(model, X)

    @pytest.mark.parametrize("what", ["prior", "mean", "variance"])
    def test_ties_one_ulp_apart(self, what):
        # two classes a float step apart: log_joint ties some rows and splits others by an ulp
        rng = np.random.default_rng(33)
        priors, variances = np.array([0.5, 0.5]), np.ones((2, 4))
        means = np.tile(rng.normal(size=4), (2, 1))
        if what == "prior":
            priors[1] += 16 * np.spacing(0.5)  # about one ulp of a log joint near -20
        elif what == "mean":
            means[1, 0] = np.nextafter(means[0, 0], np.inf)
        else:
            variances[1, 2] = np.nextafter(1.0, 2.0)
        model = one_nb(priors, means, variances)
        X = means[0] + rng.normal(scale=3.0, size=(400, 4))
        lj = model.learners[0].log_joint(X)
        gap = np.abs(lj[:, 0] - lj[:, 1])
        assert (gap == 0).any() and (gap == np.spacing(np.abs(lj[:, 0]))).any()
        assert_vote_matches(model, X)

    @pytest.mark.parametrize("var", [1e-6, 1.0, 1e3])
    def test_near_ties_at_large_scale(self, var):
        # 82 features far from two means that differ in a few places by 1e-14
        # of their size: the products round the two classes' scores in the
        # wrong order on some rows, and those rows must fall inside the band
        rng = np.random.default_rng(41)
        means = np.tile(rng.normal(scale=1e3, size=82), (2, 1))
        means[1, :3] *= 1.0 + 1e-14 * rng.normal(size=3)
        model = one_nb([0.5, 0.5], means, np.full((2, 82), var))
        X = means[0] + rng.normal(scale=1e3 * np.sqrt(var), size=(2000, 82))
        assert_vote_matches(model, X)

    def test_zero_prior_classes(self):
        X = np.array([[0.0, 1.0], [0.5, 1.0], [5.0, 2.0], [5.5, 2.0]])
        nb = GaussianNB.fit(X, [0, 0, 3, 3], 5)
        model = AdaBoostNB([nb, nb], np.array([0.7, 0.3]), 5)
        grid = np.random.default_rng(34).normal(scale=4.0, size=(200, 2))
        assert_vote_matches(model, grid)
        assert set(np.argmax(model.vote_scores(grid), axis=1).tolist()) <= {0, 3}
        lone = one_nb([0.0, 1.0, 0.0], np.zeros((3, 2)), np.ones((3, 2)))
        assert_vote_matches(lone, grid)
        assert set(np.argmax(lone.vote_scores(grid), axis=1).tolist()) == {1}

    def test_floor_variances(self):
        # constant columns give VAR_FLOOR variances and error scales near 1e12
        train = cluster_set(seed=35, d=8)
        X = train.X.copy()
        X[:, :3] = np.round(X[:, :3])
        floored = TrainingSet(X=X, y=train.y, n_classes=train.n_classes)
        model = train_adaboost_nb(floored, rounds=5, seed=36)
        assert any((nb.variances == VAR_FLOOR).any() for nb in model.learners)
        probe = X + np.random.default_rng(37).normal(scale=1e-3, size=X.shape)
        assert_vote_matches(model, np.vstack([X, probe]))

    def test_huge_values(self):
        train = cluster_set(seed=38, d=6)
        model = train_adaboost_nb(train, rounds=4, seed=39)
        rng = np.random.default_rng(40)
        rows = train.X[rng.integers(len(train.X), size=40)]
        # 1e150 leaves log_joint finite and silent, so the vote must be silent too
        X = rows.copy()
        X[::2, 0] = 1e150
        X[1::2, 1:3] = -1e150
        assert_vote_matches(model, X)
        # larger values overflow log_joint itself
        for big in (1e155, 1e160, 1e200, 1e300, 1.7e308):
            X = rows.copy()
            X[::3, 0] = big
            X[1::3, 2] = -big
            with np.errstate(over="ignore", invalid="ignore"):
                assert_vote_matches(model, X)

    @pytest.mark.parametrize("big", [1e154, 0.8e154])
    def test_overflow_in_log_joint_only(self, big):
        # class 0 is the real winner of rows 0 and 1, but log_joint squares
        # x - mean = 2 big before it divides by the variance of 1e20, overflows
        # and so picks class 1; at 0.8e154 the scale is still finite
        model = one_nb([0.5, 0.5], [[-big, 0.0], [0.0, 0.0]], [[1e20, 1.0], [1e10, 1.0]])
        X = np.array([[big, 0.0], [big, 0.5], [-big, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert np.argmax(model.learners[0].log_joint(X), axis=1).tolist() == [1, 1, 0, 1]
            assert_vote_matches(model, X)

    def test_mode_model_features(self, small_corpus):
        # the two-class, five-feature mode model takes the same screened predict
        mode = train_mode_model(small_corpus)
        hra = coord.transform(small_corpus.trips[0]).hra
        windows = np.lib.stride_tricks.sliding_window_view(hra, mode.window)[::7]
        rows = window_features(windows, mode.thresholds)
        want = np.argmax(mode.nb.log_joint(rows), axis=1)
        assert mode.nb.predict(rows).tobytes() == want.tobytes()
