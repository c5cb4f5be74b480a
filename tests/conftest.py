"""Shared fixtures: one small corpus reused across the unit tests.

The full-size benchmark lives in test_acceptance.py with its own
fixtures. Most unit tests run on the six-interval line; the frozen-loop
checks of extraction and segmentation also run on the acceptance corpus.
"""

from __future__ import annotations

import numpy as np
import pytest

from subtrace import coord
from subtrace.pipeline import (
    Corpus,
    PipelineConfig,
    build_corpus,
    mode_window_size,
    train_mode_model,
)
from subtrace.simgen import gen_mixed_day


@pytest.fixture(scope="session")
def small_config() -> PipelineConfig:
    return PipelineConfig(
        seed=11,
        num_intervals=6,
        n_trips=8,
        mode_duration=400.0,
        boost_rounds=4,
        n_trees=12,
        enough_labels=6,
    )


@pytest.fixture(scope="session")
def small_corpus(small_config) -> Corpus:
    return build_corpus(small_config)


@pytest.fixture(scope="session")
def acceptance_corpus() -> Corpus:
    return build_corpus(PipelineConfig())


@pytest.fixture(scope="session")
def acceptance_series(acceptance_corpus):
    """Mode model, its window and the HRA series of the acceptance corpus trips and mixed days."""
    corpus = acceptance_corpus
    model = train_mode_model(corpus)
    trips = [coord.transform(t).hra for t in corpus.trips]
    rng = np.random.default_rng(5)
    days = []
    for k in range(6):
        ride = ("trip", {"start_interval": int(rng.integers(0, 5)), "length": int(rng.integers(2, 5))})
        schedule = [("static", 240.0), ("walk", 120.0), ride, ("walk", 120.0), ("bus", 240.0)]
        # rides that start the series, end it, or both
        schedule = [schedule, schedule[:3], schedule[2:], [ride]][k % 4]
        day = gen_mixed_day(
            schedule, PipelineConfig().noise, seed=200 + k,
            network=corpus.network, profiles=corpus.profiles,
        )
        days.append(coord.transform(day).hra)
    return model, mode_window_size(corpus.network), trips, days
