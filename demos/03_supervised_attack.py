"""Train the supervised attack and read a stranger's commute off their phone.

The attack model bundles four parts: the mode extractor, the dwell
segmenter, an ensemble classifier scoring every segment against every
station interval, and a voting step that decodes the most likely contiguous
ride. Here it is trained on the simulated corpus and pointed at a fresh
day trace it has never seen.
"""

import numpy as np

from subtrace import features, pipeline, simgen

config = pipeline.PipelineConfig(
    seed=11, num_intervals=6, n_trips=8, mode_duration=400.0,
    boost_rounds=4, n_trees=12, enough_labels=6,
)
corpus = pipeline.build_corpus(config)
net = corpus.network

model = pipeline.train_attack_model(corpus, config)
print(f"trained attack model: {net.num_intervals} intervals, "
      f"ensemble over {features.PEAK_WINDOWS_S} s peak windows")

# a victim's afternoon, generated with a seed the model never saw
day = simgen.gen_mixed_day(
    [
        ("walk", 240.0),
        ("trip", {"start_interval": 2, "length": 4}),
        ("walk", 300.0),
        ("static", 600.0),
    ],
    config.noise,
    seed=77,
    network=net,
    profiles=corpus.profiles,
)
true_ride = day.truth_ranges("metro")[0]
print(f"\nvictim rides the metro {true_ride.start:.0f} .. {true_ride.end:.0f} s "
      f"(4 intervals forward from {net.intervals[2].from_station})")

report = pipeline.attack_trace(day, model, mode="full")
print(f"\nattack found {report['num_spans']} ride(s):")
for span in report["spans"]:
    if "error" in span:
        print("  unscorable span:", span["error"])
        continue
    stations = " -> ".join(span["stations"])
    print(f"  {span['t_start']:7.1f} .. {span['t_end']:7.1f} s  "
          f"{span['length']} intervals {span['direction']}")
    print(f"    inferred route: {stations}")
    print(f"    log-likelihood: {span['score']:.2f}"
          + ("  (segment-count warning)" if span["warning"] else ""))

# the reduced mode skips the segment-count tolerance search
reduced = pipeline.attack_trace(day, model, mode="reduced")
same = [
    (a["start_interval"], a["direction"], a["length"])
    == (b["start_interval"], b["direction"], b["length"])
    for a, b in zip(report["spans"], reduced["spans"])
    if "error" not in a and "error" not in b
]
print(f"\nreduced mode agrees on {int(np.sum(same))}/{len(same)} span(s)")
print("\nStart station, direction, and ride length all come from nothing but")
print("accelerometer and orientation streams.")
