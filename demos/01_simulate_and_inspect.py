"""Simulate a small metro corpus and look at what the sensors actually see.

The simulator builds a fictional line as a chain of station intervals, each
with its own speed profile and track roughness, then renders trips as
phone-frame accelerometer plus orientation streams. Everything is seeded,
so the corpus here is reproducible byte for byte.
"""

import numpy as np

from subtrace import coord, pipeline

config = pipeline.PipelineConfig(
    seed=11, num_intervals=6, n_trips=8, mode_duration=400.0,
    boost_rounds=4, n_trees=12, enough_labels=6,
)
corpus = pipeline.build_corpus(config)
net = corpus.network

print(f"network {net.name!r}: {net.num_intervals} intervals, "
      f"{net.sample_rate:.0f} Hz, dwell {net.dwell_min:.0f}-{net.dwell_max:.0f} s")
profile_by_id = {p.interval_id: p for p in corpus.profiles}
for iv in net.intervals:
    tag = " distinctive" if profile_by_id[iv.id].distinctive else ""
    print(f"  [{iv.id}] {iv.from_station} -> {iv.to_station}  "
          f"{iv.min_duration:.0f}-{iv.max_duration:.0f} s{tag}")

# one trip, ground truth first
trip = corpus.trips[0]
meta = corpus.manifest["trips"][0]
print(f"\ntrip 0: direction={meta['direction']} {trip.n_samples} samples "
      f"({trip.t[-1]:.0f} s)")
for r in trip.truth:
    if r.label != "metro":
        print(f"  {r.label:<12} {r.start:7.1f} .. {r.end:7.1f} s")

# the attack never sees truth, only the earth-frame acceleration
series = coord.transform(trip)
print("\nhorizontal acceleration magnitude by true range:")
rate = trip.sample_rate
for r in trip.truth:
    if r.label == "metro":
        continue
    seg = series.hra[int(r.start * rate):int(r.end * rate)]
    kind = "ride " if r.label.startswith("interval") else "dwell"
    print(f"  {kind} {r.label:<12} mean={seg.mean():.3f} m/s^2  "
          f"p95={np.percentile(seg, 95):.3f}")

print("\nother-mode recordings in the corpus:")
for meta, trace in zip(corpus.manifest["modes"], corpus.modes):
    hra = coord.transform(trace).hra
    print(f"  {meta['mode']:<7} mean hra={hra.mean():.3f} m/s^2  "
          f"p95={np.percentile(hra, 95):.3f}")

print("\nDwells are quiet valleys between much louder interval rides, and the")
print("walk trace is louder than any of them. That contrast is everything the")
print("rest of the pipeline builds on.")
