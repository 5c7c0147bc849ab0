"""What should decide how deep a node aggregates?

The adaptive model needs a per-edge estimate of label agreement before
any label is known.  Three families are on offer: a trained similarity
head on first-layer embeddings, a degree-only shortcut that costs one
array lookup, and classical graph heuristics (common neighbors, Jaccard,
Adamic-Adar, betweenness, k-shell, clustering).  This script races them
on one fixed graph, then reruns the degree shortcut as an explicit
cutoff rule on a heterophilic graph where shallow nodes are better off
not aggregating at all.

Run:  python demos/scoring_variants.py   (about 30 seconds)
"""

from adgnn.drivers import ExperimentSpec, execute

print("similarity source vs accuracy and scoring cost (2 seeds, one graph)")
spec = ExperimentSpec(kind="compare_heuristics", parameters={}, seeds=(0, 1))
header, rows = execute(spec)
print(f"  {'source':<22} {'accuracy':>18} {'score cost':>12}")
for name, mean, std, ms in sorted(rows, key=lambda r: -r[1]):
    print(f"  {name:<22} {mean:>9.4f} +- {std:.4f} {ms:>9.2f} ms")

print()
print("degree cutoff on a strongly heterophilic graph "
      "(nodes with degree <= cutoff skip aggregation; 3 seeds)")
spec = ExperimentSpec(
    kind="sweep_degree_threshold",
    parameters={"thresholds": [0, 1, 2, 4, 6]},
    seeds=(0, 1, 2),
)
header, rows = execute(spec)
for cut, mean, std in rows:
    print(f"  cutoff {int(cut)}:  {mean:.4f} +- {std:.4f}")
print()
print("small cutoffs help because a heterophilic average built from two "
      "or\nthree neighbors is mostly noise, while the node's own features "
      "are\nstill clean; large cutoffs throw away aggregation where it "
      "works and\naccuracy falls back below the no-cutoff baseline.")
