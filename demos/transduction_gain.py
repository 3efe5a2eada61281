"""How much does the query set help classify itself?

Samples 5-way 1-shot tasks from a fixed Gaussian generator and sweeps
the number of soft k-means refinement steps. T=0 is plain inductive
prototype classification; each further step folds confidence-weighted
query mass back into the prototypes. The Bayes oracle (which knows the
true class means) bounds what any classifier could do.
"""

import numpy as np

from mct import MetricSpec, SyntheticSpec, VIEWS, derive_seed, gen_synthetic
from mct.transduce import predict_labels, refine_batch

SPEC = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)
EPISODES = 300
STEPS = (0, 1, 2, 5, 10, 20)

metric = MetricSpec.euclid()
acc = {t: np.zeros(EPISODES) for t in STEPS}
bayes = np.zeros(EPISODES)

for i in range(EPISODES):
    episode, oracle = gen_synthetic(SPEC, 5, 1, 15, rng_seed=derive_seed(0, i))
    bayes[i] = oracle.episode_accuracy(episode)
    # trace[t] is the refinement stopped after t steps
    trace = refine_batch([episode], None, VIEWS[:1], metric, max(STEPS))[0]
    for t in STEPS:
        acc[t][i] = np.mean(predict_labels(trace[t]) == episode.query_y)

print(f"5-way 1-shot, 15 queries, {EPISODES} episodes, dim {SPEC.input_dim}")
print(f"{'steps':>6}  {'accuracy':>9}  {'ci95':>7}")
for t in STEPS:
    ci = 1.96 * acc[t].std(ddof=1) / np.sqrt(EPISODES)
    print(f"{t:>6}  {100 * acc[t].mean():>8.2f}%  ±{100 * ci:>5.2f}%")
print(f"{'bayes':>6}  {100 * bayes.mean():>8.2f}%")

gain = acc[10] - acc[0]
print(f"\nper-episode gain at T=10: mean {100 * gain.mean():+.2f} points, "
      f"helped {np.mean(gain > 0):.0%} of episodes, hurt {np.mean(gain < 0):.0%}")
