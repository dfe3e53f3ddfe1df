"""Entropy rate functions: what large deviations cost.

The chance that a random graph looks like the "wrong" graphon decays
exponentially in the number of vertex pairs; the decay constant is a
relative-entropy functional.  Three layers:

  rate_Ip(p, u)        cost of graphon u under the uniform G(n, p) law
  rate_J(alpha, p, u)  cost of u under a block model, for one vector of
                       block fractions alpha (minimized over couplings)
  rate_R(p, u)         cost minimized over alpha as well

J and R report witnesses: the optimizing coupling, and the optimizing
alpha, which for R is the column sums of its coupling (R descends over
couplings whose rows sum to u's part weights and whose columns are free).  A value of +infinity is a certificate (no compatible coupling
exists), not a search failure.
"""

import numpy as np

from stepldp import make_step_graphon, rate_Ip, rate_J, rate_R, rel_entropy

# the scalar building block: Bernoulli relative entropy, infinite against
# a degenerate reference
print("h_p(rho) examples:")
for p, rho in [(0.5, 0.5), (0.5, 0.8), (0.25, 1.0), (0.0, 0.3)]:
    print("  h_%.2f(%.2f) = %s" % (p, rho, rel_entropy(p, rho)))

# the two-clique graphon: two equal communities, full inside, empty across
u = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
print("\ncost of the two-clique shape under G(n, 1/2):",
      rate_Ip(0.5, u), "(= log(2)/2)")

# under a two-colour block model whose colours are "clique 0" and
# "clique 1", the shape is free -- but only if the colour fractions are
# split exactly in half
p = [[1.0, 0.0], [0.0, 1.0]]
for alpha in [(0.5, 0.5), (0.3, 0.7)]:
    rep = rate_J(alpha, p, u, budget=32, seed=0)
    print("J(alpha=%s) = %s  (budget used %d)" % (alpha, rep.value,
                                                  rep.budget_used))

# minimizing over alpha finds the balanced split on its own
rep = rate_R(p, u, budget=64, seed=0)
print("R = %s at alpha = %s" % (rep.value,
                                np.round(rep.witness_alpha.weights, 3)))

# witnesses are couplings between the graphon's parts and the colours;
# the optimal one for the balanced split is a (half-scaled) permutation
rep = rate_J([0.5, 0.5], p, u, budget=32, seed=0)
print("\noptimal coupling for the balanced split:")
print(rep.witness_coupling.matrix)

# a generic instance: the two-block assortative graphon under a mismatched
# block model has a finite, positive cost with an interior witness
target = make_step_graphon([0.4, 0.6], [[0.85, 0.15], [0.15, 0.55]])
model_p = [[0.7, 0.3], [0.3, 0.5]]
rep = rate_R(model_p, target, budget=64, seed=0)
print("\ngeneric instance: R = %.6f at alpha = %s"
      % (rep.value, np.round(rep.witness_alpha.weights, 3)))
