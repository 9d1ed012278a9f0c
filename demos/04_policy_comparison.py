"""Gain-index scheduling against myopic and round-robin baselines.

Five heterogeneous two-state sources share two channels; the metric is the
long-run time-average uncertainty summed over sources.  Myopic transmits the
currently most uncertain sources; round-robin ignores content entirely.
"""

import numpy as np

from uoisched import (
    BanditSpec,
    RMABInstance,
    build_truncated,
    choose_truncation,
    gain_index_tables,
    gradient_search,
    make_problem,
    objective_value,
    simulate,
    validate_chain,
)

rng = np.random.default_rng(12)
bandits = []
for j in range(5):
    p_stay = rng.uniform(0.55, 0.97)
    q_stay = rng.uniform(0.55, 0.97)
    chain = validate_chain([[p_stay, 1 - q_stay], [1 - p_stay, q_stay]])
    rho = float(rng.choice([0.7, 0.85, 1.0]))
    bandits.append(BanditSpec(chain, rho, f"src{j}"))
    print(f"src{j}: stay probabilities ({p_stay:.2f}, {q_stay:.2f}), link quality {rho}")

m = 2
mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]
problem = make_problem(mdps, m, "average")
trace = gradient_search(problem)
tables = gain_index_tables(problem, trace)
bound = objective_value(problem, trace.lambda_star)
print(f"\noptimal charge lambda = {trace.lambda_star:.5f}; "
      f"relaxed lower bound on the average UoI: {bound:.4f}\n")

instance = RMABInstance(bandits, m, "average", 1.0, seed=2024)
kw = dict(horizon=20_000, runs=30)
results = {
    "gain_index": simulate(instance, "gain_index", tables=tables, **kw),
    "myopic": simulate(instance, "myopic", truncation_L=[t.truncation_L for t in tables], **kw),
    "round_robin": simulate(instance, "round_robin", truncation_L=[t.truncation_L for t in tables], **kw),
}
print(f"{'policy':>12} {'avg UoI':>10} {'stderr':>9} {'vs bound':>9}")
for name, res in results.items():
    print(f"{name:>12} {res.mean:>10.4f} {res.stderr:>9.5f} {res.mean - bound:>+9.4f}")

g = results["gain_index"]
print("\nper-source transmission frequencies under the gain-index policy:")
for b, f in zip(bandits, g.activation_freq):
    print(f"  {b.label}: {f:.3f}")
print(f"(frequencies sum to m = {g.activation_freq.sum():.3f})")
