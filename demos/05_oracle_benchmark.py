"""Gain-index scheduling versus the exact optimal policy (two sources).

With two sources and one channel the joint problem is small enough to solve
exactly on the product of the truncated belief spaces: value iteration for
the discounted criterion, relative value iteration for the average one.
"""

import numpy as np

from uoisched import (
    BanditSpec,
    RMABInstance,
    build_truncated,
    choose_truncation,
    discounted_horizon,
    gain_index_tables,
    gradient_search,
    joint_solve_average,
    joint_solve_discounted,
    make_problem,
    simulate,
    validate_chain,
)

specs = [
    BanditSpec(validate_chain([[0.99, 0.3], [0.01, 0.7]]), 1.0, "a"),
    BanditSpec(validate_chain([[0.9, 0.35], [0.1, 0.65]]), 0.8, "b"),
]
ls = [choose_truncation(b, 1e-6)[0] for b in specs]
print(f"truncation depths: {ls}")

# discounted criterion
beta = 0.9
mdps = [build_truncated(b, L, beta) for b, L in zip(specs, ls)]
problem = make_problem(mdps, 1, "discounted")
tables = gain_index_tables(problem, gradient_search(problem))
inst = RMABInstance(specs, 1, "discounted", beta, seed=505)
horizon = discounted_horizon(beta, sum(np.log2(b.chain.n_states) for b in specs))
sim = simulate(inst, "gain_index", horizon=horizon, runs=3000, tables=tables)
oracle = joint_solve_discounted(mdps, 1)
print("\ndiscounted criterion (beta = 0.9):")
print(f"  optimal policy value:     {oracle.value:.4f}")
print(f"  gain-index policy value:  {sim.mean:.4f} ± {sim.stderr:.4f}")
print(f"  relative gap:             {(sim.mean - oracle.value) / oracle.value:+.3%}")

# average criterion
mdps_a = [build_truncated(b, L, 1.0) for b, L in zip(specs, ls)]
problem_a = make_problem(mdps_a, 1, "average")
tables_a = gain_index_tables(problem_a, gradient_search(problem_a))
inst_a = RMABInstance(specs, 1, "average", 1.0, seed=506)
sim_a = simulate(inst_a, "gain_index", horizon=30_000, runs=30, tables=tables_a)
oracle_a = joint_solve_average(mdps_a, 1, tol=1e-8)
print("\naverage criterion:")
print(f"  optimal average UoI:      {oracle_a.gain:.5f}")
print(f"  gain-index average UoI:   {sim_a.mean:.5f} ± {sim_a.stderr:.5f}")
print(f"  relative gap:             {(sim_a.mean - oracle_a.gain) / oracle_a.gain:+.3%}")
