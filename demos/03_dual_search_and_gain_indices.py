"""Finding the optimal transmission charge and the per-state gain indices.

The relaxed scheduling problem prices channel use with a charge lambda; the
dual objective f(lambda) is concave and piecewise linear, so a gradient
search with shrinking steps brackets its maximizer.  The gain index of a
belief state is the value the bandit gains by transmitting now instead of
waiting, evaluated at that optimal charge.
"""

import numpy as np

from uoisched import (
    BanditSpec,
    build_truncated,
    choose_truncation,
    gain_index_tables,
    gradient_search,
    make_problem,
    objective_derivative,
    validate_chain,
)

beta = 0.9
specs = [
    BanditSpec(validate_chain([[0.99, 0.3], [0.01, 0.7]]), 1.0, "sticky"),
    BanditSpec(validate_chain([[0.9, 0.35], [0.1, 0.65]]), 0.8, "jumpy"),
]
mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in specs]
problem = make_problem(mdps, 1, "discounted")

print("derivative of the dual objective at a few charges:")
for lam in (0.0, 0.05, 0.1, 0.2, 0.5):
    print(f"  f'({lam:4.2f}) = {objective_derivative(problem, lam):+8.4f}")

trace = gradient_search(problem)
print(f"\ngradient search: {len(trace.iterates)} evaluations, "
      f"stopped with bracket ({trace.bracket[0]:.6f}, {trace.bracket[1]:.6f})")
print(f"optimal charge lambda* = {trace.lambda_star:.6f}\n")

# the tables are read off the search's own solve at lambda*
for mdp, table in zip(mdps, gain_index_tables(problem, trace)):
    print(f"gain indices for source {table.bandit_label!r} (first ages):")
    print(f"{'state':>10} {'belief':>18} {'index':>10} {'transmit?':>10}")
    for k in (1, 2):
        for age in (1, 2, 3):
            s = mdp.state_index(k, age)
            d = beta * table.indices[s] - trace.lambda_star
            print(
                f"  (k={k},n={age}) {np.array2string(mdp.states[s], precision=3):>18} "
                f"{table.indices[s]:>10.4f} {'yes' if d >= 0 else 'no':>10}"
            )
    s = 0
    d = beta * table.indices[s] - trace.lambda_star
    print(f"  equilibrium {np.array2string(mdp.states[0], precision=3):>17} "
          f"{table.indices[0]:>10.4f} {'yes' if d >= 0 else 'no':>10}\n")

print("the scheduler ranks all sources by these indices each slot and serves")
print("the m largest; 'transmit?' marks states the unconstrained relaxed")
print("policy would serve (gain above the charge).")
