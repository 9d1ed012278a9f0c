"""Finite truncation of the belief dynamics and its error certificates.

Beliefs older than L slots are aggregated into the equilibrium belief, which
turns the countable belief space into N*L + 1 states.  The certificates
eta_L (belief gap) and sigma_L (entropy gap) bound how much the truncation
can move the optimal values.
"""

import numpy as np

from uoisched import (
    BanditSpec,
    average_error_bound,
    build_truncated,
    choose_truncation,
    discounted_error_bound,
    validate_chain,
)

bandit = BanditSpec(
    chain=validate_chain([[0.99, 0.3], [0.01, 0.7]]),
    success_prob=0.8,
    label="demo",
)

print("smallest truncation depth for a range of belief-gap targets:")
for eta_target in (1e-2, 1e-4, 1e-6, 1e-8):
    L, diag = choose_truncation(bandit, eta_target)
    print(
        f"  eta <= {eta_target:7.0e}: L = {L:3d}  "
        f"(eta_L = {diag.eta_L:.2e}, sigma_L = {diag.sigma_L:.2e})"
    )

L, diag = choose_truncation(bandit, 1e-6)
mdp = build_truncated(bandit, L, discount=0.9)
print(f"\nbuilt the L={L} truncated MDP: {mdp.n_states} states "
      f"({bandit.chain.n_states} observation branches x {L} ages + equilibrium)")

print("\nvalue-error certificates for the discounted problem (beta = 0.9):")
for lam in (0.0, 0.1, 0.5):
    bound = discounted_error_bound(diag, lam, 0.9, bandit.chain.n_states, bandit.success_prob)
    print(f"  service charge {lam:.1f}: |V - V_truncated| <= {bound:.3e}")
print(f"average-cost certificate: |g - g_truncated| <= {average_error_bound(diag):.3e}")

# a served source is observed with probability rho and jumps to the reset
# state T_k^1 of the observed state k (probability rho * x_k); otherwise its
# belief ages one slot, as if passive
sid = mdp.state_index(2, 1)
rho = bandit.success_prob
successors = np.append(mdp.reset_states, mdp.passive_next[sid])
probs = np.bincount(successors, weights=np.append(rho * mdp.states[sid], 1.0 - rho), minlength=mdp.n_states)
print(f"\ntransmitting from belief {mdp.states[sid].round(3)} (success prob 0.8):")
for j in np.flatnonzero(probs):
    print(f"  -> state {j} {mdp.states[j].round(3)} with probability {probs[j]:.3f}")
