"""End-to-end pipelines shared by the CLI, the demos, and the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .belief_mdp import (
    TruncatedBeliefMDP,
    TruncationDiagnostics,
    average_error_bound,
    build_truncated,
    discounted_error_bound,
    nearest_state,
    truncation_depth,
    truncation_diagnostics,
)
from .config import ExperimentConfig
from .index_policy import GainIndexTable, gain_index_tables
from .lagrange import GradientTrace, gradient_search, make_problem
from .solvers import DISCOUNTED


@dataclass
class PreparedInstance:
    config: ExperimentConfig
    mdps: list[TruncatedBeliefMDP]
    initial_states: list[int]

    @property
    def l_per_bandit(self) -> list[int]:
        return [mdp.truncation_L for mdp in self.mdps]

    @cached_property
    def diagnostics(self) -> list[TruncationDiagnostics]:
        """Truncation certificates per bandit, computed on first read (only
        `bound_report` needs them)."""
        return [truncation_diagnostics(mdp.bandit.chain, mdp.truncation_L) for mdp in self.mdps]


def prepare(config: ExperimentConfig) -> PreparedInstance:
    """Choose truncations, build the per-bandit MDPs, map initial beliefs."""
    mdps, init_ids = [], []
    for bandit, chi in zip(config.bandits, config.initial_beliefs):
        if config.truncation_mode == "fixed":
            L = config.truncation_L
        else:
            L = truncation_depth(bandit, config.eta_target)
        mdp = build_truncated(bandit, L, config.discount)
        mdps.append(mdp)
        init_ids.append(0 if chi is None else nearest_state(mdp.states, chi))
    return PreparedInstance(config=config, mdps=mdps, initial_states=init_ids)


@dataclass
class IndexComputation:
    tables: list[GainIndexTable]
    trace: GradientTrace


def compute_index_tables(prep: PreparedInstance) -> IndexComputation:
    """Gradient search for the optimal multiplier; the tables come from its
    final solve."""
    cfg = prep.config
    problem = make_problem(
        prep.mdps,
        cfg.m,
        cfg.criterion,
        initial_states=prep.initial_states,
        stepsize_c=cfg.gradient_c,
        epsilon=cfg.gradient_epsilon,
        max_iters=cfg.gradient_max_iters,
    )
    trace = gradient_search(problem)
    return IndexComputation(tables=gain_index_tables(problem, trace), trace=trace)


def bound_report(prep: PreparedInstance, lam: float = 0.0) -> list[dict]:
    """Truncation certificates per bandit (value bound at `lam`, average bound)."""
    rows = []
    for bandit, mdp, diag in zip(prep.config.bandits, prep.mdps, prep.diagnostics):
        row = {
            "label": bandit.label,
            "L": mdp.truncation_L,
            "eta_L": diag.eta_L,
            "sigma_L": diag.sigma_L,
            "b_h": diag.b_h,
            "probe_depth": diag.probe_depth,
            "average_bound": average_error_bound(diag),
        }
        if prep.config.criterion == DISCOUNTED:
            row["discounted_bound"] = discounted_error_bound(
                diag, lam, prep.config.discount, bandit.chain.n_states, bandit.success_prob
            )
            row["bound_at_lambda"] = lam
        rows.append(row)
    return rows
