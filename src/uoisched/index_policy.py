"""Gain-index tables and the relaxed-optimal (OR) decision rule.

The index of a belief state X is the activation gain

    W(X) = rho * [ V(TX, lam*) - sum_k x_k V(T_k^1, lam*) ]

with V the optimal value function at the dual optimizer lam* (differential
value Z at lam^a for the average criterion).  TX is read through the
truncated passive successor.  The scheduling policy activates the m largest
indices each slot; the OR rule `or_active` activates where the active
continuation value a does not exceed the passive one r: r - a = beta*W(X) - lam*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .belief_mdp import TruncatedBeliefMDP, state_labels
from .errors import ConfigError
from .lagrange import GradientTrace, LagrangeProblem
from .solvers import ACTIVE_TIE_TOL, AVERAGE, DISCOUNTED, _one_bandit, criterion_of, solve_batch

TABLE_SCHEMA_VERSION = 1


@dataclass
class GainIndexTable:
    bandit_label: str
    criterion: str
    lambda_star: float
    indices: np.ndarray            # (n,) index per truncated state
    values: np.ndarray | None      # value function the indices came from
    beliefs: np.ndarray            # (n, N) belief vector per state
    truncation_L: int


def _indices_from_values(mdp: TruncatedBeliefMDP, values: np.ndarray) -> np.ndarray:
    rho = mdp.bandit.success_prob
    v_tx = values[mdp.passive_next]
    v_reset = mdp.states @ values[mdp.reset_states]
    return rho * (v_tx - v_reset)


def _gain_indices(mdp: TruncatedBeliefMDP, lam: float, policy) -> GainIndexTable:
    return GainIndexTable(
        bandit_label=mdp.bandit.label,
        criterion=criterion_of(mdp.discount),
        lambda_star=float(lam),
        indices=_indices_from_values(mdp, policy.values),
        values=policy.values,
        beliefs=mdp.states,
        truncation_L=mdp.truncation_L,
    )


def _checked_gain_indices(mdp: TruncatedBeliefMDP, lam: float, policy, average: bool, name: str) -> GainIndexTable:
    """Table of `policy`, or of the batch-of-one solve at lam, of an MDP of
    the criterion `name` serves."""
    if lam < 0:
        raise ValueError("lambda_star must be >= 0")
    batch = _one_bandit(mdp, average, name)
    return _gain_indices(mdp, lam, solve_batch(batch, lam).policy(0) if policy is None else policy)


def gain_indices_discounted(mdp: TruncatedBeliefMDP, lambda_star: float, policy=None) -> GainIndexTable:
    """Index table from the optimal value at lambda_star of a discounted MDP."""
    return _checked_gain_indices(mdp, lambda_star, policy, False, "gain_indices_discounted")


def gain_indices_average(mdp: TruncatedBeliefMDP, lambda_a: float, policy=None) -> GainIndexTable:
    """Index table from the differential value at lambda_a of an average-cost MDP."""
    return _checked_gain_indices(mdp, lambda_a, policy, True, "gain_indices_average")


def gain_index_tables(problem: LagrangeProblem, trace: GradientTrace) -> list[GainIndexTable]:
    """One table per bandit of the problem, read off the gradient search's
    own solve at lambda* (no further solve); duplicated bandits share one."""
    sol = trace.solution
    if sol is None:
        raise ValueError("the gradient trace carries no solution at lambda*")
    tables = [_gain_indices(mdp, sol.lam, sol.policy(b)) for b, mdp in enumerate(sol.batch.mdps)]
    return [tables[j] for j in problem.members]


def gain_index_general(transitions_active, transitions_passive, values, state: int) -> float:
    """Index for a general bounded-cost bandit: expected passive value minus
    expected active value.  Reduces to the belief-MDP formula on Eq.-style
    reset/propagate transitions."""
    values = np.asarray(values, dtype=float)
    return float((transitions_passive @ values)[state] - (transitions_active @ values)[state])


def or_active(indices, beta: float, lambda_star: float):
    """The OR rule: True where beta*W >= lambda_star, that is where the
    active continuation value a does not exceed the passive one r (r - a =
    beta*W - lambda_star), with the solvers' tie rule a <= r + ACTIVE_TIE_TOL."""
    return beta * np.asarray(indices) >= lambda_star - ACTIVE_TIE_TOL


def _table_header(table: GainIndexTable, config_hash: str | None) -> dict:
    """The table document without its "states"."""
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "bandit_label": table.bandit_label,
        "criterion": table.criterion,
        "lambda_star": table.lambda_star,
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return doc


def table_to_doc(table: GainIndexTable, config_hash: str | None = None) -> dict:
    """Versioned JSON document: omega is encoded as k = 0, n = 0."""
    labels = state_labels(table.beliefs.shape[1], table.truncation_L)
    return {
        **_table_header(table, config_hash),
        "states": [
            {
                "k": k,
                "n": n,
                "belief": [float(b) for b in table.beliefs[i]],
                "index": float(table.indices[i]),
            }
            for i, (k, n) in enumerate(labels)
        ],
    }


def table_from_doc(doc: dict) -> GainIndexTable:
    if not isinstance(doc, dict):
        raise ConfigError("index table document must be a JSON object")
    allowed = {"schema_version", "bandit_label", "criterion", "lambda_star", "states", "config_hash"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in index table document: {sorted(unknown)}")
    if doc.get("schema_version") != TABLE_SCHEMA_VERSION:
        raise ConfigError(f"unsupported index table schema_version: {doc.get('schema_version')!r}")
    try:
        states = doc["states"]
        labels = [(int(s["k"]), int(s["n"])) for s in states]
        n_chain = max((k for k, _ in labels), default=0)
        l_max = max((n for _, n in labels), default=0)
        if n_chain < 1 or labels != state_labels(n_chain, l_max):
            raise ConfigError(
                f"index table states are not the (k, n) grid of N={n_chain}, L={l_max} in id order"
            )
        if any(len(s["belief"]) != n_chain for s in states):
            raise ConfigError(f"index table beliefs must each have length N={n_chain}")
        indices = np.array([float(s["index"]) for s in states])
        beliefs = np.array([s["belief"] for s in states], dtype=float)
        if not (np.all(np.isfinite(indices)) and np.all(np.isfinite(beliefs))):
            raise ConfigError("index table holds a non-finite index or belief")
        lam, criterion = doc["lambda_star"], doc["criterion"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not (np.isfinite(lam) and lam >= 0):
            raise ConfigError(f"index table document has a malformed field lambda_star: {lam!r} is not finite and >= 0")
        if criterion not in (DISCOUNTED, AVERAGE):
            raise ConfigError(f"index table document has a malformed field criterion: {criterion!r}")
        label = doc["bandit_label"]
        if not isinstance(label, str):
            raise ConfigError(f"index table document has a malformed field bandit_label: {label!r} is not a string")
        return GainIndexTable(
            bandit_label=label,
            criterion=criterion,
            lambda_star=float(lam),
            indices=indices,
            values=None,
            beliefs=beliefs,
            truncation_L=l_max,
        )
    except KeyError as exc:
        raise ConfigError(f"index table document lacks field {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"index table document has a malformed field: {exc}") from exc


# json's spelling of the floats whose repr is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def save_table(table: GainIndexTable, path, config_hash: str | None = None) -> None:
    """Write exactly `json.dumps(table_to_doc(table, config_hash), indent=2,
    sort_keys=True)` and a newline.  json's encoder runs in Python once
    indent is set, so only the header goes through it; "states" sorts
    last, and each state is one %-template, with every float in json's own
    text (its repr, or NaN, Infinity, -Infinity)."""
    header = json.dumps(_table_header(table, config_hash), indent=2, sort_keys=True)
    n_chain = table.beliefs.shape[1]
    values = np.column_stack([table.beliefs, table.indices])
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        texts = [_NON_FINITE.get(t, t) for t in texts]
    belief = ",\n".join(["        %s"] * n_chain)
    state = f'    {{\n      "belief": [\n{belief}\n      ],\n      "index": %s,\n      "k": %d,\n      "n": %d\n    }}'
    per = n_chain + 1
    states = ",\n".join([
        state % (*texts[i * per:(i + 1) * per], k, n)
        for i, (k, n) in enumerate(state_labels(n_chain, table.truncation_L))
    ])
    with open(path, "w") as fh:
        fh.write(f'{header[:-2]},\n  "states": [\n{states}\n  ]\n}}\n')


def load_table(path) -> GainIndexTable:
    """Read an index table file; a malformed one raises ConfigError naming the file."""
    with open(path) as fh:
        try:
            return table_from_doc(json.load(fh))
        except ValueError as exc:  # ConfigError and json.JSONDecodeError among them
            raise ConfigError(f"{path}: {exc}") from exc
