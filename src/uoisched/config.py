"""Strict experiment configuration: parsing, defaults, and hashing.

Unknown fields are rejected anywhere in the document and error messages name
the offending field or bandit.  The resolved configuration (all defaults
filled in) is what gets echoed into output directories and hashed into every
output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .belief_mdp import BanditSpec
from .errors import ChainError, ConfigError
from .markov import validate_chain
from .simulate import RMABInstance, discounted_horizon
from .solvers import AVERAGE, DISCOUNTED

CONFIG_SCHEMA_VERSION = 1


def _require_keys(section, path: str, required: set, optional: set):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{path}: missing required field(s) {sorted(missing)}")


def _as_number(value, path, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):  # json reads NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass
class ExperimentConfig:
    criterion: str
    discount: float                 # 1.0 for average
    bandits: list[BanditSpec]
    initial_beliefs: list           # per bandit, None for the equilibrium default
    m: int
    truncation_mode: str            # 'fixed' | 'auto'
    truncation_L: int | None
    eta_target: float | None
    gradient_c: float | None        # None -> scale-aware default at solve time
    gradient_epsilon: float | None
    gradient_max_iters: int
    runs: int
    horizon: int
    seed: int
    burn_in: int | None
    outputs: str | None
    resolved: dict                  # canonical defaults-filled document

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def override_seed(self, seed: int) -> None:
        """Replace simulation.seed, under the rule `parse_config` applies to it."""
        self.seed = _as_number(seed, "simulation.seed", lo=0, hi=2 ** 64 - 1, integer=True)
        self.resolved["simulation"]["seed"] = self.seed

    def build_instance(self) -> RMABInstance:
        return RMABInstance(
            bandits=self.bandits,
            m=self.m,
            criterion=self.criterion,
            discount=self.discount,
            initial_beliefs=self.initial_beliefs if any(b is not None for b in self.initial_beliefs) else None,
            seed=self.seed,
        )


def parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(
        doc,
        "config",
        required={"schema_version", "criterion", "bandits", "m"},
        optional={"truncation", "gradient", "simulation", "outputs"},
    )
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported value {doc['schema_version']!r}")

    crit = doc["criterion"]
    _require_keys(crit, "criterion", required={"type"}, optional={"beta"})
    ctype = crit["type"]
    if ctype == DISCOUNTED:
        if "beta" not in crit:
            raise ConfigError("criterion.beta: required for the discounted criterion")
        beta = _as_number(crit["beta"], "criterion.beta", lo=0.0)
        if beta >= 1.0:
            raise ConfigError(f"criterion.beta: must be < 1, got {beta}")
    elif ctype == AVERAGE:
        if "beta" in crit:
            raise ConfigError("criterion.beta: not allowed for the average criterion")
        beta = 1.0
    else:
        raise ConfigError(f"criterion.type: expected 'discounted' or 'average', got {ctype!r}")

    raw_bandits = doc["bandits"]
    if not isinstance(raw_bandits, list) or len(raw_bandits) < 2:
        raise ConfigError("bandits: expected a list of at least 2 bandits")
    bandits, initial_beliefs = [], []
    labels = set()
    for i, b in enumerate(raw_bandits):
        path = f"bandits[{i}]"
        _require_keys(b, path, required={"label", "transition", "rho"}, optional={"initial_belief"})
        label = b["label"]
        if not isinstance(label, str) or not label:
            raise ConfigError(f"{path}.label: expected a non-empty string")
        if label in labels:
            raise ConfigError(f"{path}.label: duplicate label {label!r}")
        labels.add(label)
        try:
            chain = validate_chain(b["transition"])
        except ChainError as exc:
            raise ConfigError(f"{path}.transition (bandit {label!r}): {exc}") from exc
        rho = _as_number(b["rho"], f"{path}.rho", lo=0.0, hi=1.0)
        if rho <= 0.0:
            raise ConfigError(f"{path}.rho: must be in (0, 1], got {rho}")
        chi = None
        if "initial_belief" in b:
            chi = np.asarray(b["initial_belief"], dtype=float)
            if chi.shape != (chain.n_states,):
                raise ConfigError(f"{path}.initial_belief: expected {chain.n_states} entries")
            if not np.all(np.isfinite(chi)):
                raise ConfigError(f"{path}.initial_belief: entries must be finite")
            if np.any(chi < 0) or abs(chi.sum() - 1.0) > 1e-9:
                raise ConfigError(f"{path}.initial_belief: not a probability vector")
            chi = chi / chi.sum()
        bandits.append(BanditSpec(chain=chain, success_prob=rho, label=label))
        initial_beliefs.append(chi)

    m = _as_number(doc["m"], "m", integer=True)
    if not 1 <= m < len(bandits):
        raise ConfigError(f"m: need 1 <= m < M = {len(bandits)}, got {m}")

    trunc = doc.get("truncation", {"mode": "auto", "eta_target": 1e-6})
    _require_keys(trunc, "truncation", required={"mode"}, optional={"L", "eta_target"})
    mode = trunc["mode"]
    if mode not in ("fixed", "auto"):
        raise ConfigError(f"truncation.mode: expected 'fixed' or 'auto', got {mode!r}")
    other = "eta_target" if mode == "fixed" else "L"
    if other in trunc:
        raise ConfigError(f"truncation.{other}: not allowed in {mode} mode")
    trunc_l, eta = None, None
    if mode == "fixed":
        if "L" not in trunc:
            raise ConfigError("truncation.L: required for fixed mode")
        trunc_l = _as_number(trunc["L"], "truncation.L", lo=1, integer=True)
    else:
        eta = _as_number(trunc.get("eta_target", 1e-6), "truncation.eta_target", lo=0.0)
        if eta == 0.0:
            raise ConfigError("truncation.eta_target: must be > 0")

    grad = doc.get("gradient", {})
    _require_keys(grad, "gradient", required=set(), optional={"c", "epsilon", "max_iters"})
    grad_c = _as_number(grad["c"], "gradient.c", lo=0.0) if "c" in grad else None
    if grad_c == 0.0:
        raise ConfigError("gradient.c: must be > 0")
    grad_eps = _as_number(grad["epsilon"], "gradient.epsilon", lo=0.0) if "epsilon" in grad else None
    if grad_eps == 0.0:
        raise ConfigError("gradient.epsilon: must be > 0")
    grad_iters = _as_number(grad.get("max_iters", 5000), "gradient.max_iters", lo=1, integer=True)

    sim = doc.get("simulation", {})
    _require_keys(sim, "simulation", required=set(), optional={"runs", "horizon", "seed", "burn_in"})
    runs = _as_number(sim.get("runs", 50), "simulation.runs", lo=1, integer=True)
    seed = _as_number(sim.get("seed", 0), "simulation.seed", lo=0, hi=2 ** 64 - 1, integer=True)
    if "horizon" in sim:
        horizon = _as_number(sim["horizon"], "simulation.horizon", lo=1, integer=True)
    elif ctype == DISCOUNTED:
        total_bh = sum(np.log2(b.chain.n_states) for b in bandits)
        horizon = discounted_horizon(beta, total_bh)
    else:
        horizon = 100_000
    burn_in = None
    if "burn_in" in sim:
        if ctype == DISCOUNTED:
            raise ConfigError("simulation.burn_in: not allowed for the discounted criterion")
        burn_in = _as_number(sim["burn_in"], "simulation.burn_in", lo=0, integer=True)
        if burn_in >= horizon:
            raise ConfigError("simulation.burn_in: must be smaller than the horizon")

    outputs = doc.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigError("outputs: expected a string path")

    resolved = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "criterion": {"type": ctype, **({"beta": beta} if ctype == DISCOUNTED else {})},
        "bandits": [
            {
                "label": b.label,
                "transition": [[float(v) for v in row] for row in b.chain.transition],
                "rho": b.success_prob,
                **(
                    {"initial_belief": [float(v) for v in chi]}
                    if chi is not None
                    else {}
                ),
            }
            for b, chi in zip(bandits, initial_beliefs)
        ],
        "m": m,
        "truncation": (
            {"mode": "fixed", "L": trunc_l} if mode == "fixed" else {"mode": "auto", "eta_target": eta}
        ),
        "gradient": {
            **({"c": grad_c} if grad_c is not None else {}),
            **({"epsilon": grad_eps} if grad_eps is not None else {}),
            "max_iters": grad_iters,
        },
        "simulation": {
            "runs": runs,
            "horizon": horizon,
            "seed": seed,
            **({"burn_in": burn_in} if burn_in is not None else {}),
        },
        **({"outputs": outputs} if outputs is not None else {}),
    }
    return ExperimentConfig(
        criterion=ctype,
        discount=beta,
        bandits=bandits,
        initial_beliefs=initial_beliefs,
        m=m,
        truncation_mode=mode,
        truncation_L=trunc_l,
        eta_target=eta,
        gradient_c=grad_c,
        gradient_epsilon=grad_eps,
        gradient_max_iters=grad_iters,
        runs=runs,
        horizon=horizon,
        seed=seed,
        burn_in=burn_in,
        outputs=outputs,
        resolved=resolved,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc)
