"""Command-line pipeline: indices | simulate | oracle | asymptotic | bound.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 resource limit.
All output files carry schema_version and the hash of the resolved config;
JSON is the authoritative format, CSV summaries are plot-ready.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .config import CONFIG_SCHEMA_VERSION, load_config
from .errors import (
    ConfigError,
    SolverError,
    StateSpaceTooLarge,
    TruncationTooDeep,
    UoiSchedError,
)
from .index_policy import load_table, save_table
from .oracle import joint_solve_average, joint_solve_discounted
from .simulate import POLICIES, asymptotic_sweep, simulate, sweep_plans
from .solvers import AVERAGE, DISCOUNTED
from .workflows import bound_report, compute_index_tables, prepare

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4


def _write_json(path: Path, doc: dict, config_hash: str) -> None:
    doc = {"schema_version": CONFIG_SCHEMA_VERSION, "config_hash": config_hash, **doc}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], config_hash: str) -> None:
    lines = [f"# schema_version={CONFIG_SCHEMA_VERSION} config_hash={config_hash}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _out_dir(args, config) -> Path:
    out = args.out or config.outputs or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(config, out: Path) -> str:
    h = config.config_hash()
    _write_json(out / "config_echo.json", {"config": config.resolved}, h)
    return h


def _prepared(args, compute):
    """Load the config and apply --seed, prepare the instance (which writes
    nothing) and run `compute(args, prep)`, the command's checks and its
    work; only then create the out dir and echo the config there, so a
    command that fails leaves the out dir as it was: (prepared instance,
    out dir, config hash, computed, wall time of prepare)."""
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.override_seed(args.seed)
    t0 = time.perf_counter()
    prep = prepare(config)
    prepare_s = time.perf_counter() - t0
    computed = compute(args, prep)
    out = _out_dir(args, config)
    h = _echo_config(config, out)
    return prep, out, h, computed, prepare_s


def _timed_index_tables(args, prep):
    """The gradient search and its tables, run before anything is written
    (a search that fails exits 3 with the out dir untouched), and its wall
    time."""
    t0 = time.perf_counter()
    result = compute_index_tables(prep)
    return result, time.perf_counter() - t0


def cmd_indices(args) -> int:
    prep, out, h, (result, seconds), prepare_s = _prepared(args, _timed_index_tables)
    trace = result.trace

    t0 = time.perf_counter()
    for table in result.tables:
        save_table(table, out / f"indices_{table.bandit_label}.json", h)
    _write_csv(
        out / "gradient_trace.csv",
        ["iteration", "lambda", "derivative"],
        [[k, lam, d] for k, (lam, d) in enumerate(trace.iterates)],
        h,
    )
    _write_json(
        out / "truncation_report.json",
        {"bandits": bound_report(prep, lam=trace.lambda_star)},
        h,
    )
    _write_json(
        out / "lambda_report.json",
        {
            "lambda_star": trace.lambda_star,
            "stop_reason": trace.stop_reason,
            "bracket": list(trace.bracket),
            "iterations": len(trace.iterates),
            "policy_evaluations": trace.policy_evaluations,
            "pi_rounds": trace.pi_rounds,
            "solves_skipped": trace.solves_skipped,
        },
        h,
    )
    write_s = time.perf_counter() - t0
    # the stage times go to stdout only (in out/ they would break
    # byte-identical reruns), with the solver work the search paid for
    print(f"lambda_star = {trace.lambda_star:.6g} ({len(trace.iterates)} gradient evaluations)")
    print(
        f"gradient search: {seconds:.3g} s, {trace.policy_evaluations:,} policy evaluations in "
        f"{trace.pi_rounds:,} policy-iteration rounds, {trace.solves_skipped:,} solves skipped"
    )
    print(f"prepare (truncation and MDP build): {prepare_s:.3g} s, writing the outputs: {write_s:.3g} s")
    print(f"wrote {len(result.tables)} index tables to {out}")
    return EXIT_OK


def _simulated_sources(config) -> dict:
    """The resolved config sections a simulation result was computed from and
    must match when it is compared with an oracle (the config hash also
    covers the seed and the simulation fields, which may differ)."""
    return {key: config.resolved[key] for key in ("bandits", "truncation")}


def _simulation_tables(args, prep):
    """The --tables files, one per bandit in config order (gain_index only);
    `simulate` checks each against its bandit's truncated MDP."""
    config = prep.config
    if args.policy != "gain_index":
        if args.tables:
            raise ConfigError(f"--tables applies to policy 'gain_index' only, not {args.policy!r}")
        return None
    if not args.tables:
        raise ConfigError(f"policy {args.policy!r} requires --tables with one file per bandit")
    by_label = {}
    for path in args.tables:
        try:
            table = load_table(path)
        except FileNotFoundError as exc:
            raise ConfigError(f"index table file not found: {exc.filename}") from exc
        if table.bandit_label in by_label:
            raise ConfigError(f"{path}: a second index table for bandit {table.bandit_label!r}")
        by_label[table.bandit_label] = table
    labels = [b.label for b in config.bandits]
    if sorted(by_label) != sorted(labels):
        raise ConfigError(f"--tables holds index tables for bandits {sorted(by_label)}, the config has {labels}")
    return [by_label[label] for label in labels]


def _simulation(args, prep):
    """`simulate` on the --tables files (`_simulation_tables`), run before
    anything is written: (result, wall time of the simulation)."""
    tables = _simulation_tables(args, prep)
    config = prep.config
    t0 = time.perf_counter()
    res = simulate(
        config.build_instance(), args.policy, config.horizon, config.runs,
        tables=tables, truncation_L=prep.l_per_bandit, burn_in=config.burn_in,
    )
    return res, time.perf_counter() - t0


def cmd_simulate(args) -> int:
    prep, out, h, (res, seconds), _ = _prepared(args, _simulation)
    config = prep.config
    _write_json(out / f"sim_{args.policy}.json", {"result": res.to_json_dict(), **_simulated_sources(config)}, h)
    _write_csv(
        out / "sim_summary.csv",
        ["policy", "M", "m", "criterion", "mean", "stderr", "runs", "horizon", "seed"],
        [[res.policy, res.n_bandits, res.m, res.criterion, res.mean, res.stderr, res.runs, res.horizon, res.seed]],
        h,
    )
    # throughput goes to stdout only: a wall-clock rate in out/ would break
    # byte-identical reruns; the walk steps are the work behind it, and they
    # and the parts (processes) the runs were cut into follow the host's CPUs
    bandit_slots = res.n_bandits * res.runs * res.horizon
    print(
        f"{args.policy}: mean = {res.mean:.6g}, stderr = {res.stderr:.3g} ({res.runs} runs, "
        f"{bandit_slots:,} bandit-slots at {bandit_slots / seconds:.3g} bandit-slots/s, "
        f"{res.walk_steps:,} walk steps in {res.parts} part{'s' * (res.parts > 1)})"
    )
    return EXIT_OK


def _policy_result(args, prep) -> tuple[float, float] | None:
    """Mean and its standard error from the --policy-result file, if any,
    after checking it was simulated on the same problem as the config
    (criterion, discount, M, m, and the sources and truncation it recorded)."""
    path = args.policy_result
    if not path:
        return None
    config = prep.config
    try:
        with open(path) as fh:
            doc = json.load(fh)
        result = doc["result"]
        mean, stderr = result["mean"], result["stderr"]
    except FileNotFoundError as exc:
        raise ConfigError(f"policy result file not found: {exc.filename}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a simulation result document") from exc
    # json reads NaN and Infinity; type() also keeps out bools and strings
    if not all(type(v) in (int, float) and math.isfinite(v) for v in (mean, stderr)) or stderr < 0:
        raise ConfigError(f"{path}: mean {mean!r} and stderr {stderr!r} must be finite numbers, stderr >= 0")
    expected = {
        "criterion": config.criterion,
        "discount": config.discount,
        "n_bandits": len(config.bandits),
        "m": config.m,
    }
    mismatched = [f"{k} {result.get(k)!r} != {v!r}" for k, v in expected.items() if result.get(k) != v]
    mismatched += [
        f"{k} {'missing' if k not in doc else 'differ from the config'}"
        for k, v in _simulated_sources(config).items()
        if doc.get(k) != v
    ]
    if mismatched:
        raise ConfigError(f"{path} was not simulated on this config: {', '.join(mismatched)}")
    return float(mean), float(stderr)


def _joint_solve(args, prep):
    """The --policy-result check (`_policy_result`), then the joint solve, run
    before anything is written (a joint space over the cap exits 4 and a
    solve that does not converge exits 3, both with the out dir untouched):
    (oracle result, policy mean and stderr or None)."""
    policy = _policy_result(args, prep)
    config = prep.config
    if config.criterion == DISCOUNTED:
        res = joint_solve_discounted(prep.mdps, config.m, tol=1e-8, initial_states=prep.initial_states)
    else:
        res = joint_solve_average(prep.mdps, config.m, tol=1e-8)
    return res, policy


def cmd_oracle(args) -> int:
    prep, out, h, (res, policy), _ = _prepared(args, _joint_solve)
    config = prep.config
    doc = {
        "criterion": config.criterion,
        "value": res.value,
        "n_joint_states": res.joint.n_joint,
        "sweeps": res.sweeps,
        "value_bounds": list(res.bounds),
        "initial_states": prep.initial_states,
    }
    if policy is not None:
        policy_mean, policy_stderr = policy
        doc["gap"] = {
            "oracle": res.value,
            "policy": policy_mean,
            "policy_stderr": policy_stderr,
            "relative_gap": (policy_mean - res.value) / res.value if res.value != 0 else 0.0,
            "relative_gap_stderr": policy_stderr / abs(res.value) if res.value != 0 else 0.0,
        }
    _write_json(out / "oracle.json", doc, h)
    # the row blocks follow the host's CPUs, so they go to stdout only
    print(
        f"oracle {config.criterion} value = {res.value:.8g} ({res.sweeps} sweeps over "
        f"{res.joint.n_joint:,} joint states in {res.blocks} row block{'s' * (res.blocks > 1)})"
    )
    if "gap" in doc:
        gap = doc["gap"]
        print(
            f"relative gap of referenced policy = {gap['relative_gap']:.4%} "
            f"± {gap['relative_gap_stderr']:.4%} (s.e.)"
        )
    return EXIT_OK


def _sweep_plan(args, prep) -> list[int]:
    """The population sizes of --m-list, once the sweep's plan checks pass
    on them (`sweep_plans`) and no bandit has an initial belief: the sweep
    starts every class at the equilibrium belief."""
    try:
        m_list = [int(v) for v in args.m_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--m-list: expected comma-separated integers, got {args.m_list!r}") from exc
    if not m_list:
        raise ConfigError("--m-list: at least one population size required")
    config = prep.config
    given = [b.label for b, chi in zip(config.bandits, config.initial_beliefs) if chi is not None]
    if given:
        raise ConfigError(
            f"asymptotic starts every class at the equilibrium belief; remove initial_belief from {', '.join(given)}"
        )
    labels = [b.label for b in config.bandits]
    sweep_plans(labels, [1.0 / len(labels)] * len(labels), args.alpha, m_list)  # each bandit a class, as below
    return m_list


def _sweep(args, prep):
    """The population sweep over --m-list (`_sweep_plan`), run before
    anything is written (a class search that fails exits 3 with the out
    dir untouched)."""
    m_list = _sweep_plan(args, prep)
    config = prep.config
    return asymptotic_sweep(
        [(mdp, 1.0 / len(prep.mdps)) for mdp in prep.mdps],
        alpha=args.alpha,
        m_list=m_list,
        runs=config.runs,
        seed=config.seed,
        horizon=config.horizon if config.criterion == AVERAGE else None,
        burn_in=config.burn_in,
        gradient_opts={
            "stepsize_c": config.gradient_c,
            "epsilon": config.gradient_epsilon,
            "max_iters": config.gradient_max_iters,
        },
    )


def cmd_asymptotic(args) -> int:
    _, out, h, sweep, _ = _prepared(args, _sweep)
    _write_json(out / "asymptotic.json", {"sweep": sweep.to_json_dict()}, h)
    _write_csv(
        out / "asymptotic.csv",
        ["M", "m", "per_bandit_cost", "per_bandit_stderr", "per_bandit_bound", "gap"],
        [
            [r.n_bandits, r.m, r.per_bandit_cost, r.per_bandit_stderr, r.per_bandit_bound, r.gap]
            for r in sweep.rows
        ],
        h,
    )
    for r in sweep.rows:
        print(
            f"M={r.n_bandits:4d} m={r.m:3d}: per-bandit cost {r.per_bandit_cost:.6g} "
            f"(± {r.per_bandit_stderr:.2g}), bound {r.per_bandit_bound:.6g}, gap {r.gap:.6g}"
        )
    return EXIT_OK


def cmd_bound(args) -> int:
    config = load_config(args.config)
    prep = prepare(config)
    rows = bound_report(prep)
    for row in rows:
        line = (
            f"{row['label']}: L={row['L']} eta_L={row['eta_L']:.3g} sigma_L={row['sigma_L']:.3g}"
            f" average_bound={row['average_bound']:.3g}"
        )
        if config.criterion == DISCOUNTED:
            line += f" discounted_bound(lambda=0)={row['discounted_bound']:.3g}"
        print(line)
    if args.out:
        out = _out_dir(args, config)
        h = _echo_config(config, out)
        _write_json(out / "bounds.json", {"bandits": rows}, h)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use:
    parsing leaves no state in it and no command changes its args. Each
    `func` looks its cmd_* up when called, so one replaced after the build
    (a tracer's timing wrapper, a test's stub) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="uoisched",
        description="Gain-index scheduling pipeline for uncertainty-of-information minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (default: config outputs or ./out)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override simulation.seed")

    p = sub.add_parser("indices", help="compute lambda* and per-bandit gain-index tables")
    add_common(p)
    p.set_defaults(func=lambda args: cmd_indices(args))

    p = sub.add_parser("simulate", help="simulate a scheduling policy")
    add_common(p)
    p.add_argument("--policy", required=True, choices=POLICIES)
    p.add_argument(
        "--tables", nargs="*", default=(),
        help="index table files from `indices` on this config, one per bandit (gain_index)",
    )
    p.set_defaults(func=lambda args: cmd_simulate(args))

    p = sub.add_parser("oracle", help="exact joint solve (small M)")
    add_common(p, seed=False)
    p.add_argument("--policy-result", default=None, help="sim result JSON to report a relative gap for")
    p.set_defaults(func=lambda args: cmd_oracle(args))

    p = sub.add_parser("asymptotic", help="population sweep at fixed channel ratio alpha")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True, help="channel ratio m/M")
    p.add_argument("--m-list", required=True, help="comma-separated population sizes M")
    p.set_defaults(func=lambda args: cmd_asymptotic(args))

    p = sub.add_parser("bound", help="print truncation error certificates")
    add_common(p, seed=False)
    p.set_defaults(func=lambda args: cmd_bound(args))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StateSpaceTooLarge, TruncationTooDeep) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UoiSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
