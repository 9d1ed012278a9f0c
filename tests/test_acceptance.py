"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The random instances are seeded and generated once per session; the solved
catalogs are shared across criteria so the whole suite stays well inside its
runtime budgets (10 min for the discounted oracle-gap block, 15 min for the
baseline block).
"""

import json
import shutil
import time
from dataclasses import dataclass

import numpy as np
import pytest

from uoisched import (
    BanditSpec,
    RMABInstance,
    asymptotic_sweep,
    build_truncated,
    choose_truncation,
    discounted_error_bound,
    discounted_horizon,
    gain_indices_average,
    gain_indices_discounted,
    gradient_search,
    joint_solve_average,
    joint_solve_discounted,
    make_problem,
    objective_derivative,
    policy_iteration_discounted,
    simulate,
    solve_average,
    validate_chain,
)
from uoisched.cli import main as cli_main
from uoisched.lagrange import derivative_zero_tol

from conftest import FIG1, derivative, random_bandit


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class SolvedInstance:
    bandits: list
    mdps: list
    trace: object
    tables: list
    sim_mean: float
    sim_stderr: float
    oracle_value: float
    gap: float


def build_instance_params(rng):
    n = int(rng.choice([2, 3]))
    beta = float(rng.choice([0.8, 0.9]))
    rhos = [float(r) for r in rng.choice([0.7, 0.8, 1.0], size=2)]
    chains = [random_bandit(rng, n, f"b{j}", rho=rhos[j], max_eig2=0.75).chain for j in range(2)]
    bandits = [BanditSpec(chains[j], rhos[j], f"b{j}") for j in range(2)]
    return n, beta, bandits


@pytest.fixture(scope="module")
def discounted_catalog():
    rng = np.random.default_rng(1001)
    out = []
    t0 = time.time()
    for i in range(10):
        n, beta, bandits = build_instance_params(rng)
        mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], beta) for b in bandits]
        trace = gradient_search(make_problem(mdps, 1, "discounted"))
        tables = [gain_indices_discounted(m, trace.lambda_star) for m in mdps]
        inst = RMABInstance(bandits, 1, "discounted", beta, seed=500 + i)
        horizon = discounted_horizon(beta, sum(np.log2(b.chain.n_states) for b in bandits))
        res = simulate(inst, "gain_index", horizon=horizon, runs=2000, tables=tables)
        oracle = joint_solve_discounted(mdps, 1)
        out.append(
            SolvedInstance(
                bandits, mdps, trace, tables,
                res.mean, res.stderr, oracle.value,
                (res.mean - oracle.value) / oracle.value,
            )
        )
    return out, time.time() - t0


@pytest.fixture(scope="module")
def average_catalog():
    rng = np.random.default_rng(1001)  # same parameter stream as criterion 1
    out = []
    t0 = time.time()
    for i in range(10):
        n, beta, bandits = build_instance_params(rng)
        mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]
        trace = gradient_search(make_problem(mdps, 1, "average"))
        tables = [gain_indices_average(m, trace.lambda_star) for m in mdps]
        inst = RMABInstance(bandits, 1, "average", 1.0, seed=900 + i)
        res = simulate(inst, "gain_index", horizon=10_000, runs=50, tables=tables)
        oracle = joint_solve_average(mdps, 1, tol=1e-7)
        out.append(
            SolvedInstance(
                bandits, mdps, trace, tables,
                res.mean, res.stderr, oracle.gain,
                (res.mean - oracle.gain) / oracle.gain,
            )
        )
    return out, time.time() - t0


def test_criterion_1_oracle_gap_discounted(discounted_catalog):
    catalog, elapsed = discounted_catalog
    gaps = [abs(s.gap) for s in catalog]
    ok = all(g < 0.02 for g in gaps) and elapsed <= 600
    report(1, ok, f"10 instances, |gap| max {max(gaps):.3%} (< 2%), solved+simulated in {elapsed:.0f}s")


def test_criterion_2_oracle_gap_average(average_catalog):
    catalog, elapsed = average_catalog
    gaps = [abs(s.gap) for s in catalog]
    ok = all(g < 0.02 for g in gaps)
    report(2, ok, f"10 instances, |gap| max {max(gaps):.3%} (< 2%), {elapsed:.0f}s")


def test_criterion_3_exact_derivative_endpoints():
    rng = np.random.default_rng(33)
    worst_d = worst_a = 0.0
    for _ in range(20):
        m_count = int(rng.integers(2, 5))
        channels = int(rng.integers(1, m_count))
        beta = float(rng.choice([0.8, 0.9]))
        bandits = [random_bandit(rng, int(rng.integers(2, 4)), f"b{j}") for j in range(m_count)]
        ls = [choose_truncation(b, 1e-6)[0] for b in bandits]
        disc = make_problem(
            [build_truncated(b, L, beta) for b, L in zip(bandits, ls)], channels, "discounted"
        )
        err_d = abs(objective_derivative(disc, 0.0) - (m_count - channels) / (1 - beta))
        avg = make_problem(
            [build_truncated(b, L, 1.0) for b, L in zip(bandits, ls)], channels, "average"
        )
        err_a = abs(objective_derivative(avg, 0.0) - (m_count - channels))
        worst_d, worst_a = max(worst_d, err_d), max(worst_a, err_a)
    ok = worst_d <= 1e-9 and worst_a <= 1e-9
    report(3, ok, f"20 instances, endpoint errors: discounted {worst_d:.2e}, average {worst_a:.2e} (<= 1e-9)")


def test_criterion_4_value_monotone_concave_in_lambda():
    rng = np.random.default_rng(44)
    ok = True
    detail = []
    for i in range(5):
        beta = float(rng.choice([0.8, 0.9]))
        bandit = random_bandit(rng, int(rng.integers(2, 4)), f"b{i}")
        mdp = build_truncated(bandit, choose_truncation(bandit, 1e-6)[0], beta)
        b_h = np.log2(bandit.chain.n_states)
        grid = np.linspace(0.0, 2 * b_h / (1 - beta), 40)
        values = np.array([policy_iteration_discounted(mdp, lam).values for lam in grid])
        diffs = np.diff(values, axis=0)
        slopes = diffs / np.diff(grid)[:, None]
        ok &= diffs.min() >= -1e-9
        ok &= slopes.min() >= -1e-6 and slopes.max() <= 1 / (1 - beta) + 1e-6
        ok &= bool(np.all(np.diff(slopes, axis=0) <= 1e-6))
        detail.append(f"slope range [{slopes.min():.2e}, {slopes.max():.3f}]")
    report(4, ok, f"5 bandits x 40-point grid: nondecreasing, concave; {detail[0]}")


def test_criterion_5_policy_corners(discounted_catalog, average_catalog):
    d_catalog, _ = discounted_catalog
    a_catalog, _ = average_catalog
    ok = True
    for solved in d_catalog:
        for mdp in solved.mdps:
            ok &= policy_iteration_discounted(mdp, 0.0).actions.min() == 1
            lam, found = 1.0, False
            for _ in range(60):
                if policy_iteration_discounted(mdp, lam).actions.max() == 0:
                    found = True
                    break
                lam *= 2.0
            ok &= found
    rates = []
    for solved in a_catalog:
        for mdp in solved.mdps:
            active = solve_average(mdp, 0.0)
            ok &= active.actions.min() == 1
            rates.append(derivative(mdp, active, 0))
            lam, found = 1.0, False
            for _ in range(60):
                passive = solve_average(mdp, lam)
                if passive.actions.max() == 0:
                    found = True
                    break
                lam *= 2.0
            ok &= found
            rates.append(derivative(mdp, passive, 0))
            ok &= abs(rates[-2] - 1.0) < 1e-12 and abs(rates[-1]) < 1e-12
    report(5, ok, "lambda=0 all-active; all-passive found within 60 doublings; rates exactly 1/0")


def test_criterion_6_truncation_certificates():
    rng = np.random.default_rng(6600)
    beta = 0.9
    ok = True
    worst_ratio = 0.0
    for i in range(5):
        n = int(rng.choice([2, 3]))
        bandit = random_bandit(rng, n, f"b{i}")
        L, diag = choose_truncation(bandit, 1e-3)
        mdp_l = build_truncated(bandit, L, beta)
        mdp_2l = build_truncated(bandit, 2 * L, beta)
        lam_star = gradient_search(make_problem([mdp_l, mdp_l], 1, "discounted")).lambda_star
        ids_l = [0] + [(k - 1) * L + a for k in range(1, n + 1) for a in range(1, L + 1)]
        ids_2l = [0] + [(k - 1) * 2 * L + a for k in range(1, n + 1) for a in range(1, L + 1)]
        avg_l = build_truncated(bandit, L, 1.0)
        avg_2l = build_truncated(bandit, 2 * L, 1.0)
        for lam in (0.0, lam_star / 2, lam_star):
            v_l = policy_iteration_discounted(mdp_l, lam).values
            v_2l = policy_iteration_discounted(mdp_2l, lam).values
            gap = float(np.max(np.abs(v_l[ids_l] - v_2l[ids_2l])))
            bound = discounted_error_bound(diag, lam, beta, n, bandit.success_prob)
            ok &= gap <= bound
            worst_ratio = max(worst_ratio, gap / bound)
            g_gap = abs(solve_average(avg_l, lam).gain - solve_average(avg_2l, lam).gain)
            ok &= g_gap <= diag.sigma_L
    report(6, ok, f"5 bandits x 3 multipliers: value gaps within certificates (worst ratio {worst_ratio:.2e})")


def test_criterion_7_gradient_stopping_certificate(discounted_catalog, average_catalog):
    ok = True
    checked = 0
    for catalog, criterion in ((discounted_catalog[0], "discounted"), (average_catalog[0], "average")):
        for solved in catalog:
            trace = solved.trace
            ok &= trace.stop_reason == "converged"
            ok &= len(trace.iterates) <= 5001
            problem = make_problem(solved.mdps, 1, criterion)
            tol = derivative_zero_tol(problem)
            lam_lo, lam_hi = trace.bracket
            ok &= abs(lam_hi - lam_lo) < problem.epsilon
            if checked < 6:  # dense sweep on a subset to stay fast
                step = max(problem.epsilon / 10, (lam_hi - lam_lo) / 40)
                grid = np.arange(lam_lo, lam_hi + step / 2, step)
                if len(grid) < 2:
                    grid = np.array([lam_lo, lam_hi])
                derivs = np.array([objective_derivative(problem, lam) for lam in grid])
                snapped = np.where(np.abs(derivs) <= tol, 0.0, derivs)
                ok &= bool(np.any(snapped[:-1] * snapped[1:] <= 0.0))
                checked += 1
    report(7, ok, "all 20 searches converged with sign-change brackets < epsilon; dense sweeps confirm")


def test_criterion_8_baseline_ordering():
    rng = np.random.default_rng(8801)
    t0 = time.time()
    wins_myopic = wins_rr = 0
    details = []
    for i in range(10):
        bandits = [
            random_bandit(rng, int(rng.choice([2, 3])), f"b{j}", max_eig2=0.85) for j in range(5)
        ]
        mdps = [build_truncated(b, choose_truncation(b, 1e-6)[0], 1.0) for b in bandits]
        lam = gradient_search(make_problem(mdps, 2, "average")).lambda_star
        tables = [gain_indices_average(m, lam) for m in mdps]
        inst = RMABInstance(bandits, 2, "average", 1.0, seed=3000 + i)
        kw = dict(horizon=10_000, runs=50)
        g = simulate(inst, "gain_index", tables=tables, **kw)
        my = simulate(inst, "myopic", truncation_L=[m.truncation_L for m in mdps], **kw)
        rr = simulate(inst, "round_robin", truncation_L=[m.truncation_L for m in mdps], **kw)
        wins_myopic += g.mean <= my.mean
        wins_rr += g.mean <= rr.mean
        details.append(
            f"gain {g.mean:.4f}±{g.stderr:.4f} myopic {my.mean:.4f}±{my.stderr:.4f} rr {rr.mean:.4f}±{rr.stderr:.4f}"
        )
    elapsed = time.time() - t0
    ok = wins_myopic >= 8 and wins_rr >= 8 and elapsed <= 900
    report(8, ok, f"beats myopic {wins_myopic}/10, round-robin {wins_rr}/10 in {elapsed:.0f}s; e.g. {details[0]}")


def test_criterion_9_asymptotic_gap_shrinks():
    chain_a = validate_chain(FIG1)
    chain_b = validate_chain([[0.9, 0.35], [0.1, 0.65]])
    classes = [
        (build_truncated(BanditSpec(chain_a, 1.0, "ca"), 20, 1.0), 0.5),
        (build_truncated(BanditSpec(chain_b, 0.8, "cb"), 20, 1.0), 0.5),
    ]
    sweep = asymptotic_sweep(classes, alpha=0.5, m_list=[4, 32], runs=30, seed=9090, horizon=10_000)
    by_m = {r.n_bandits: r for r in sweep.rows}
    g4, g32 = by_m[4], by_m[32]
    ok = g32.gap < g4.gap
    report(
        9, ok,
        f"per-bandit gap M=4: {g4.gap:.5f}±{g4.per_bandit_stderr:.5f} -> "
        f"M=32: {g32.gap:.5f}±{g32.per_bandit_stderr:.5f} (shrinks)",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    config = {
        "schema_version": 1,
        "criterion": {"type": "discounted", "beta": 0.9},
        "bandits": [
            {"label": "src-a", "transition": [[0.99, 0.3], [0.01, 0.7]], "rho": 1.0},
            {"label": "src-b", "transition": [[0.95, 0.2], [0.05, 0.8]], "rho": 0.8},
        ],
        "m": 1,
        "truncation": {"mode": "fixed", "L": 15},
        "simulation": {"runs": 25, "horizon": 300, "seed": 42},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    avg_config = dict(config, criterion={"type": "average"})
    avg_config["simulation"] = {"runs": 4, "horizon": 400, "seed": 11}
    cfg_avg = tmp_path / "config_avg.json"
    cfg_avg.write_text(json.dumps(avg_config))
    snapshots = []
    for _ in range(2):
        out = tmp_path / "out"
        if out.exists():
            shutil.rmtree(out)
        assert cli_main(["indices", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        ) == 0
        assert cli_main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        out_avg = tmp_path / "out_avg"
        if out_avg.exists():
            shutil.rmtree(out_avg)
        assert cli_main(
            ["asymptotic", "--config", str(cfg_avg), "--out", str(out_avg),
             "--alpha", "0.5", "--m-list", "4"]
        ) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files.update({f"avg_{p.name}": p.read_bytes() for p in sorted(out_avg.iterdir())})
        snapshots.append(files)
    ok = snapshots[0] == snapshots[1]
    report(10, ok, f"{len(snapshots[0])} output files from all five commands byte-identical across reruns")
