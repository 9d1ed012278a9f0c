import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uoisched
from uoisched import joint_solve_discounted
from uoisched.cli import main
from uoisched.config import load_config, parse_config
from uoisched.errors import ConfigError
from uoisched.workflows import prepare

FAST_CONFIG = {
    "schema_version": 1,
    "criterion": {"type": "discounted", "beta": 0.9},
    "bandits": [
        {"label": "src-a", "transition": [[0.99, 0.3], [0.01, 0.7]], "rho": 1.0},
        {"label": "src-b", "transition": [[0.95, 0.2], [0.05, 0.8]], "rho": 0.8},
    ],
    "m": 1,
    "truncation": {"mode": "fixed", "L": 12},
    "simulation": {"runs": 20, "horizon": 200, "seed": 7},
}


REPO = Path(__file__).resolve().parents[1]

# sha256 of asymptotic.json and asymptotic.csv from `asymptotic --alpha 0.5
# --m-list 2,4` on each sample config with runs cut to 4
SAMPLE_SWEEP_SHA256 = {
    "two_sources_average": (
        "8cf075b1988071ff4b223e63629ed8af96f4131d9c006c67dd2b582250724132",
        "1443314eb854784f6d54d5c0a39888c5605e9d251851cbc4305fa26c3f6bed06",
    ),
    "two_sources_discounted": (
        "beb97edfb18c4a3a1828fdd2b36531d458181aa25ea421339ad6080388fe5b3e",
        "24aca9c862628af67a8c089710aa6036a4fc32ce1a11482ebcce958418b29bcb",
    ),
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_indices(tmp_path, doc=FAST_CONFIG, out="out"):
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / out
    code = main(["indices", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    return cfg, out_dir


class TestIndicesCommand:
    def test_sample_config_produces_tables_and_trace(self, tmp_path):
        _, out = run_indices(tmp_path)
        assert (out / "indices_src-a.json").exists()
        assert (out / "indices_src-b.json").exists()
        trace = (out / "gradient_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# schema_version=1 config_hash=")
        assert trace[1] == "iteration,lambda,derivative"
        assert len(trace) > 3
        report = json.loads((out / "lambda_report.json").read_text())
        assert report["stop_reason"] == "converged"
        assert report["lambda_star"] >= 0

    def test_lambda_report_counts_solver_work(self, tmp_path):
        _, out = run_indices(tmp_path)
        report = json.loads((out / "lambda_report.json").read_text())
        counts = ("iterations", "solves_skipped", "pi_rounds", "policy_evaluations")
        # pi_rounds and policy_evaluations were 19 and 38 while each discounted
        # solve started from the last solve's policy and not from its values
        assert tuple(report[key] for key in counts) == (39, 32, 12, 24)
        assert "fallbacks" not in report and "rvi_sweeps" not in report
        # 7 iterates are solved, each by at least one round of batched policy
        # iteration, which evaluates both bandits once
        solved = report["iterations"] - report["solves_skipped"]
        assert report["pi_rounds"] >= solved
        assert report["policy_evaluations"] == 2 * report["pi_rounds"]

    def test_average_sample_config_is_solved_by_policy_iteration(self, tmp_path):
        out = tmp_path / "o"
        assert main(["indices", "--config", "configs/two_sources_average.json", "--out", str(out)]) == 0
        report = json.loads((out / "lambda_report.json").read_text())
        counts = ("iterations", "solves_skipped", "pi_rounds")
        assert tuple(report[key] for key in counts) == (27, 20, 19)
        assert report["pi_rounds"] >= report["iterations"] - report["solves_skipped"]
        assert report["policy_evaluations"] == 2 * report["pi_rounds"]

    def test_repo_sample_config_smoke(self, tmp_path):
        code = main(
            ["indices", "--config", "configs/two_sources_discounted.json", "--out", str(tmp_path / "o")]
        )
        assert code == 0

    def test_m_equal_to_bandit_count_exits_2(self, tmp_path):
        doc = dict(FAST_CONFIG, m=2)
        cfg = write_config(tmp_path, doc)
        assert main(["indices", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # a step of 1e-9 cannot close the bracket in one iteration
        doc = dict(FAST_CONFIG, gradient={"c": 1e-9, "max_iters": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["indices", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: gradient search did not meet the stopping criterion in 1 iterations")

    def test_unknown_field_exits_2_and_names_it(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG)
        doc["bandits"] = [dict(doc["bandits"][0], surprise=1), doc["bandits"][1]]
        cfg = write_config(tmp_path, doc)
        assert main(["indices", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "surprise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("simulation", "runs", float("inf")),
            ("truncation", "L", float("inf")),
            ("gradient", "c", float("nan")),
            ("truncation", "eta_target", float("inf")),
        ],
    )
    def test_non_finite_number_exits_2_and_names_it(self, tmp_path, capsys, section, field, value):
        doc = dict(FAST_CONFIG)
        doc[section] = dict(doc.get(section, {}), **{field: value})
        if field == "eta_target":
            doc[section]["mode"] = "auto"
            del doc[section]["L"]
        cfg = write_config(tmp_path, doc)  # json writes the literals NaN and Infinity
        assert main(["indices", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, fields, named",
        [
            ("truncation", {"mode": "auto", "eta_target": 1e-6, "L": 3}, "truncation.L"),
            ("truncation", {"mode": "fixed", "L": 12, "eta_target": 1e-6}, "truncation.eta_target"),
            ("truncation", {"mode": "adaptive", "L": 3}, "truncation.mode"),
            ("simulation", {"runs": 20, "horizon": 200, "seed": 7, "burn_in": 7}, "simulation.burn_in"),
        ],
        ids=["L_in_auto_mode", "eta_target_in_fixed_mode", "unknown_mode_first", "discounted_burn_in"],
    )
    def test_field_the_config_would_ignore_exits_2_and_names_it(self, tmp_path, capsys, section, fields, named):
        cfg = write_config(tmp_path, dict(FAST_CONFIG, **{section: fields}))
        assert main(["indices", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["criterion", "bandits[0]", "truncation", "gradient", "simulation"])
    def test_section_that_is_not_an_object_exits_2_and_names_it(self, tmp_path, capsys, section):
        doc = json.loads(json.dumps(FAST_CONFIG))
        if section == "bandits[0]":
            doc["bandits"][0] = 5
        else:
            doc[section] = 5
        cfg = write_config(tmp_path, doc)
        assert main(["bound", "--config", cfg]) == 2
        assert f"{section}: expected an object" in capsys.readouterr().err

    def test_non_finite_initial_belief_exits_2(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG)
        doc["bandits"] = [dict(doc["bandits"][0], initial_belief=[float("nan")] * 2), doc["bandits"][1]]
        cfg = write_config(tmp_path, doc)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bandits[0].initial_belief" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, out = run_indices(tmp_path)
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert main(["indices", "--config", cfg, "--out", str(out)]) == 0
        for p in out.iterdir():
            assert p.read_bytes() == snapshot[p.name], p.name


class TestSimulateCommand:
    def test_round_robin_needs_no_tables(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--policy", "round_robin"]) == 0
        doc = json.loads((out / "sim_round_robin.json").read_text())
        res = doc["result"]
        assert res["policy"] == "round_robin"
        assert res["mean"] == pytest.approx(float(np.mean(res["per_run"])), abs=1e-12)

    def test_prints_mean_stderr_and_throughput(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--policy", "round_robin"]) == 0
        res = json.loads((out / "sim_round_robin.json").read_text())["result"]
        line = capsys.readouterr().out.strip().splitlines()[-1]
        match = re.fullmatch(
            r"round_robin: mean = (\S+), stderr = (\S+) \((\d+) runs, ([\d,]+) bandit-slots at (\S+) bandit-slots/s, "
            r"([\d,]+) walk steps in (\d+) parts?\)",
            line,
        )
        assert match, line
        assert float(match[1]) == pytest.approx(res["mean"], rel=1e-5)
        assert int(match[3]) == res["runs"]
        assert int(match[4].replace(",", "")) == res["n_bandits"] * res["runs"] * res["horizon"]
        assert float(match[5]) > 0
        # the walk steps and the parts are counts of work, kept out of the result document
        assert int(match[6].replace(",", "")) > 0 and "walk_steps" not in json.dumps(res)
        assert match[7] == "1" and "parts" not in json.dumps(res)
        # the rate is wall-clock, so it stays out of the output files
        assert "bandit_slots" not in json.dumps(res) and "bandit-slots" not in (out / "sim_summary.csv").read_text()

    def test_output_files_do_not_depend_on_the_parts(self, tmp_path, capsys, monkeypatch):
        """The runs cut across two processes write the same bytes as one."""
        cfg = write_config(tmp_path, FAST_CONFIG)
        monkeypatch.setattr(importlib.import_module("uoisched.simulate"), "_PART_BSLOTS", 1)
        written = {}
        for parts in (1, 2):
            monkeypatch.setattr(uoisched.parallel, "usable_cpus", lambda: parts)
            out = tmp_path / f"o{parts}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--policy", "myopic"]) == 0
            assert capsys.readouterr().out.endswith(f"walk steps in {parts} part{'s' * (parts > 1)})\n")
            written[parts] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert written[1] == written[2]

    def test_gain_index_without_tables_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index"]) == 2

    def test_missing_table_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
             "--policy", "gain_index", "--tables", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_tables_with_a_baseline_policy_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        for policy in ("myopic", "round_robin"):
            code = main(
                ["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--policy", policy, "--tables", str(tmp_path / "nonexistent.json")]
            )
            assert code == 2
            assert "gain_index" in capsys.readouterr().err

    def test_full_pipeline_with_tables(self, tmp_path):
        cfg, out = run_indices(tmp_path)
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        )
        assert code == 0
        summary = (out / "sim_summary.csv").read_text().splitlines()
        assert summary[1] == "policy,M,m,criterion,mean,stderr,runs,horizon,seed"
        row = summary[2].split(",")
        assert row[0] == "gain_index" and row[1] == "2" and row[2] == "1"

    def test_tables_from_another_chain_exit_2(self, tmp_path):
        # same labels and truncation, different chain for src-b: stale tables
        _, out = run_indices(tmp_path)
        other = json.loads(json.dumps(FAST_CONFIG))
        other["bandits"][1]["transition"] = [[0.9, 0.2], [0.1, 0.8]]
        cfg = write_config(tmp_path, other, name="other.json")
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        )
        assert code == 2

    def test_tables_with_a_non_finite_lambda_star_exit_2(self, tmp_path, capsys):
        cfg, out = run_indices(tmp_path)
        paths = [out / "indices_src-a.json", out / "indices_src-b.json"]
        for path in paths:
            doc = json.loads(path.read_text())
            doc["lambda_star"] = float("nan")
            path.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", *map(str, paths)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "indices_src-a.json" in err and "lambda_star" in err
        assert not (tmp_path / "o" / "sim_gain_index.json").exists()

    def test_a_table_label_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        cfg, out = run_indices(tmp_path)
        path = out / "indices_src-a.json"
        doc = json.loads(path.read_text())
        doc["bandit_label"] = ["src-a"]
        path.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", str(path), str(out / "indices_src-b.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "indices_src-a.json" in err and "bandit_label" in err
        assert not (tmp_path / "o" / "sim_gain_index.json").exists()

    def test_a_table_for_a_bandit_the_config_does_not_have_exits_2(self, tmp_path, capsys):
        cfg, out = run_indices(tmp_path)
        doc = json.loads((out / "indices_src-b.json").read_text())
        doc["bandit_label"] = "src-c"
        extra = tmp_path / "indices_src-c.json"
        extra.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json"), str(extra)]
        )
        assert code == 2
        assert "'src-c'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sim_gain_index.json").exists()

    def test_two_tables_for_one_bandit_exit_2(self, tmp_path, capsys):
        # the second src-a table differs: neither may silently win
        cfg, out = run_indices(tmp_path)
        first = out / "indices_src-a.json"
        doc = json.loads(first.read_text())
        doc["states"][0]["index"] += 1.0
        second = tmp_path / "edited_src-a.json"
        second.write_text(json.dumps(doc))
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", str(first), str(out / "indices_src-b.json"), str(second)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "edited_src-a.json" in err and "'src-a'" in err
        assert not (tmp_path / "o" / "sim_gain_index.json").exists()

    def test_tables_from_another_truncation_depth_exit_2(self, tmp_path, capsys):
        # same chains, tables computed at L = 5 for a config truncated at L = 12
        _, out = run_indices(tmp_path, doc=dict(FAST_CONFIG, truncation={"mode": "fixed", "L": 5}))
        cfg = write_config(tmp_path, FAST_CONFIG, name="deeper.json")
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'src-a'" in err and "truncation depth 5" in err
        assert not (tmp_path / "o" / "sim_gain_index.json").exists()

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--policy", "myopic", "--seed", "123"]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["config"]["simulation"]["seed"] == 123
        res = json.loads((out / "sim_myopic.json").read_text())["result"]
        assert res["seed"] == 123


class TestAverageCriterionPipeline:
    def test_indices_simulate_oracle(self, tmp_path):
        doc = dict(FAST_CONFIG)
        doc["criterion"] = {"type": "average"}
        doc["simulation"] = {"runs": 8, "horizon": 2000, "seed": 5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["indices", "--config", cfg, "--out", str(out)]) == 0
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        )
        assert code == 0
        assert main(["oracle", "--config", cfg, "--out", str(out),
                     "--policy-result", str(out / "sim_gain_index.json")]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        sim = json.loads((out / "sim_gain_index.json").read_text())["result"]
        assert sim["criterion"] == "average"
        assert abs(oracle["gap"]["relative_gap"]) < 0.05


class TestOracleCommand:
    def test_oracle_and_gap_report(self, tmp_path):
        cfg, out = run_indices(tmp_path)
        main(
            ["simulate", "--config", cfg, "--out", str(out), "--policy", "gain_index",
             "--tables", str(out / "indices_src-a.json"), str(out / "indices_src-b.json")]
        )
        code = main(
            ["oracle", "--config", cfg, "--out", str(out),
             "--policy-result", str(out / "sim_gain_index.json")]
        )
        assert code == 0
        doc = json.loads((out / "oracle.json").read_text())
        assert {"oracle", "policy", "relative_gap"} <= set(doc["gap"])
        assert doc["gap"]["oracle"] == doc["value"]

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_oracle_reports_its_sweeps(self, tmp_path, capsys, monkeypatch, blocks):
        monkeypatch.setattr(uoisched.oracle, "_PART_STATES", 1)
        monkeypatch.setattr(uoisched.oracle, "_usable_cpus", lambda: blocks)
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "oracle.json").read_text()
        doc = json.loads(text)
        prep = prepare(load_config(cfg))
        res = joint_solve_discounted(prep.mdps, 1, initial_states=prep.initial_states)
        assert doc["sweeps"] == res.sweeps > 1
        assert doc["n_joint_states"] == res.joint.n_joint
        assert doc["value_bounds"] == list(res.bounds)
        low, high = doc["value_bounds"]
        assert low <= doc["value"] <= high and high - low <= 1e-8
        # the row blocks follow the host, so they are printed but kept out of the file
        line = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(
            r"oracle discounted value = \S+ \((\d+) sweeps over ([\d,]+) joint states in (\d+) row blocks?\)", line
        )
        assert match, line
        assert int(match[1]) == res.sweeps and int(match[2].replace(",", "")) == res.joint.n_joint
        assert int(match[3]) == res.blocks == blocks
        assert "block" not in text

    def test_gap_reports_its_standard_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--policy", "round_robin"]) == 0
        assert main(["oracle", "--config", cfg, "--out", str(out),
                     "--policy-result", str(out / "sim_round_robin.json")]) == 0
        gap = json.loads((out / "oracle.json").read_text())["gap"]
        sim = json.loads((out / "sim_round_robin.json").read_text())["result"]
        assert gap["policy"] == sim["mean"]
        assert gap["policy_stderr"] == sim["stderr"] > 0.0
        assert gap["relative_gap_stderr"] == sim["stderr"] / abs(gap["oracle"])
        printed = capsys.readouterr().out
        assert f"= {gap['relative_gap']:.4%} ± {gap['relative_gap_stderr']:.4%} (s.e.)" in printed

    def test_policy_result_of_another_config_exits_2(self, tmp_path, capsys):
        # an average-cost result checked against the discounted sample config
        avg_out = tmp_path / "avg"
        code = main(
            ["simulate", "--config", "configs/two_sources_average.json", "--out", str(avg_out),
             "--policy", "round_robin"]
        )
        assert code == 0
        code = main(
            ["oracle", "--config", "configs/two_sources_discounted.json", "--out", str(tmp_path / "o"),
             "--policy-result", str(avg_out / "sim_round_robin.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "criterion" in err and "discount" in err
        assert not (tmp_path / "o").exists()

    def test_policy_result_of_other_sources_exits_2(self, tmp_path, capsys):
        # same criterion, discount, M, m, labels and truncation as FAST_CONFIG:
        # only the sources differ
        cfg = write_config(tmp_path, FAST_CONFIG)
        other = write_config(
            tmp_path,
            dict(FAST_CONFIG, bandits=[
                {"label": "src-a", "transition": [[0.5, 0.5], [0.5, 0.5]], "rho": 0.3},
                {"label": "src-b", "transition": [[0.6, 0.5], [0.4, 0.5]], "rho": 0.3},
            ]),
            name="other.json",
        )
        for config, out in ((cfg, "same"), (other, "other")):
            code = main(
                ["simulate", "--config", config, "--out", str(tmp_path / out), "--policy", "round_robin",
                 "--seed", "99"]
            )
            assert code == 0
        # another seed changes the config hash but not the simulated problem
        code = main(
            ["oracle", "--config", cfg, "--out", str(tmp_path / "o1"),
             "--policy-result", str(tmp_path / "same" / "sim_round_robin.json")]
        )
        assert code == 0
        code = main(
            ["oracle", "--config", cfg, "--out", str(tmp_path / "o2"),
             "--policy-result", str(tmp_path / "other" / "sim_round_robin.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bandits differ from the config" in err and "truncation" not in err
        assert not (tmp_path / "o2").exists()

    def test_missing_policy_result_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        path = tmp_path / "absent.json"
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"), "--policy-result", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: policy result file not found: {path}\n"
        assert not (tmp_path / "o").exists()

    def test_policy_result_without_sources_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--policy", "round_robin"]) == 0
        path = tmp_path / "s" / "sim_round_robin.json"
        doc = json.loads(path.read_text())
        del doc["truncation"]
        path.write_text(json.dumps(doc))
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"), "--policy-result", str(path)])
        assert code == 2
        assert "truncation missing" in capsys.readouterr().err

    def test_policy_result_without_stderr_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--policy", "round_robin"]) == 0
        path = tmp_path / "s" / "sim_round_robin.json"
        doc = json.loads(path.read_text())
        del doc["result"]["stderr"]
        path.write_text(json.dumps(doc))
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"), "--policy-result", str(path)])
        assert code == 2
        assert "not a simulation result document" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("mean", float("nan")), ("mean", float("inf")), ("mean", "1.5"), ("mean", True), ("stderr", -0.1)],
    )
    def test_malformed_policy_result_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--policy", "round_robin"]) == 0
        path = tmp_path / "s" / "sim_round_robin.json"
        doc = json.loads(path.read_text())
        doc["result"][field] = value
        path.write_text(json.dumps(doc))
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"), "--policy-result", str(path)])
        assert code == 2
        assert "must be finite numbers, stderr >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("criterion", [{"type": "discounted", "beta": 0.9}, {"type": "average"}])
    def test_oracle_does_not_compute_the_policy(self, tmp_path, monkeypatch, criterion):
        def unread(self, v):
            raise AssertionError("the oracle's policy was computed")

        monkeypatch.setattr(uoisched.oracle._FactoredSweep, "policy", unread)
        cfg = write_config(tmp_path, dict(FAST_CONFIG, criterion=criterion))
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_state_space_cap_exits_4(self, tmp_path):
        doc = dict(FAST_CONFIG, truncation={"mode": "fixed", "L": 600})
        doc["bandits"] = [
            {"label": "a", "transition": [[0.99, 0.3], [0.01, 0.7]], "rho": 1.0},
            {"label": "b", "transition": [[0.99, 0.3], [0.01, 0.7]], "rho": 1.0},
        ]
        cfg = write_config(tmp_path, doc)
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestAsymptoticCommand:
    def test_non_integral_population_exits_2(self, tmp_path):
        doc = dict(FAST_CONFIG)
        doc["criterion"] = {"type": "average"}
        doc["simulation"] = {"runs": 3, "horizon": 300, "seed": 1}
        cfg = write_config(tmp_path, doc)
        code = main(
            ["asymptotic", "--config", cfg, "--out", str(tmp_path / "o"), "--alpha", "0.5", "--m-list", "5"]
        )
        assert code == 2

    def test_sweep_writes_gap_series(self, tmp_path):
        doc = dict(FAST_CONFIG)
        doc["criterion"] = {"type": "average"}
        doc["simulation"] = {"runs": 4, "horizon": 800, "seed": 3}
        doc["truncation"] = {"mode": "fixed", "L": 10}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["asymptotic", "--config", cfg, "--out", str(out), "--alpha", "0.5", "--m-list", "4,8"])
        assert code == 0
        sweep = json.loads((out / "asymptotic.json").read_text())["sweep"]
        assert [r["n_bandits"] for r in sweep["rows"]] == [4, 8]
        csv_lines = (out / "asymptotic.csv").read_text().splitlines()
        assert csv_lines[1] == "M,m,per_bandit_cost,per_bandit_stderr,per_bandit_bound,gap"


    def test_repeated_population_size_exits_2(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG, criterion={"type": "average"})
        cfg = write_config(tmp_path, doc)
        code = main(
            ["asymptotic", "--config", cfg, "--out", str(tmp_path / "o"), "--alpha", "0.5", "--m-list", "4,2,4"]
        )
        assert code == 2
        assert "population sizes must be unique" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "m_list, message",
        [
            ("2,four", "--m-list: expected comma-separated integers, got '2,four'"),
            (",", "--m-list: at least one population size required"),
            ("-2,4", "population sizes must be at least 2, got [-2, 4]"),
        ],
        ids=["non_integer", "empty", "below_two"],
    )
    def test_bad_population_list_exits_2_and_names_it(self, tmp_path, capsys, m_list, message):
        cfg = write_config(tmp_path, dict(FAST_CONFIG, criterion={"type": "average"}))
        code = main(["asymptotic", "--config", cfg, "--out", str(tmp_path / "o"), "--alpha", "0.5",
                     f"--m-list={m_list}"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("m_list", ["3,4", "4,2,4", "-2,4", "2,four"])
    def test_bad_population_list_exits_2_before_anything_is_written(self, tmp_path, m_list):
        """The sweep's plan checks (here a non-integral M * alpha, a repeated
        size, a size below 2) run before the out dir is made or touched."""
        cfg = write_config(tmp_path, dict(FAST_CONFIG, criterion={"type": "average"}))
        command = ["asymptotic", "--config", cfg, "--alpha", "0.5", f"--m-list={m_list}", "--out"]
        fresh = tmp_path / "fresh"
        assert main([*command, str(fresh)]) == 2
        assert not fresh.exists()
        populated = tmp_path / "populated"
        populated.mkdir()
        for name in ("config_echo.json", "asymptotic.json", "asymptotic.csv"):
            (populated / name).write_text(f"{name} of an earlier sweep\n")
        before = {f.name: f.read_bytes() for f in populated.iterdir()}
        assert main([*command, str(populated)]) == 2
        assert {f.name: f.read_bytes() for f in populated.iterdir()} == before

    def test_initial_beliefs_exit_2_before_anything_is_written(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG, criterion={"type": "average"})
        doc["bandits"] = [dict(b, initial_belief=[0.0, 1.0]) for b in doc["bandits"]]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        code = main(["asymptotic", "--config", cfg, "--out", str(out), "--alpha", "0.5", "--m-list", "2,4"])
        assert code == 2
        assert "remove initial_belief from src-a, src-b" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SAMPLE_SWEEP_SHA256))
    def test_sample_config_sweep_is_pinned(self, tmp_path, name):
        """`--alpha 0.5 --m-list 2,4` on a sample config cut to 4 runs writes
        the same bytes as before the sweep took the prepared class MDPs."""
        doc = json.loads((REPO / "configs" / f"{name}.json").read_text())
        doc["simulation"]["runs"] = 4
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["asymptotic", "--config", cfg, "--out", str(out), "--alpha", "0.5", "--m-list", "2,4"]) == 0
        digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("asymptotic.json", "asymptotic.csv"))
        assert digests == SAMPLE_SWEEP_SHA256[name]


class TestBoundCommand:
    def test_prints_certificates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["bound", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "eta_L" in text and "sigma_L" in text and "src-a" in text


def bandit_0(**fields):
    return [dict(FAST_CONFIG["bandits"][0], **fields), FAST_CONFIG["bandits"][1]]


DROP = object()  # a config edit that removes the field


class TestConfigRejections:
    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"m": DROP}, "config: missing required field(s) ['m']"),
            ({"m": "1"}, "m: expected a number, got '1'"),
            ({"m": 1.5}, "m: expected an integer, got 1.5"),
            ({"simulation": {"runs": 0}}, "simulation.runs: must be >= 1, got 0"),
            ({"bandits": bandit_0(rho=1.5)}, "bandits[0].rho: must be <= 1.0, got 1.5"),
            ({"schema_version": 2}, "schema_version: unsupported value 2"),
            ({"criterion": {"type": "discounted"}}, "criterion.beta: required for the discounted criterion"),
            ({"criterion": {"type": "discounted", "beta": 1.0}}, "criterion.beta: must be < 1, got 1.0"),
            ({"criterion": {"type": "average", "beta": 0.9}}, "criterion.beta: not allowed for the average criterion"),
            ({"criterion": {"type": "total"}}, "criterion.type: expected 'discounted' or 'average', got 'total'"),
            ({"bandits": FAST_CONFIG["bandits"][:1]}, "bandits: expected a list of at least 2 bandits"),
            ({"bandits": bandit_0(label="")}, "bandits[0].label: expected a non-empty string"),
            ({"bandits": bandit_0(label="src-b")}, "bandits[1].label: duplicate label 'src-b'"),
            (
                {"bandits": bandit_0(transition=[[0.0, 1.0], [1.0, 0.0]])},
                "bandits[0].transition (bandit 'src-a'): chain is periodic with period 2",
            ),
            ({"bandits": bandit_0(rho=0)}, "bandits[0].rho: must be in (0, 1], got 0.0"),
            ({"bandits": bandit_0(initial_belief=[1.0])}, "bandits[0].initial_belief: expected 2 entries"),
            ({"bandits": bandit_0(initial_belief=[0.6, 0.6])}, "bandits[0].initial_belief: not a probability vector"),
            ({"truncation": {"mode": "fixed"}}, "truncation.L: required for fixed mode"),
            ({"truncation": {"mode": "auto", "eta_target": 0}}, "truncation.eta_target: must be > 0"),
            ({"gradient": {"c": 0}}, "gradient.c: must be > 0"),
            ({"gradient": {"epsilon": 0}}, "gradient.epsilon: must be > 0"),
            (
                {"criterion": {"type": "average"}, "simulation": {"horizon": 200, "burn_in": 200}},
                "simulation.burn_in: must be smaller than the horizon",
            ),
            ({"outputs": 5}, "outputs: expected a string path"),
        ],
        ids=[
            "missing_field", "not_a_number", "not_an_integer", "below_minimum", "above_maximum",
            "schema_version", "no_beta", "beta_one", "beta_for_average", "unknown_criterion",
            "one_bandit", "empty_label", "duplicate_label", "bad_transition", "rho_zero",
            "initial_belief_length", "initial_belief_not_a_distribution", "fixed_mode_without_L",
            "eta_target_zero", "gradient_c_zero", "gradient_epsilon_zero", "burn_in_at_horizon",
            "outputs_not_a_string",
        ],
    )
    def test_rejected_with_its_message(self, edit, message):
        doc = {k: v for k, v in dict(FAST_CONFIG, **edit).items() if v is not DROP}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.loads(json.dumps(doc)))

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'config file not found: {path}')}$"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1,')
        with pytest.raises(ConfigError, match="^config file is not valid JSON: "):
            load_config(path)


class TestConfigRoundTrip:
    def test_echo_reparses_to_same_resolved_config(self, tmp_path):
        _, out = run_indices(tmp_path)
        echo = json.loads((out / "config_echo.json").read_text())
        reparsed = parse_config(echo["config"])
        assert reparsed.resolved == echo["config"]

    def test_all_outputs_carry_schema_and_hash(self, tmp_path):
        _, out = run_indices(tmp_path)
        cfg_hash = json.loads((out / "config_echo.json").read_text())["config_hash"]
        for path in out.iterdir():
            if path.suffix == ".json":
                doc = json.loads(path.read_text())
                assert doc["schema_version"] == 1
                assert doc["config_hash"] == cfg_hash, path.name
            else:
                assert f"config_hash={cfg_hash}" in path.read_text().splitlines()[0]


def test_pipeline_runs_without_scipy(tmp_path):
    """`indices`, `simulate --policy gain_index`, `oracle --policy-result` and
    `asymptotic --alpha 0.5 --m-list 2,4` on both sample configs, cut to 2
    runs of 200 slots, in an interpreter where importing scipy fails: the
    pipeline needs numpy alone."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from uoisched.cli import main\n"
        "cfg, out, tables = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
        "print([\n"
        "    main(['indices', '--config', cfg, '--out', out]),\n"
        "    main(['simulate', '--config', cfg, '--out', out, '--policy', 'gain_index', '--tables', *tables]),\n"
        "    main(['oracle', '--config', cfg, '--out', out, '--policy-result', out + '/sim_gain_index.json']),\n"
        "    main(['asymptotic', '--config', cfg, '--out', out, '--alpha', '0.5', '--m-list', '2,4']),\n"
        "])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(uoisched.__file__).parents[1]))
    for name in ("two_sources_average", "two_sources_discounted"):
        doc = json.loads((REPO / "configs" / f"{name}.json").read_text())
        doc["simulation"].update(runs=2, horizon=200)
        out = tmp_path / name
        tables = [str(out / f"indices_{b['label']}.json") for b in doc["bandits"]]
        args = [sys.executable, "-c", code, write_config(tmp_path, doc, f"{name}.json"), str(out), *tables]
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0]", (name, proc.stdout, proc.stderr)
