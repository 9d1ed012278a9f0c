"""Benchmark of the uoisched pipeline, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: offline_m10 and pipeline_cli, which BENCHMARK.json names, and
online_m10 and scale_classes, which run the same way but are left out of
BENCHMARK.json (see bench/workloads.py for what each runs and why).

A run builds the inputs from the seed and sets up, including one warm-up
pass; the set-up is repeated in fresh processes, twice before and twice
after the timed passes.  Timed passes then repeat for S seconds, and every
output is checked.  Each pass metric is the mean over the passes and
setup_s is the median of the five set-ups, both read at the host's usual
speed: a fixed reference computation is timed between the library calls
(and after each set-up), and the times are scaled by how much slower or
faster than usual it ran (calibrate.py).  With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics.  With --trace 1 it has the per-layer metrics: S/2
more seconds of passes run with spans around every public library function,
and probes time single layers on the workload's own inputs.  The full record
(environment, fingerprints, failures, pass times, spans) goes to
.bench_out/.

The library is imported from ./src only; without it the run exits with code 2.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS_EACH_SIDE = 2  # fresh-process set-ups before and after the passes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "indices_s": "s",
    "sim_bslots_per_s": "bandit-slots/s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "markov.validate_chain_s": "s",
    "belief_mdp.choose_truncation_s": "s",
    "belief_mdp.build_truncated_s": "s",
    "belief_mdp.n_states_total": "count",
    "lagrange.gradient_search_s": "s",
    "lagrange.gradient_iters": "count",
    "lagrange.step_s": "s",
    "lagrange.self_s": "s",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    "solvers.policy_evaluation_ms": "ms",
    "solvers.policy_iteration_s": "s",
    "solvers.solve_average_s": "s",
    "index_policy.tables_s": "s",
    "index_policy.load_table_s": "s",
    "config.load_s": "s",
    "workflows.prepare_s": "s",
    "cli.indices_s": "s",
    "cli.simulate_s": "s",
    "cli.oracle_s": "s",
    "simulate.gain_index_bslots_per_s": "bandit-slots/s",
    "simulate.myopic_bslots_per_s": "bandit-slots/s",
    "simulate.round_robin_bslots_per_s": "bandit-slots/s",
    "simulate.slot_us": "us",
    "simulate.score_topm_share": "share",
    "rng.ns_per_draw": "ns",
    "rng.share": "share",
    "oracle.build_joint_s": "s",
    "oracle.solve_s": "s",
    "oracle.n_joint": "count",
    "oracle.sweep_flops": "flop",
    "oracle.sweep_bytes": "B",
    "trace.overhead_s": "s",
}

# per-layer metric -> traced function names whose total time it is
SPAN_TOTALS = {
    "markov.validate_chain_s": ("markov.validate_chain",),
    "belief_mdp.choose_truncation_s": ("belief_mdp.choose_truncation",),
    "belief_mdp.build_truncated_s": ("belief_mdp.build_truncated",),
    "lagrange.gradient_search_s": ("lagrange.gradient_search",),
    "solvers.policy_iteration_s": ("solvers.policy_iteration_discounted",),
    "solvers.solve_average_s": ("solvers.solve_average",),
    "index_policy.tables_s": ("index_policy.gain_indices_discounted", "index_policy.gain_indices_average"),
    "index_policy.load_table_s": ("index_policy.load_table",),
    "config.load_s": ("config.load_config",),
    "workflows.prepare_s": ("workflows.prepare",),
    "cli.indices_s": ("cli.cmd_indices",),
    "cli.simulate_s": ("cli.cmd_simulate",),
    "cli.oracle_s": ("cli.cmd_oracle",),
    "oracle.build_joint_s": ("oracle.build_joint",),
}


# pass metric -> the kinds of timed call (workloads.call_kind) whose host
# speed scales it; wall_s is scaled by all of them
SCALED_BY = {
    "indices_s": {"truncation", "indices"},
    "oracle_s": {"oracle"},
    "sim_bslots_per_s": {"simulate"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, one pass, no repeated set-up")
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used internally)")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """One process, and BLAS on one thread.  Must run before numpy is imported.

    With two BLAS threads on a 2-CPU host the offline passes ran in 1.4-2.5 s,
    depending on what else held the second CPU, against 2.1-2.6 s on one
    thread, and the idle BLAS thread's spin-wait doubled the CPU time used.
    """
    cap = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import uoisched
    except ImportError as exc:
        print(f"cannot import uoisched from {src}: {exc}", file=sys.stderr)
        return None
    if Path(uoisched.__file__).resolve().parent.parent != src.resolve():
        print(f"uoisched was imported from {uoisched.__file__}, not from {src}", file=sys.stderr)
        return None
    return uoisched


def environment(blas_cap):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_cap": blas_cap,
    }


def med(values):
    values = [v for v in values if v is not None]
    return median(values) if values else 0.0


def avg(values):
    values = [v for v in values if v is not None]
    return fmean(values) if values else 0.0


def run_passes(wl, ledger, tracer, seconds, workdir, max_passes=None):
    """Timed passes until `seconds` have passed (at least one)."""
    from workloads import Abort, check_same_fingerprint

    results = []
    start = time.perf_counter()
    pass_id = 0
    while True:
        pass_id += 1
        tracer.pass_id = pass_id
        out_dir = workdir / f"pass{pass_id}"
        ledger.units = []
        try:
            timings, fingerprint = wl.run_pass(ledger, out_dir)
        except Abort:
            timings = None
        except Exception as exc:  # a broken check is a failed pass, not a crash
            ledger.attempted += 1
            ledger.failures.append(f"pass {pass_id}: {type(exc).__name__}: {exc}")
            timings = None
        if timings is not None:
            timings["units"] = ledger.units
            if results:
                check_same_fingerprint(ledger, results[0][2], fingerprint)
            results.append((pass_id, timings, fingerprint))
        previous = workdir / f"pass{pass_id - 1}"
        if previous.exists():
            shutil.rmtree(previous)
        if max_passes is not None and pass_id >= max_passes:
            break
        if time.perf_counter() - start >= seconds:
            break
    return results


def add_simulator_work(tracer, results):
    """Add each pass's bandit-slots simulated and seconds spent inside `simulate`."""
    from tracing import pass_summaries

    summaries = pass_summaries(tracer.spans)
    for pass_id, timings, _ in results:
        p = summaries.get(pass_id)
        timings["sim_bandit_slots"] = sum(
            c["bandit_slots"] for name, c, _ in (p["counts"] if p else []) if name == "simulate.simulate"
        )
        timings["sim_s"] = p["total"]["simulate.simulate"] if p else 0.0
        timings["sim_calls"] = [
            [c["bandit_slots"], dur] for name, c, dur in (p["counts"] if p else []) if name == "simulate.simulate"
        ]


def layer_metrics(tracer, results):
    """Per-layer metrics from the traced passes: means over passes."""
    from tracing import pass_summaries

    summaries = pass_summaries(tracer.spans)
    per_pass = []
    for pass_id, _, _ in results:
        p = summaries.get(pass_id)
        if p is None:
            continue
        v = {name: sum(p["total"][f] for f in funcs) for name, funcs in SPAN_TOTALS.items()}
        counts = p["counts"]
        v["belief_mdp.n_states_total"] = sum(c["n_states"] for n, c, _ in counts if n == "belief_mdp.build_truncated")
        v["lagrange.gradient_iters"] = sum(c["iterations"] for n, c, _ in counts if n == "lagrange.gradient_search")
        v["lagrange.self_s"] = p["self"]["lagrange"]
        v["solvers.calls"] = p["layer_calls"]["solvers"]
        v["solvers.self_s"] = p["self"]["solvers"]
        solves = p["total"]["oracle.joint_solve_discounted"] + p["total"]["oracle.joint_solve_average"]
        v["oracle.solve_s"] = max(solves - v["oracle.build_joint_s"], 0.0)
        joints = [c for n, c, _ in counts if n == "oracle.build_joint"]
        largest = max(joints, key=lambda c: c["n_joint"], default=None)
        v["oracle.n_joint"] = largest["n_joint"] if largest else 0
        v["oracle.sweep_flops"] = largest["sweep_flops"] if largest else 0
        v["oracle.sweep_bytes"] = largest["sweep_bytes"] if largest else 0
        per_pass.append(v)
    return {name: avg([v[name] for v in per_pass]) for name in per_pass[0]} if per_pass else {}


def child_setup(args, ledger):
    """One set-up in a fresh process, so that it pays the cold costs again."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    ledger.attempted += 1
    if proc.returncode != 0 or not proc.stdout.strip():
        ledger.failures.append(f"set-up process: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return []
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    ledger.attempted += doc["attempted"]
    ledger.failures.extend(doc["failures"])
    return [doc]


def result_line(ledger, metrics, units):
    return json.dumps({
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_cap = cap_blas_threads()
    if import_library() is None:
        return 2
    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, blas_cap, calibrate, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, blas_cap, calibrate, workloads, tracing, workdir):
    ledger = workloads.Ledger()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    # The simulator's entry point is timed in every run: sim_bslots_per_s
    # is the work done inside `simulate` over the time spent there.
    stopwatch = tracing.Tracer(only={"simulate.simulate"}).install()
    setup_extra = {}
    try:
        setup_extra = wl.setup(ledger)
        if not args.smoke:
            wl.run_pass(ledger, workdir / "warmup", warm=True)
        ok = True
    except workloads.Abort:
        ok = False
    except Exception as exc:  # a set-up that breaks is a failure to report
        ledger.attempted += 1
        ledger.failures.append(f"set-up: {type(exc).__name__}: {exc}")
        ok = False
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    setup_raw_s = time.perf_counter() - T_START
    # read at the host's usual speed, measured just after the set-up
    setup_s = setup_raw_s * calibrate.scale_now()
    if args.setup_only:
        stopwatch.uninstall()
        print(json.dumps({
            "setup_s": setup_s, "setup_raw_s": setup_raw_s, "extra": setup_extra,
            "attempted": ledger.attempted, "failures": ledger.failures,
        }))
        return 0

    # The repeats run before and after the timed passes, so that the
    # samples do not all fall in one period of the host's load.
    setups = [{"setup_s": setup_s, "setup_raw_s": setup_raw_s, "extra": setup_extra}]
    repeat = ok and not args.smoke
    if repeat:
        for _ in range(SETUP_REPEATS_EACH_SIDE):
            setups += child_setup(args, ledger)
    results = []
    speed = calibrate.HostSpeed()
    if ok:
        ledger.after_call = speed.after
        results = run_passes(wl, ledger, stopwatch, args.seconds, workdir, max_passes=1 if args.smoke else None)
        ledger.after_call = None
    if repeat:
        for _ in range(SETUP_REPEATS_EACH_SIDE):
            setups += child_setup(args, ledger)
    stopwatch.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Pass metrics are means over the run's passes, not medians: on a shared
    # host pass times jump between speed levels for seconds at a time, and a
    # median follows whichever level holds the majority of one run's passes.
    # They are then read at the host's usual speed (see calibrate.py); the
    # raw figures go to the record.  peak_rss_mb is not scaled.
    add_simulator_work(stopwatch, results)
    timings = [t for _, t, _ in results]
    sim_s = sum(t["sim_s"] for t in timings)
    raw = {
        "wall_s": avg([t["wall_s"] for t in timings]),
        "sim_bslots_per_s": sum(t["sim_bandit_slots"] for t in timings) / sim_s if sim_s > 0 else 0.0,
    }
    for name in ("indices_s", "oracle_s"):
        if timings and name in timings[0]:
            raw[name] = avg([t[name] for t in timings])
    scale = {name: speed.scale(SCALED_BY.get(name)) for name in raw}
    metrics = {
        name: value / scale[name] if name.endswith("_per_s") else value * scale[name] for name, value in raw.items()
    }
    metrics["setup_s"] = med([s["setup_s"] for s in setups])
    metrics["peak_rss_mb"] = peak_rss_mb
    for name in ("indices_s", "oracle_s"):
        if name not in metrics:  # measured once per set-up (online_m10), not scaled
            metrics[name] = med([s["extra"].get(name) for s in setups])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(blas_cap),
        "passes": len(results),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_raw_samples_s": [s["setup_raw_s"] for s in setups],
        "pass_timings": timings,
        "end_to_end": metrics,
        "raw": raw,
        "host_speed_scale": scale,
        "reference_samples": speed.samples,
        "reference_calls": speed.calls,
        "fingerprint": results[0][2] if results else None,
    }

    layer = {}
    if args.trace and results:
        tracer = tracing.Tracer().install()
        try:
            traced = run_passes(wl, ledger, tracer, args.seconds / 2, workdir, max_passes=len(results))
        finally:
            tracer.uninstall()
        layer = layer_metrics(tracer, traced)
        layer["trace.overhead_s"] = avg([t["wall_s"] for _, t, _ in traced]) - raw["wall_s"]
        layer.update(workloads.layer_probes(wl.probe_inputs(), wl.sim_seed))
        record["per_layer"] = layer
        record["spans"] = tracer.spans

    record["attempted"], record["failures"] = ledger.attempted, ledger.failures
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, default=str) + "\n")

    print_report(record, metrics, layer if args.trace else None)
    if args.trace:
        print(result_line(ledger, layer, PER_LAYER))
    else:
        print(result_line(ledger, metrics, END_TO_END))
    return 0


def print_report(record, metrics, layer):
    env = record["environment"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}  "
        f"set-ups {len(record['setup_samples_s'])}"
    )
    print(
        f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"BLAS {env['blas']} ({env['blas_config']}), BLAS threads capped at {env['blas_threads_cap']}"
    )
    print(
        f"host speed from {len(record['reference_samples'])} reference samples; raw (scale): "
        + ", ".join(f"{k} {v:.6g} ({record['host_speed_scale'][k]:.4f})" for k, v in record["raw"].items())
    )
    for name, unit in END_TO_END.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    failed, attempted = len(record["failures"]), max(record["attempted"], 1)
    print(f"  {'fail_ratio':<34} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted})")
    if layer is not None:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {layer.get(name, 0.0):>16.6g} {unit}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    print("fingerprint: " + json.dumps(strip_files(record["fingerprint"]), sort_keys=True))


def strip_files(node):
    if isinstance(node, dict):
        return {k: strip_files(v) for k, v in node.items() if k != "files"}
    return node


if __name__ == "__main__":
    sys.exit(main())
