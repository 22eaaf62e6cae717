"""bvlab benchmark: run one workload against the checkout and print its metrics.

    python3 perfbench/run.py --workload simulate-theory --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the directory holding ``src/bvlab``).  It
writes the workload's inputs under ``.perfbench/``, times set-up in
fresh interpreters, then starts one program process (``worker.py``) that runs
the operations, and checks every output against computations made here
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120.0


def _prepare(workload: str, seed: int, workdir: str) -> dict:
    """Write config files and dumps; returns reference decompositions."""
    for name, values in workloads.CONFIG_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(values))
    references = {}
    smoke = workload != "sweep-decompose"  # decompose runs in the main or the smoke rounds
    shape = workloads.DUMP_SMOKE_SHAPE if smoke else workloads.DUMP_SHAPE
    for kind in workloads.DUMP_KINDS:
        outputs, labels = inputs.make_dump(kind, shape, workloads.derive(seed, 3))
        inputs.write_dump(workloads.dump_path(workdir, kind, smoke), kind, outputs, labels)
        references[(kind, smoke)] = checks.reference_decomposition(kind, outputs, labels)
    return references


def _setup_seconds(checkout: str, workload: str, workdir: str) -> float:
    """Median time from spawning an interpreter to bvlab imported and config parsed."""
    mode, cfg = workloads.SETUP_CONFIG[workload]
    argv = [sys.executable, WORKER, "setup", checkout, mode]
    if cfg:
        argv.append(os.path.join(workdir, cfg))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return statistics.median(samples)


def _run_worker(checkout: str, plan: dict, workdir: str) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    argv = [sys.executable, WORKER, "run", checkout, plan_path, result_path]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S + plan["seconds"])
    except subprocess.TimeoutExpired:
        raise RuntimeError("program process timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"program process exited with {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check(records: list[dict], references: dict) -> tuple[int, list[str]]:
    """(failed operations in main rounds, errors) over every record.

    Identical CLI outputs (same digest and same check) are checked once.
    """
    errors, failed = [], 0
    paths = {r["digest"]: r["out"] for r in records if r.get("out")}
    checked: dict[str, tuple[int, list[str]]] = {}
    for rec in records:
        mode, spec = rec["mode"], rec["check"]
        if mode == "mtilde":
            errors += checks.mtilde_value(rec["value"], spec)
            continue
        if mode == "peak":
            errors += checks.peak_value(rec["value"], spec["lambda0"])
            continue
        key = json.dumps([rec["digest"], mode, rec["rows"], spec], sort_keys=True)
        if key not in checked:
            checked[key] = _check_cli(mode, spec, rec["rows"], _load_rows(paths[rec["digest"]]),
                                      references)
        rec_failed, rec_errors = checked[key]
        if rec["phase"] == "main":
            failed += rec_failed
        elif rec_failed:
            rec_errors = rec_errors + [f"{mode}: {rec_failed} failed rows in a smoke round"]
        errors += rec_errors
    sweeps: dict[int, list[dict]] = {}
    for rec in records:
        if rec["mode"] == "mlp-sweep" and rec["phase"] == "main":
            sweeps.setdefault(rec["round"], []).extend(_load_rows(paths[rec["digest"]]))
    for rows in sweeps.values():
        errors += checks.mlp_shape(rows, workloads.MLP)
    return failed, errors


def _check_cli(mode: str, spec: dict, expected_rows: int, rows: list[dict],
               references: dict) -> tuple[int, list[str]]:
    if mode == "theory":
        return checks.theory_rows(rows, expected_rows)
    if mode == "simulate":
        return 0, checks.simulate_rows(rows, spec["cfg"], spec["seed"])
    if mode == "mlp-sweep":
        return 0, checks.mlp_rows(rows, spec["cfg"], spec["seed"])
    if mode == "decompose":
        shape = workloads.DUMP_SMOKE_SHAPE if spec["smoke"] else workloads.DUMP_SHAPE
        return 0, checks.decompose_rows(rows, references[(spec["kind"], spec["smoke"])], shape)
    return 0, [f"no check for mode {mode!r}"]


def _rate(records: list[dict], metric: str, phase: str) -> float:
    """Work units per wall second over one metric's operations in one phase.

    A total ratio, not a median of per-round rates: on a shared host whose
    speed flips between two levels every few seconds, the median jumps
    between the levels while the total ratio moves with their mix.
    """
    units = wall = 0.0
    for rec in records:
        if rec["metric"] == metric and rec["phase"] == phase:
            units += rec["units"]
            wall += rec["wall"]
    return units / wall


def _end_to_end(workload: str, result: dict, setup_s: float) -> dict:
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    for metric, unit in workloads.RATE_UNITS.items():
        phase = "main" if metric in workloads.OWN_RATES[workload] else "smoke"
        metrics[metric] = {"value": _rate(result["records"], metric, phase), "unit": unit}
    return metrics


def _unit(name: str) -> str:
    parts = name.split(".")
    if parts[-1] == "calls":
        return "count"
    if parts[-1] == "cpu_per_wall":
        return "ratio"
    for unit in ("ms", "us"):
        if unit in parts:
            return unit
    if parts[-1] == "s" or parts[-1].endswith("_s"):
        return "s"
    raise ValueError(f"no unit for {name!r}")


def _per_layer(result: dict, trace: dict) -> dict:
    spans = tracing.summarize(trace)
    records = result["records"]

    def total(name: str) -> float:
        return spans.get(f"{name}.s", 0.0)

    def calls(name: str) -> float:
        return spans.get(f"{name}.calls", 0)

    sim_trials = sum(r["units"] for r in records if r["mode"] == "simulate")
    mtilde_trials = sum(r["units"] for r in records if r["mode"] == "mtilde")
    values = {
        "twolayer.mc_bias_variance.s": total("twolayer.mc_bias_variance"),
        "twolayer.trial.ms": 1e3 * total("twolayer.mc_bias_variance") / sim_trials,
        "twolayer.mc_risk_mtilde.s": total("twolayer.mc_risk_mtilde"),
        "twolayer.mtilde_trial.ms": 1e3 * total("twolayer.mc_risk_mtilde") / mtilde_trials,
        "seeding.spawn_rng.calls": calls("seeding.spawn_rng"),
        "seeding.spawn_rng.s": total("seeding.spawn_rng"),
        "mlp.train_sgd.s": total("mlp.train_sgd"),
        "mlp.train_sgd.calls": calls("mlp.train_sgd"),
        "mlp.predict_probabilities.s": total("mlp.predict_probabilities"),
        "mlp.data.s": total("mlp.synth_dataset") + total("mlp.inject_label_noise"),
        "estimators.mse.s": total("estimators.estimate_mse_decomposition"),
        "estimators.kl.s": total("estimators.estimate_kl_decomposition"),
        "estimators.from_predictions.s": total("estimators.from_predictions"),
        "estimators.plan_splits.s": total("estimators.plan_splits"),
        "cli.build_config.s": total("cli.build_config"),
        "cli.parse_dump.s": spans["cli.parse_dump.s"],
        "cli.emit.s": total("cli.emit"),
        "theory.theory_point.calls": calls("theory.theory_point"),
        "theory.theory_point.us": 1e6 * total("theory.theory_point")
        / max(calls("theory.theory_point"), 1),
        "theory.variance_peak.s": total("theory.variance_peak"),
        "process.cpu_s": result["run_cpu"],
        "process.cpu_per_wall": result["run_cpu"] / result["run_wall"],
        "trace.overhead_s": result["trace_overhead_s"],
    }
    values.update(result["probes"])
    values.update({f"layer.{layer}.self_s": spans[f"layer.{layer}.self_s"]
                   for layer in tracing.LAYERS})
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "bvlab", "cli.py")):
        print("perfbench: run from the root of a bvlab checkout (no src/bvlab here)",
              file=sys.stderr)
        return 2
    base = os.path.join(checkout, ".perfbench")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        references = _prepare(args.workload, args.seed, workdir)
        setup_s = _setup_seconds(checkout, args.workload, workdir)
        plan = dict(workload=args.workload, seed=args.seed, workdir=workdir,
                    seconds=args.seconds, trace=bool(args.trace),
                    trace_path=os.path.join(base, f"trace-{args.workload}.json"))
        result = _run_worker(checkout, plan, workdir)
        records = result["records"]
        failed, errors = _check(records, references)
        attempted = sum(r["rows"] for r in records if r["phase"] == "main")
        if args.trace:
            with open(plan["trace_path"], encoding="utf-8") as fh:
                metrics = _per_layer(result, json.load(fh))
        else:
            metrics = _end_to_end(args.workload, result, setup_s)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print("run-record " + json.dumps(dict(
        workload=args.workload, seed=args.seed, main_rounds=result["main_rounds"],
        **result["run_record"])))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {attempted} failed = {failed}")
    print(json.dumps(dict(correct=not errors, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
