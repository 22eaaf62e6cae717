"""The program process: imports bvlab from the checkout and runs one workload.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py setup <checkout> <mode> [<config file>]
    python3 perfbench/worker.py run <checkout> <plan.json> <result.json>

``setup`` imports ``bvlab.cli``, parses the config the way ``bvlab`` does,
prints ``ready`` and exits; ``run.py`` times it from spawn to that line.

``run`` executes main rounds, with smoke rounds between their operations,
until the plan's seconds have passed, timing every operation, and writes the timings, the program's
outputs (CLI outputs stay in their files) and a run record.  With tracing on,
the calls into bvlab are wrapped (``tracing.py``); afterwards the wrappers are
removed and the stage probes run untraced.
"""

from __future__ import annotations

import sys
import time


def _import_bvlab(checkout: str):
    sys.path.insert(0, f"{checkout}/src")
    import bvlab.cli

    expected = f"{checkout}/src/bvlab/"
    if not bvlab.cli.__file__.startswith(expected):
        raise SystemExit(f"bvlab imported from {bvlab.cli.__file__}, not {expected}")
    return bvlab


def _setup(checkout: str, mode: str, config: str | None) -> None:
    bvlab = _import_bvlab(checkout)
    cli = bvlab.cli
    pairs = cli.parse_config_file(config) if config else {}
    if mode == "decompose":
        pairs["input"] = "unused.json"
    cli.build_config(mode, pairs)
    print("ready", flush=True)


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _run_record(np) -> dict:
    """Cores, affinity, BLAS and versions, as this process sees them."""
    import ctypes
    import os
    import platform

    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.update(name=cfg.get("name"), version=cfg.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    libraries = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path and path not in libraries:
                libraries.append(path)
    loaded = []
    for path in libraries:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                entry["threads"] = fn()
                break
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                entry["config"] = fn().decode()
                break
        loaded.append(entry)
    blas["loaded"] = loaded
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }


def _run_op(bv, op: dict):
    """Execute one operation; returns the value for non-CLI operations."""
    if op["kind"] == "cli":
        code = bv.cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"bvlab {' '.join(op['argv'])} exited with {code}")
        return None
    if op["kind"] == "mtilde":
        return bv.twolayer.mc_risk_mtilde(**op["args"])
    if op["kind"] == "peak":
        return bv.theory.variance_peak(**op["args"])
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def _timed(bv, tracer, op: dict, phase: str, index: int) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if tracer is None:
        value = _run_op(bv, op)
    else:
        value = tracer.call(f"op.{op['mode']}", _run_op, bv, op)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return dict(op, phase=phase, round=index, wall=wall, cpu=cpu, value=value)


def _keep_distinct_outputs(record: dict, digests: set) -> None:
    # Identical outputs (the theory grids every round) are kept once, so disk
    # use does not grow with the number of rounds.
    import hashlib
    import os

    if record["kind"] != "cli":
        return
    sha = hashlib.sha256()
    with open(record["out"], "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    record["digest"] = sha.hexdigest()
    if record["digest"] in digests:
        os.remove(record["out"])
        record["out"] = None
    else:
        digests.add(record["digest"])


def _probes(bv, np, seed: int) -> dict:
    """Stage timings of public functions at the workloads' shapes, untraced."""
    twolayer, mlp, theory = bv.twolayer, bv.mlp, bv.theory

    def per_call(fn, reps: int, calls: int = 1) -> float:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) / calls)
        return _median(samples)

    out = {}
    dims = twolayer.ModelDims(d=64, n=6400, p=64, lambda0=1.0)
    out["twolayer.sample_instance.ms"] = 1e3 * per_call(
        lambda: twolayer.sample_instance(dims, seed), 7)
    sample = twolayer.sample_instance(dims, seed)
    out["twolayer.m_matrix.ms"] = 1e3 * per_call(
        lambda: twolayer.m_matrix(sample.W, sample.X, dims.lam), 7)

    # One member's data at the mlp-sweep shape: a 1024-example part, batch 128.
    part = mlp.synth_dataset(16, 1024, 4, 2.0, seed)
    epochs = 10
    steps = epochs * 8
    cfg = mlp.TrainConfig(epochs=epochs, initial_lr=0.3, lr_decay_every=100, seed=seed)
    inputs = part.inputs[:128]
    onehot = np.eye(4)[part.labels[:128]]
    for width in (2, 256):
        params = mlp.init_mlp(16, width, 4, seed)
        step = per_call(lambda: mlp.train_sgd(params, part, cfg), 3) / steps
        grad = per_call(lambda: mlp.loss_and_gradients(params, inputs, onehot), 5, 40)
        out[f"mlp.step.us.w{width}"] = 1e6 * step
        out[f"mlp.loss_and_gradients.us.w{width}"] = 1e6 * grad
        out[f"mlp.update.us.w{width}"] = 1e6 * (step - grad)

    grid = [(lam, eta) for lam in (0.01, 0.1, 1.0) for eta in np.linspace(0.05, 4.0, 700)]
    out["theory.mp_risk.us"] = 1e6 * per_call(
        lambda: [theory.mp_risk(lam, float(eta)) for lam, eta in grid], 3) / len(grid)
    return out


def _run(checkout: str, plan_path: str, result_path: str) -> None:
    import json
    import resource

    import workloads

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    bv = _import_bvlab(checkout)
    import numpy as np

    workload, seed, workdir = plan["workload"], plan["seed"], plan["workdir"]
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(bv)

    records, digests = [], set()

    def run(op: dict, phase: str, index: int) -> None:
        records.append(_timed(bv, tracer, op, phase, index))
        _keep_distinct_outputs(records[-1], digests)

    run_wall0, run_cpu0 = time.perf_counter(), time.process_time()
    for op in workloads.smoke_round(workload, seed, 0, workdir):
        run(op, "warmup", 0)
    main_start = last_smoke = time.perf_counter()
    index = smoke_index = 0
    while True:
        for op in workloads.main_round(workload, seed, index, workdir):
            run(op, "main", index)
            if time.perf_counter() - last_smoke >= workloads.SMOKE_EVERY_S:
                smoke_index += 1
                for smoke_op in workloads.smoke_round(workload, seed, smoke_index, workdir):
                    run(smoke_op, "smoke", smoke_index)
                last_smoke = time.perf_counter()
        index += 1
        if time.perf_counter() - main_start >= plan["seconds"]:
            break
    run_wall = time.perf_counter() - run_wall0
    run_cpu = time.process_time() - run_cpu0

    result = dict(
        records=records,
        main_rounds=index,
        run_wall=run_wall,
        run_cpu=run_cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        run_record=_run_record(np),
    )
    if tracer is not None:
        tracer.uninstall()
        full, leaf = tracing.per_call_overhead()
        stored, hot = tracer.wrapped_calls()
        result["trace_overhead_s"] = stored * full + hot * leaf
        result["probes"] = _probes(bv, np, seed)
        with open(plan["trace_path"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "totals": tracer.totals}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None)
    else:
        _run(sys.argv[2], sys.argv[3], sys.argv[4])
