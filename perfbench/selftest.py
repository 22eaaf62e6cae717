"""Self-test of the benchmark's checks and of the program's determinism.

    python3 perfbench/selftest.py        # from the root of a bvlab checkout

Shows three things, one PASS/FAIL line each, and exits 1 if any fails:

* every check accepts a real output of the program and rejects the same
  output deliberately corrupted;
* two runs of ``bvlab simulate`` in fresh processes give identical bytes;
* ``bvlab mlp-sweep`` gives identical bytes at ``--threads 1`` and ``2``.

Takes about a minute; the whole 8-width sweep is trained once, for the
criterion-09 shape check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import inputs
import workloads

CHECKOUT = os.getcwd()


def bvlab(*argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(CHECKOUT, "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "bvlab.cli", *argv], env=env, check=True)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def corrupt(rows: list[dict], index: int, **changes) -> list[dict]:
    bad = copy.deepcopy(rows)
    for key, change in changes.items():
        bad[index][key] = change(bad[index][key])
    return bad


def main() -> int:
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "bvlab", "cli.py")):
        print("selftest: run from the root of a bvlab checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(CHECKOUT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    results = []

    def report(name: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    def cfg_file(name: str, values: dict) -> str:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(values))
        return path

    try:
        # theory: exact rows pass; a bias off by 1e-8 is an error; a variance
        # off by 1e-8 is a failed row, as are the edge rows the fault hits.
        small = dict(lambda0="0.1,1", gamma="0.1:2:0.1")
        out = os.path.join(tmp, "theory.json")
        bvlab("theory", "--config", cfg_file("theory.cfg", small), "--format", "json",
              "--out", out)
        rows = load(out)
        report("theory rows pass", checks.theory_rows(rows, 40) == (0, []))
        report("theory bias corruption is an error",
               bool(checks.theory_rows(corrupt(rows, 3, bias_sq=lambda v: v * (1 + 1e-8)),
                                       40)[1]))
        report("theory variance corruption is a failed row",
               checks.theory_rows(corrupt(rows, 3, variance=lambda v: v * (1 + 1e-8)),
                                  40) == (1, []))
        report("theory negative variance is a failed row",
               checks.theory_rows(corrupt(rows, 0, variance=lambda v: -v), 40)[0] == 1)
        edge = os.path.join(tmp, "edge.json")
        bvlab("theory", "--config", cfg_file("edge.cfg", workloads.THEORY_EDGE),
              "--format", "json", "--out", edge)
        edge_failed, edge_errors = checks.theory_rows(load(edge), 693)
        report(f"edge grid: {edge_failed} of 693 rows fail, no other error",
               edge_failed > 0 and not edge_errors)

        # simulate: within the criterion-03 tolerance; shifted or broken rows fail.
        sim_cfg = workloads.SIMULATE_SMOKE
        out = os.path.join(tmp, "simulate.json")
        bvlab("simulate", "--config", cfg_file("sim.cfg", sim_cfg), "--seed", "7",
              "--format", "json", "--out", out)
        rows = load(out)
        report("simulate rows pass", checks.simulate_rows(rows, sim_cfg, 7) == [])
        for name, change in (("bias_sq", lambda v: v + 0.05),
                             ("variance", lambda v: -1e-3),
                             ("risk", lambda v: v + 1e-6)):
            report(f"simulate {name} corruption is an error",
                   bool(checks.simulate_rows(corrupt(rows, 0, **{name: change}), sim_cfg, 7)))

        # mlp-sweep: the whole acceptance sweep, then corrupted copies of it.
        mlp_cfg = workloads.MLP
        out = os.path.join(tmp, "mlp.json")
        bvlab("mlp-sweep", "--config", cfg_file("mlp.cfg", mlp_cfg), "--seed", "5",
              "--format", "json", "--out", out)
        rows = load(out)
        report("mlp-sweep rows and shape pass",
               checks.mlp_rows(rows, mlp_cfg, 5) == [] and checks.mlp_shape(rows, mlp_cfg) == [])
        report("mlp-sweep risk above the uniform predictor's is an error",
               bool(checks.mlp_rows(corrupt(rows, 2, risk=lambda v: 0.8), mlp_cfg, 5)))
        report("mlp-sweep broken identity is an error",
               bool(checks.mlp_rows(corrupt(rows, 2, bias_sq=lambda v: v + 1e-6), mlp_cfg, 5)))
        report("mlp-sweep negative variance is an error",
               bool(checks.mlp_rows(corrupt(rows, 2, variance=lambda v: -v), mlp_cfg, 5)))
        flat = copy.deepcopy(rows)
        for i, row in enumerate(flat):
            row["variance"] = 0.01 * (i + 1)
        report("mlp-sweep with variance rising to the widest net is an error",
               bool(checks.mlp_shape(flat, mlp_cfg)))
        report("mlp-sweep with a larger bias at the widest net is an error",
               bool(checks.mlp_shape(corrupt(rows, -1, bias_sq=lambda v: 1.0), mlp_cfg)))

        # decompose: both kinds match the NumPy reference; a shifted value does not.
        for kind in workloads.DUMP_KINDS:
            outputs, labels = inputs.make_dump(kind, workloads.DUMP_SMOKE_SHAPE, 11)
            path = os.path.join(tmp, f"dump-{kind}.json")
            inputs.write_dump(path, kind, outputs, labels)
            out = os.path.join(tmp, f"decompose-{kind}.json")
            bvlab("decompose", "--input", path, "--format", "json", "--out", out)
            rows = load(out)
            reference = checks.reference_decomposition(kind, outputs, labels)
            shape = workloads.DUMP_SMOKE_SHAPE
            report(f"decompose {kind} passes",
                   checks.decompose_rows(rows, reference, shape) == [])
            for name in ("risk", "bias_sq", "variance"):
                report(f"decompose {kind} {name} corruption is an error",
                       bool(checks.decompose_rows(
                           corrupt(rows, 0, **{name: lambda v: v * (1 + 1e-8)}),
                           reference, shape)))

        # mc_risk_mtilde and variance_peak, called through the library.
        sys.path.insert(0, os.path.join(CHECKOUT, "src"))
        from bvlab import theory, twolayer

        args = dict(d=512, p=512, lambda0=1.0, trials=3, master_seed=3)
        value = twolayer.mc_risk_mtilde(**args)
        report("mc_risk_mtilde passes", checks.mtilde_value(value, args) == [])
        report("mc_risk_mtilde off by 3% is an error",
               bool(checks.mtilde_value(value * 1.03, args)))
        peak = theory.variance_peak(0.01)
        report("variance_peak passes", checks.peak_value(peak, 0.01) == [])
        report("variance_peak moved by 0.01 is an error",
               bool(checks.peak_value(peak + 0.01, 0.01)))

        # Determinism of the program itself.
        det_cfg = cfg_file("det.cfg", dict(lambda0="0.1,1", d=16, n=400, p="4,16,32",
                                           trials=5, seed=3))
        first, second = os.path.join(tmp, "det1.csv"), os.path.join(tmp, "det2.csv")
        bvlab("simulate", "--config", det_cfg, "--out", first)
        bvlab("simulate", "--config", det_cfg, "--out", second)
        report("simulate rerun gives identical bytes", read_bytes(first) == read_bytes(second))
        sweep_cfg = cfg_file("sweep.cfg", dict(workloads.MLP, widths="2,16,64", epochs=5))
        one, two = os.path.join(tmp, "threads1.csv"), os.path.join(tmp, "threads2.csv")
        bvlab("mlp-sweep", "--config", sweep_cfg, "--threads", "1", "--out", one)
        bvlab("mlp-sweep", "--config", sweep_cfg, "--threads", "2", "--out", two)
        report("mlp-sweep gives identical bytes at --threads 1 and 2",
               read_bytes(one) == read_bytes(two))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
