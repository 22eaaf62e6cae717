"""What each workload runs: configs, input shapes, and the operations of a round.

Shared by ``run.py``, which writes the inputs and checks the
outputs, and the program process (``worker.py``), which executes the
operations.  The set-up probes that time ``setup_s`` do not import it.

A run is made of *main* rounds, repeated until
``--seconds`` have passed; a round is never cut short, so every run attempts
whole rounds of the same operations.  Between main operations run *smoke*
rounds: small fixed calls of the modes the main rounds do not run, so that
every run reports every end-to-end metric.  The 2-vCPU VM this was tuned
on changes speed by up to 1.5x for seconds at a time, so a smoke round follows
the first main operation to end ``SMOKE_EVERY_S`` after the last one: the
smoke calls are spread over the run instead of bunched at its start.  One
smoke round before the first main round warms the process up and is left
out of the rates.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("simulate-theory", "sweep-decompose")

# End-to-end rate metrics: name -> unit.  Each workload's own rates come from
# its main rounds; the others come from the smoke rounds.
RATE_UNITS = {
    "mc_trials_per_s": "trials/s",
    "sgd_steps_per_s": "steps/s",
    "ensemble_values_per_s": "values/s",
    "theory_points_per_s": "points/s",
    "mtilde_trials_per_s": "trials/s",
}
OWN_RATES = {
    "simulate-theory": ("mc_trials_per_s", "theory_points_per_s", "mtilde_trials_per_s"),
    "sweep-decompose": ("sgd_steps_per_s", "ensemble_values_per_s"),
}

SMOKE_EVERY_S = 1.5

# Criterion-03 grid, one call per point.  40 trials per point keeps the grid
# near 8 s here while the worst deviation stays near 0.3 of the criterion-03
# tolerance.
SIMULATE = dict(lambda0="0.1,1", d=64, n=6400, p="8,16,32,48,64,96,128", trials=40)
SIMULATE_SMOKE = dict(lambda0="1", d=64, n=6400, p="32", trials=16)

# The 8-width acceptance sweep (criterion 09): 6 members, 200 epochs.
MLP = dict(
    widths="2,4,8,16,32,64,128,256", d_in=16, classes=4, pool_size=2048,
    test_size=512, margin=2.0, noise_p=0.1, parts=2, repeats=3, epochs=200,
    initial_lr=0.3, lr_decay_every=100,
)
MLP_SMOKE = dict(MLP, widths="16", epochs=20)
MLP_BATCH = 128  # the program's default batch_size

# Prediction dumps: (test_count, k repeats, N parts, c classes).
DUMP_SHAPE = (10_000, 3, 5, 10)
DUMP_SMOKE_SHAPE = (1_000, 3, 5, 10)
DUMP_KINDS = ("real", "simplex")

# Dense grid: 3 x 20,000 gammas.  Edge grid: 21 x 33 log-spaced points,
# written out at full precision so the program parses the exact doubles.
THEORY_DENSE = dict(lambda0="0.01,0.1,1", gamma="0.0002:4:0.0002")
THEORY_DENSE_ROWS = 3 * 20_000
THEORY_SMOKE = dict(lambda0="0.01,0.1,1", gamma="0.002:3:0.002")
THEORY_SMOKE_ROWS = 3 * 1_500
EDGE_LAMBDA0 = [float(v) for v in np.logspace(-12, 8, 21)]
EDGE_GAMMA = [float(v) for v in np.logspace(-8, 8, 33)]
THEORY_EDGE = dict(
    lambda0=",".join(repr(v) for v in EDGE_LAMBDA0),
    gamma=",".join(repr(v) for v in EDGE_GAMMA),
)

# Criterion-06 shapes for mc_risk_mtilde, fewer trials per round.
MTILDE_D = 512
MTILDE_P = (256, 512, 1024)
MTILDE_LAMBDA0 = 1.0
MTILDE_TRIALS = 5
MTILDE_SMOKE_P = (512,)
MTILDE_SMOKE_TRIALS = 3
PEAK_LAMBDA0 = 0.01
PEAK_SMOKE_LAMBDA0 = 0.1

CONFIG_FILES = {
    "simulate.cfg": SIMULATE,
    "simulate-smoke.cfg": SIMULATE_SMOKE,
    "mlp.cfg": MLP,
    "mlp-smoke.cfg": MLP_SMOKE,
    "theory-dense.cfg": THEORY_DENSE,
    "theory-edge.cfg": THEORY_EDGE,
    "theory-smoke.cfg": THEORY_SMOKE,
}
# The config a user's run of each workload parses first; set-up time covers it.
SETUP_CONFIG = {
    "simulate-theory": ("simulate", "simulate.cfg"),
    "sweep-decompose": ("mlp-sweep", "mlp.cfg"),
}


def derive(seed: int, *path: int) -> int:
    """A non-negative 62-bit seed from the run seed and an index path."""
    value = seed % (1 << 62)
    for index in path:
        value = (value * 1_000_003 + index + 1) % (1 << 62)
    return value


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def sgd_steps(cfg: dict) -> int:
    """Members x epochs x batches per epoch, summed over widths."""
    widths = len(cfg["widths"].split(","))
    members = cfg["parts"] * cfg["repeats"]
    batches = math.ceil((cfg["pool_size"] // cfg["parts"]) / MLP_BATCH)
    return widths * members * cfg["epochs"] * batches


def dump_path(workdir: str, kind: str, smoke: bool) -> str:
    return os.path.join(workdir, f"dump-{kind}{'-smoke' if smoke else ''}.json")


def _cli(workdir, tag, mode, metric, units, argv, rows, check):
    out = os.path.join(workdir, f"{tag}.json")
    return dict(
        kind="cli", mode=mode, metric=metric, units=units, rows=rows, check=check,
        argv=[mode, *argv, "--format", "json", "--out", out], out=out,
    )


def _simulate(workdir, tag, cfg_name, cfg, seed, point=None):
    argv = ["--config", os.path.join(workdir, cfg_name), "--seed", str(seed)]
    if point is not None:
        cfg = dict(cfg, lambda0=point[0], p=point[1])
        argv += ["--set", f"lambda0={point[0]}", "--set", f"p={point[1]}"]
    points = len(cfg["lambda0"].split(",")) * len(cfg["p"].split(","))
    return _cli(workdir, tag, "simulate", "mc_trials_per_s", points * cfg["trials"], argv,
                points, dict(cfg=cfg, seed=seed))


def _mlp(workdir, tag, cfg_name, cfg, seed, width=None):
    argv = ["--config", os.path.join(workdir, cfg_name), "--seed", str(seed)]
    if width is not None:
        cfg = dict(cfg, widths=str(width))
        argv += ["--set", f"widths={width}"]
    return _cli(workdir, tag, "mlp-sweep", "sgd_steps_per_s", sgd_steps(cfg), argv,
                len(cfg["widths"].split(",")), dict(cfg=cfg, seed=seed))


def _decompose(workdir, tag, kind, smoke):
    shape = DUMP_SMOKE_SHAPE if smoke else DUMP_SHAPE
    return _cli(
        workdir, tag, "decompose", "ensemble_values_per_s", math.prod(shape),
        ["--input", dump_path(workdir, kind, smoke)], 1, dict(kind=kind, smoke=smoke),
    )


def _theory(workdir, tag, cfg_name, rows, lambda0=None):
    argv = ["--config", os.path.join(workdir, cfg_name)]
    if lambda0 is not None:
        argv += ["--set", f"lambda0={lambda0}"]
    return _cli(workdir, tag, "theory", "theory_points_per_s", rows, argv, rows,
                dict(config=cfg_name, lambda0=lambda0))


def _mtilde(p, trials, seed):
    args = dict(d=MTILDE_D, p=p, lambda0=MTILDE_LAMBDA0, trials=trials, master_seed=seed)
    return dict(kind="mtilde", mode="mtilde", metric="mtilde_trials_per_s",
                units=trials, rows=1, args=args, check=args)


def _peak(lambda0):
    return dict(kind="peak", mode="peak", metric=None, units=0, rows=1,
                args=dict(lambda0=lambda0), check=dict(lambda0=lambda0))


def smoke_round(workload: str, seed: int, index: int, workdir: str) -> list[dict]:
    """Small calls of every mode the workload's main rounds do not run."""
    tag = f"smoke{index}"
    if workload == "simulate-theory":
        return [
            _mlp(workdir, f"{tag}-mlp", "mlp-smoke.cfg", MLP_SMOKE, derive(seed, 2, index)),
            *(_decompose(workdir, f"{tag}-decompose-{kind}", kind, smoke=True)
              for kind in DUMP_KINDS),
        ]
    if workload == "sweep-decompose":
        return [
            _simulate(workdir, f"{tag}-simulate", "simulate-smoke.cfg", SIMULATE_SMOKE,
                      derive(seed, 1, index)),
            _theory(workdir, f"{tag}-theory", "theory-smoke.cfg", THEORY_SMOKE_ROWS),
            *(_mtilde(p, MTILDE_SMOKE_TRIALS, derive(seed, 4, index)) for p in MTILDE_SMOKE_P),
            _peak(PEAK_SMOKE_LAMBDA0),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main_round(workload: str, seed: int, index: int, workdir: str) -> list[dict]:
    """The operations of main round ``index``; seeds vary by round.

    Long CLI runs are split into one call per grid point or per width, so
    that the modes and the smoke rounds interleave; each call's rows are
    exactly the rows the whole-grid call gives for that point or width.
    """
    tag = f"round{index}"
    if workload == "simulate-theory":
        sim_seed = derive(seed, 11, index)
        sims = [_simulate(workdir, f"{tag}-simulate-{lam}-{p}", "simulate.cfg", SIMULATE,
                          sim_seed, point=(lam, p))
                for lam in SIMULATE["lambda0"].split(",") for p in SIMULATE["p"].split(",")]
        dense = [_theory(workdir, f"{tag}-theory-dense-{lam}", "theory-dense.cfg",
                         THEORY_DENSE_ROWS // 3, lambda0=lam)
                 for lam in THEORY_DENSE["lambda0"].split(",")]
        mtilde = [_mtilde(p, MTILDE_TRIALS, derive(seed, 14, index, p)) for p in MTILDE_P]
        edge = _theory(workdir, f"{tag}-theory-edge", "theory-edge.cfg",
                       len(EDGE_LAMBDA0) * len(EDGE_GAMMA))
        others = [dense[0], mtilde[0], dense[1], mtilde[1], dense[2], mtilde[2], edge,
                  _peak(PEAK_LAMBDA0)]
        # One of the other calls after every second simulate point.
        return [op for i in range(0, len(sims), 2) for op in (*sims[i:i + 2], others[i // 2])
                ] + others[len(sims) // 2:]
    if workload == "sweep-decompose":
        mlp_seed = derive(seed, 12, index)
        mlps = [_mlp(workdir, f"{tag}-mlp-{width}", "mlp.cfg", MLP, mlp_seed, width=width)
                for width in MLP["widths"].split(",")]
        real, simplex = (_decompose(workdir, f"{tag}-decompose-{kind}", kind, smoke=False)
                         for kind in DUMP_KINDS)
        return [*mlps[:4], real, *mlps[4:], simplex]
    raise ValueError(f"unknown workload {workload!r}")
