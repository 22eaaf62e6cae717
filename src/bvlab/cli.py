"""Command-line front end: theory sweeps, simulations, MLP sweeps, decomposition.

Subcommands
-----------
theory      evaluate the closed-form decomposition on a (lambda0, gamma) grid
simulate    Monte Carlo the two-layer network on a (lambda0, p) grid
mlp-sweep   train MLP ensembles across widths and decompose their test loss
decompose   decompose a dumped prediction ensemble (JSON file)

Every run is described by a flat ``key = value`` config file, overridden by
``--set key=value`` and by the flags named after keys.  A mode's keys are the
fields of its config class (:class:`TheoryConfig` and so on); the README
lists each with its type, default and constraint.  Each run yields a column
table (:data:`Table`) with the columns

    mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,wall_time_s

which :func:`emit` writes as CSV (that header, floats at 9 significant digits,
unused columns empty) or as a compact one-line JSON array of row objects with
the same keys, rendering a slow table over the worker pool.  The wall_time_s
column is filled only when ``--timings`` (or ``timings = on``) is set, so
default reruns of one config produce byte-identical files.  It holds each row's
own run time, except in theory mode, where the whole grid is evaluated at once
and every row holds that evaluation's time divided by the number of rows.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import _workers, estimators, mlp, theory, twolayer

__all__ = ["ConfigError", "Config", "TheoryConfig", "SimulateConfig", "MlpSweepConfig",
           "DecomposeConfig", "Table", "build_config", "run_config", "emit", "main"]

CSV_HEADER = "mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,wall_time_s"
_COLUMNS = tuple(CSV_HEADER.split(","))

# A column table: column name -> a list with one value per row, or a single
# value that every row shares (None renders as an empty cell).
Table = dict[str, object]


class ConfigError(ValueError):
    """A sweep configuration is missing or malformed; names the field."""


@dataclass(frozen=True, kw_only=True)
class Config:
    """The keys and checks every mode's config shares: integer values other
    than ``seed`` must reach the field's ``min`` metadata (default 1), and
    so must float values of a field that has one."""

    out: str = ""  # empty: stdout
    format: str = "csv"
    timings: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        for f in fields(self):
            integer = f.type in ("int", "list[int]") and f.name != "seed"
            if integer or "min" in f.metadata:
                value, low = getattr(self, f.name), f.metadata.get("min", 1)
                if min(value if isinstance(value, list) else [value], default=low) < low:
                    raise ConfigError(f"{f.name} must be >= {low}, got {value}")


@dataclass(frozen=True, kw_only=True)
class TheoryConfig(Config):
    """``bvlab theory``: the closed form at every (lambda0, gamma) pair."""

    lambda0: list[float]
    gamma: list[float]

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.lambda0 + self.gamma, default=1.0) <= 0:
            raise ConfigError("lambda0 and gamma values must be positive")


@dataclass(frozen=True, kw_only=True)
class SimulateConfig(Config):
    """``bvlab simulate``: Monte Carlo of the two-layer net at every (lambda0, p) pair."""

    lambda0: list[float] = field(metadata={"min": 0})
    d: int
    n: int
    p: list[int]
    trials: int = field(metadata={"min": 2})
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        for lambda0 in self.lambda0:  # the ridge (n/d) * lambda0 finite, W's system regular
            try:
                twolayer.ModelDims(d=self.d, n=self.n, p=max(self.p),
                                   lambda0=lambda0).require_regular()
            except twolayer.SingularSystemError as exc:
                raise ConfigError(f"lambda0={lambda0}: {exc}") from exc
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


@dataclass(frozen=True, kw_only=True)
class MlpSweepConfig(Config, mlp.TrainConfig):
    """``bvlab mlp-sweep``: a trained ensemble per width on a synthetic task.

    The training keys, their defaults and their checks are those of
    :class:`bvlab.mlp.TrainConfig`, and the config goes to
    :func:`bvlab.mlp.width_sweep` as its training config.
    """

    widths: list[int]
    d_in: int
    classes: int = field(metadata={"min": 2})
    pool_size: int
    test_size: int
    margin: float
    noise_p: float = 0.0
    parts: int = field(metadata={"min": 2})
    repeats: int

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            mlp.TrainConfig.__post_init__(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.noise_p <= 1.0:
            raise ConfigError(f"noise_p must lie in [0, 1], got {self.noise_p}")
        if self.parts > self.pool_size:
            raise ConfigError(f"parts must be <= pool_size={self.pool_size}, got {self.parts}")


@dataclass(frozen=True, kw_only=True)
class DecomposeConfig(Config):
    """``bvlab decompose``: the decomposition of a prediction dump."""

    input: str  # read when the config runs, not when it is built


_CONFIGS = {
    "theory": TheoryConfig,
    "simulate": SimulateConfig,
    "mlp-sweep": MlpSweepConfig,
    "decompose": DecomposeConfig,
}
MODES = tuple(_CONFIGS)


def _parse_finite(token: str, name: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"{name}: not a number: {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name}: not a finite number: {token!r}")
    return value


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: not an integer: {text!r}") from exc


# Most values one list may hold once its ranges are counted out: 50 times the
# 20,000 of the largest grid the benchmark runs.  A range is counted before
# any value is built, so ``1e-9:1:1e-9`` fails at once instead of filling GBs.
MAX_LIST_VALUES = 1_000_000


def _parse_scalar_list(text: str, name: str) -> list[float]:
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            pieces = token.split(":")
            if len(pieces) != 3:
                raise ConfigError(f"{name}: range syntax is start:stop:step, got {token!r}")
            start, stop, step = (_parse_finite(x, name) for x in pieces)
            if step <= 0:
                raise ConfigError(f"{name}: range step must be positive")
            # The tolerance keeps a stop that float division lands just
            # short of; the clamp keeps a value that rounds past it at stop.
            span = (stop - start) / step + 1e-9
            if not math.isfinite(span):
                raise ConfigError(f"{name}: range {token!r} overflows")
            if span < 0:
                raise ConfigError(f"{name}: range {token!r} stops below its start")
            count = math.floor(span) + 1
            if len(values) + count > MAX_LIST_VALUES:
                raise ConfigError(f"{name}: {len(values) + count:,} values, more than the "
                                  f"{MAX_LIST_VALUES:,} a list may hold")
            values.extend(min(start + k * step, stop) for k in range(count))
        else:
            values.append(_parse_finite(token, name))
    if not values:
        raise ConfigError(f"{name}: empty list")
    return values


def _parse_int_list(text: str, name: str) -> list[int]:
    values = _parse_scalar_list(text, name)
    for value in values:
        if not value.is_integer():
            raise ConfigError(f"{name}: not an integer: {value!r}")
    return [int(v) for v in values]


def _parse_bool(text: str, name: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {text!r}")


# A field's annotation -> the parser of its config values.  Annotations are
# strings (``from __future__ import annotations`` in this module and in mlp).
_PARSERS = {
    "list[float]": _parse_scalar_list,
    "list[int]": _parse_int_list,
    "int": _parse_int,
    "float": _parse_finite,
    "bool": _parse_bool,
    "str": lambda text, name: text,
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def build_config(mode: str, pairs: dict[str, str]) -> Config:
    """Turn raw key/value strings into the mode's validated config."""
    if mode not in _CONFIGS:
        raise ConfigError(f"unknown mode {mode!r} (choose from {MODES})")
    config_type = _CONFIGS[mode]
    known = {f.name: f for f in fields(config_type)}
    values = {}
    for key, text in pairs.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r} for mode {mode!r}")
        values[key] = _PARSERS[known[key].type](text, key)
    for f in known.values():
        if f.name not in values and f.default is MISSING:
            raise ConfigError(f"mode {mode!r} requires config field {f.name!r}")
    return config_type(**values)


def _clock(cfg: Config, started: float, rows: int = 1) -> Optional[float]:
    if not cfg.timings:
        return None
    return round((time.perf_counter() - started) / rows, 9)


def _table(mode: str, names: Sequence[str] = (), rows: Sequence[tuple] = (),
           **columns) -> Table:
    """A column table in ``CSV_HEADER`` order: ``columns``, plus one column per
    entry of ``names`` taken from the ``rows`` tuples; the rest hold None."""
    columns.update(zip(names, map(list, zip(*rows))), mode=mode)
    return {name: columns.get(name) for name in _COLUMNS}


def _run_theory(cfg: TheoryConfig) -> Table:
    started = time.perf_counter()
    bias_sq, variance, risk, *_ = theory.closed_form(
        np.asarray(cfg.lambda0)[:, None], np.asarray(cfg.gamma))
    wall_time_s = _clock(cfg, started, risk.size)
    return _table(
        "theory", lambda0=[lam0 for lam0 in cfg.lambda0 for _ in cfg.gamma],
        gamma=cfg.gamma * len(cfg.lambda0), risk=risk.ravel().tolist(),
        bias_sq=bias_sq.ravel().tolist(), variance=variance.ravel().tolist(),
        wall_time_s=wall_time_s,
    )


def _run_simulate(cfg: SimulateConfig) -> Table:
    rows = []
    for lam0 in cfg.lambda0:
        for p in cfg.p:
            started = time.perf_counter()
            dims = twolayer.ModelDims(d=cfg.d, n=cfg.n, p=p, lambda0=lam0)
            stats = twolayer.mc_bias_variance(dims, cfg.trials, cfg.seed)
            rows.append((lam0, dims.gamma, p, stats.risk, stats.bias_sq, stats.variance,
                         _clock(cfg, started)))
    return _table(
        "simulate", ("lambda0", "gamma", "p", "risk", "bias_sq", "variance", "wall_time_s"),
        rows, d=cfg.d, n=cfg.n, trials=cfg.trials, seed=cfg.seed,
    )


def _run_mlp_sweep(cfg: MlpSweepConfig) -> Table:
    pool = mlp.synth_dataset(
        cfg.d_in, cfg.pool_size, cfg.classes, cfg.margin, cfg.seed * 2 + 1
    )
    test = mlp.synth_dataset(
        cfg.d_in, cfg.test_size, cfg.classes, cfg.margin, cfg.seed * 2 + 2
    )
    noisy = mlp.inject_label_noise(pool.labels, cfg.noise_p, cfg.classes, cfg.seed * 2 + 3)
    pool = mlp.LabeledDataset(pool.inputs, noisy, pool.provenance)
    plan = estimators.plan_splits(len(pool), cfg.parts, cfg.repeats, cfg.seed)
    rows = []
    for width in cfg.widths:
        started = time.perf_counter()
        (_, result), = mlp.width_sweep([width], pool, test, plan, cfg)
        rows.append((width, result.risk, result.bias_sq, result.variance,
                     _clock(cfg, started)))
    return _table(
        "mlp-sweep", ("width", "risk", "bias_sq", "variance", "wall_time_s"), rows, d=cfg.d_in,
        n=plan.part_size, noise_p=cfg.noise_p, trials=plan.model_count, seed=cfg.seed)


def _run_decompose(cfg: DecomposeConfig) -> Table:
    from . import _dump  # here only: compiling its patterns costs about 3 ms of set-up

    started = time.perf_counter()
    try:
        outputs, labels, kind = _dump.read_dump(cfg.input)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if kind == "real":
        result = estimators.estimate_mse_decomposition(
            estimators.PredictionMatrix(outputs), labels
        )
    else:
        ensemble = estimators.ProbabilityEnsemble.from_predictions(outputs)
        result = estimators.estimate_kl_decomposition(ensemble, labels)
    return _table(
        "decompose", n=outputs.shape[0], trials=outputs.shape[1] * outputs.shape[2],
        risk=result.risk, bias_sq=result.bias_sq, variance=result.variance,
        wall_time_s=_clock(cfg, started),
    )


_RUNNERS = {
    TheoryConfig: _run_theory,
    SimulateConfig: _run_simulate,
    MlpSweepConfig: _run_mlp_sweep,
    DecomposeConfig: _run_decompose,
}


def run_config(config: Config) -> Table:
    """Run a config by its type; rows come back in deterministic grid order."""
    return _RUNNERS[type(config)](config)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _csv_floats(values: list[float]) -> list[str]:
    return list(map(format, values, itertools.repeat(".9g")))


def _json_floats(values: list[float]) -> list[str]:
    texts = list(map(float.__repr__, values))
    if not math.isfinite(sum(values)):  # a NaN or an infinity, or an overflow
        spellings = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        texts = list(map(spellings.get, texts, texts))
    return texts


def _render(column: list, cell, floats) -> list[str]:
    """The column's cell texts, by ``floats`` when it holds floats alone."""
    return floats(column) if set(map(type, column)) == {float} else list(map(cell, column))


def _render_rows(lo: int, hi: int, *columns_and_args) -> str:
    """Rows ``lo..hi`` of :func:`emit`'s table, joined by ``between``; a row is
    ``texts[0] cells[0] texts[1] ... texts[-1]``, its cells from ``columns``."""
    *columns, texts, cell, floats, between = columns_and_args
    streams = [s for text, column in zip(texts, columns)
               for s in (itertools.repeat(text), _render(column, cell, floats))]
    streams.append([texts[-1] + between] * (hi - lo - 1) + [texts[-1]])
    return "".join(itertools.chain.from_iterable(zip(*streams)))


def emit(table: Table, path: Optional[str], emit_format: str) -> None:
    """Write a column table to ``path`` (stdout when None) as CSV or JSON.

    CSV has a header of the table's column names and floats at 9 significant
    digits.  JSON is, byte for byte, what :func:`json.dumps` writes for the
    list of row objects: one line, floats at full precision, so it loads back
    to the table exactly.  Once the worker pool runs, the rows are rendered
    at once in contiguous blocks over it; before that, the first rows are
    rendered here and timed, and the rest are split only when they take long
    enough to pay for forking the pool (:func:`bvlab._workers.run_timed`).
    The bytes do not depend on the split.
    """
    names = list(table)
    if emit_format == "csv":
        cell, floats, keys = _csv_cell, _csv_floats, ["", *[","] * (len(names) - 1)]
        head, between, tail = ",".join(names) + "\n", "\n", "\n"
    elif emit_format == "json":
        cell, floats = json.dumps, _json_floats
        keys = [", " * (i > 0) + json.dumps(name) + ": " for i, name in enumerate(names)]
        head, between, tail = "[{", "}, {", "}]\n"
    else:
        raise ValueError(f"format must be csv or json, got {emit_format!r}")
    lengths = {len(column) for column in table.values() if isinstance(column, list)}
    if len(lengths) > 1:
        raise ValueError(f"per-row columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 1
    if rows == 0:
        raise ValueError("no records to emit")
    texts, columns = [""], []
    for key, column in zip(keys, table.values()):
        texts[-1] += key
        if isinstance(column, list):
            columns.append(column)
            texts.append("")
        else:
            texts[-1] += cell(column)
    fragments = _workers.run_timed(_render_rows, rows, texts, cell, floats, between,
                                   sliced=tuple(columns))
    parts = [head]
    for fragment in fragments:
        parts += (fragment, between)
    parts[-1] = tail
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        fh.writelines(parts)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; argparse copies the ``--set`` list on each parse.
    A flag named after a config key sets it; a mode has such flags only for its keys."""
    parser = argparse.ArgumentParser(
        prog="bvlab",
        description="bias-variance decomposition laboratory",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, config_type in _CONFIGS.items():
        keys = {f.name for f in fields(config_type)}
        mode_parser = sub.add_parser(mode)
        mode_parser.add_argument("--config", help="flat key=value config file")
        mode_parser.add_argument("--out", help="output path (default: stdout)")
        mode_parser.add_argument("--format", choices=("csv", "json"))
        if "seed" in keys:
            mode_parser.add_argument("--seed", type=int)
        if "input" in keys:
            mode_parser.add_argument("--input", help="prediction dump (JSON)")
        if mode == "mlp-sweep":
            mode_parser.add_argument(
                "--threads", type=int, default=1,
                help="accepted for old scripts; must be >= 1 and changes nothing",
            )
        mode_parser.add_argument(
            "--timings", action="store_true", default=None,
            help="fill the wall_time_s column (breaks byte-identical reruns)",
        )
        mode_parser.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key of this mode (repeatable; flags win)",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    keys = {f.name for f in fields(_CONFIGS[args.mode])}
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        pairs = parse_config_file(args.config) if args.config else {}
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
            key, value = override.split("=", 1)
            pairs[key.strip()] = value.strip()
        pairs.update((key, str(value)) for key, value in vars(args).items()
                     if key in keys and value is not None)
        config = build_config(args.mode, pairs)
    except (ConfigError, OSError) as exc:
        print(f"bvlab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(run_config(config), config.out or None, config.format)
    except ConfigError as exc:
        print(f"bvlab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- downstream module errors carry context
        print(f"bvlab: [{args.mode}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
