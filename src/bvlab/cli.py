"""Command-line front end: theory sweeps, simulations, MLP sweeps, decomposition.

Subcommands
-----------
theory      evaluate the closed-form decomposition on a (lambda0, gamma) grid
simulate    Monte Carlo the two-layer network on a (lambda0, p) grid
mlp-sweep   train MLP ensembles across widths and decompose their test loss
decompose   decompose a dumped prediction ensemble (JSON file)

Every run is described by a flat ``key = value`` config file; command-line
flags override config values (``--set key=value`` works for any key).
Each run yields a column table (:data:`Table`) with the columns

    mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,wall_time_s

which :func:`emit` writes column by column as CSV (that header, floats at 9
significant digits, unused columns empty) or as a compact one-line JSON
array of row objects with the same keys.  The wall_time_s column is filled
only when ``--timings`` (or ``timings = on``) is set, so default reruns of
one config produce byte-identical files.  It holds each row's own run time,
except in theory mode, where the whole grid is evaluated at once and every
row holds that evaluation's time divided by the number of rows.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import estimators, mlp, theory, twolayer

__all__ = ["ConfigError", "SweepConfig", "Table", "run_config", "emit", "main"]

CSV_HEADER = "mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,wall_time_s"
_COLUMNS = tuple(CSV_HEADER.split(","))

# A column table: column name -> a list with one value per row, or a single
# value that every row shares (None renders as an empty cell).
Table = dict[str, object]

MODES = ("theory", "simulate", "mlp-sweep", "decompose")


class ConfigError(ValueError):
    """A sweep configuration is missing or malformed; names the field."""


@dataclass
class SweepConfig:
    """Validated description of one run; see the module docstring for keys."""

    mode: str
    lambda0_grid: Optional[list[float]] = None
    gamma_grid: Optional[list[float]] = None
    widths: Optional[list[int]] = None
    d: Optional[int] = None
    n: Optional[int] = None
    p_grid: Optional[list[int]] = None
    trials: Optional[int] = None
    seed: int = 0
    d_in: Optional[int] = None
    classes: Optional[int] = None
    pool_size: Optional[int] = None
    test_size: Optional[int] = None
    margin: Optional[float] = None
    noise_p: float = 0.0
    parts: Optional[int] = None
    repeats: Optional[int] = None
    epochs: Optional[int] = None
    initial_lr: Optional[float] = None
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_factor: float = 10.0
    lr_decay_every: Optional[int] = None
    batch_size: int = 128
    input_path: Optional[str] = None
    out_path: Optional[str] = None
    emit_format: str = "csv"
    threads: int = 1
    timings: bool = False

    def _require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"mode {self.mode!r} requires config field {name!r}")

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (choose from {MODES})")
        if self.emit_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.emit_format!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.mode == "theory":
            self._require("lambda0_grid", "gamma_grid")
            if not all(min(grid, default=1.0) > 0
                       for grid in (self.lambda0_grid, self.gamma_grid)):
                raise ConfigError("lambda0 and gamma values must be positive")
        elif self.mode == "simulate":
            self._require("lambda0_grid", "d", "n", "p_grid", "trials")
            if self.trials < 2:
                raise ConfigError(f"trials must be >= 2, got {self.trials}")
            if min(self.p_grid) < 1 or self.d < 1 or self.n < 1:
                raise ConfigError("d, n and all p values must be positive")
        elif self.mode == "mlp-sweep":
            self._require(
                "widths", "d_in", "classes", "pool_size", "test_size",
                "margin", "parts", "repeats", "epochs", "initial_lr",
                "lr_decay_every",
            )
            if not 0.0 <= self.noise_p <= 1.0:
                raise ConfigError(f"noise_p must lie in [0, 1], got {self.noise_p}")
        elif self.mode == "decompose":
            self._require("input_path")


def _parse_finite(token: str, name: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"{name}: not a number: {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name}: not a finite number: {token!r}")
    return value


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
            # short of, without running past it.
            span = (stop - start) / step + 1e-9
            if not math.isfinite(span):
                raise ConfigError(f"{name}: range {token!r} overflows")
            values.extend(start + k * step for k in range(math.floor(span) + 1))
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


_INT_KEYS = {
    "d", "n", "trials", "seed", "d_in", "classes", "pool_size", "test_size",
    "parts", "repeats", "epochs", "lr_decay_every", "batch_size", "threads",
}
_FLOAT_KEYS = {
    "margin", "noise_p", "initial_lr", "momentum", "weight_decay",
    "lr_decay_factor",
}
_KEY_ALIASES = {
    "lambda0": "lambda0_grid",
    "gamma": "gamma_grid",
    "p": "p_grid",
    "input": "input_path",
    "out": "out_path",
    "format": "emit_format",
}


def build_config(mode: str, pairs: dict[str, str]) -> SweepConfig:
    """Turn raw key/value strings into a validated :class:`SweepConfig`."""
    cfg = SweepConfig(mode=mode)
    known = {f.name for f in fields(SweepConfig)}
    for raw_key, raw_value in pairs.items():
        key = _KEY_ALIASES.get(raw_key, raw_key)
        if key == "mode":
            if raw_value != mode:
                raise ConfigError(
                    f"config file says mode={raw_value!r} but the {mode!r} "
                    "subcommand was invoked"
                )
            continue
        if key not in known:
            raise ConfigError(f"unknown config field {raw_key!r}")
        if key in ("lambda0_grid", "gamma_grid"):
            value = _parse_scalar_list(raw_value, raw_key)
        elif key in ("p_grid", "widths"):
            value = _parse_int_list(raw_value, raw_key)
        elif key in _INT_KEYS:
            try:
                value = int(raw_value)
            except ValueError as exc:
                raise ConfigError(f"{raw_key}: not an integer: {raw_value!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                value = float(raw_value)
            except ValueError as exc:
                raise ConfigError(f"{raw_key}: not a number: {raw_value!r}") from exc
        elif key == "timings":
            value = _parse_bool(raw_value, raw_key)
        else:
            value = raw_value
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _clock(cfg: SweepConfig, started: float, rows: int = 1) -> Optional[float]:
    if not cfg.timings:
        return None
    return round((time.perf_counter() - started) / rows, 9)


def _table(mode: str, names: Sequence[str] = (), rows: Sequence[tuple] = (),
           **columns) -> Table:
    """A column table in ``CSV_HEADER`` order: ``columns``, plus one column per
    entry of ``names`` taken from the ``rows`` tuples; the rest hold None."""
    columns.update(zip(names, map(list, zip(*rows))), mode=mode)
    return {name: columns.get(name) for name in _COLUMNS}


def _run_theory(cfg: SweepConfig) -> Table:
    started = time.perf_counter()
    bias_sq, variance, risk, *_ = theory.closed_form(
        np.asarray(cfg.lambda0_grid)[:, None], np.asarray(cfg.gamma_grid))
    wall_time_s = _clock(cfg, started, risk.size)
    # Each grid value is one float object, however often it repeats: emit renders it once.
    return _table(
        "theory", lambda0=[lam0 for lam0 in cfg.lambda0_grid for _ in cfg.gamma_grid],
        gamma=cfg.gamma_grid * len(cfg.lambda0_grid), risk=risk.ravel().tolist(),
        bias_sq=bias_sq.ravel().tolist(), variance=variance.ravel().tolist(),
        wall_time_s=wall_time_s,
    )


def _run_simulate(cfg: SweepConfig) -> Table:
    rows = []
    for lam0 in cfg.lambda0_grid:
        for p in cfg.p_grid:
            started = time.perf_counter()
            dims = twolayer.ModelDims(d=cfg.d, n=cfg.n, p=p, lambda0=lam0)
            stats = twolayer.mc_bias_variance(dims, cfg.trials, cfg.seed)
            rows.append((lam0, dims.gamma, p, stats.risk, stats.bias_sq, stats.variance,
                         _clock(cfg, started)))
    return _table(
        "simulate", ("lambda0", "gamma", "p", "risk", "bias_sq", "variance", "wall_time_s"),
        rows, d=cfg.d, n=cfg.n, trials=cfg.trials, seed=cfg.seed,
    )


def _run_mlp_sweep(cfg: SweepConfig) -> Table:
    pool = mlp.synth_dataset(
        cfg.d_in, cfg.pool_size, cfg.classes, cfg.margin, cfg.seed * 2 + 1
    )
    test = mlp.synth_dataset(
        cfg.d_in, cfg.test_size, cfg.classes, cfg.margin, cfg.seed * 2 + 2
    )
    if cfg.noise_p > 0.0:
        noisy = mlp.inject_label_noise(
            pool.labels, cfg.noise_p, cfg.classes, cfg.seed * 2 + 3
        )
        pool = mlp.LabeledDataset(pool.inputs, noisy, pool.provenance)
    plan = estimators.plan_splits(len(pool), cfg.parts, cfg.repeats, cfg.seed)
    train_cfg = mlp.TrainConfig(
        epochs=cfg.epochs,
        initial_lr=cfg.initial_lr,
        lr_decay_every=cfg.lr_decay_every,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        lr_decay_factor=cfg.lr_decay_factor,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    rows = []
    for width in cfg.widths:
        started = time.perf_counter()
        (_, result), = mlp.width_sweep(
            [width], pool, test, plan, train_cfg, max_workers=cfg.threads
        )
        rows.append((width, result.risk, result.bias_sq, result.variance,
                     _clock(cfg, started)))
    return _table(
        "mlp-sweep", ("width", "risk", "bias_sq", "variance", "wall_time_s"), rows, d=cfg.d_in,
        n=plan.part_size, noise_p=cfg.noise_p, trials=plan.model_count, seed=cfg.seed)


def _load_dump(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    with open(path, "r", encoding="utf-8") as fh:
        dump = json.load(fh)
    for field_name in ("test_count", "k", "N", "c", "outputs", "labels", "kind"):
        if field_name not in dump:
            raise ConfigError(f"prediction dump is missing field {field_name!r}")
    kind = dump["kind"]
    if kind not in ("real", "simplex"):
        raise ConfigError(f"dump kind must be 'real' or 'simplex', got {kind!r}")
    shape = (dump["test_count"], dump["k"], dump["N"], dump["c"])
    outputs = np.asarray(dump["outputs"], dtype=np.float64)
    if outputs.shape != shape:
        raise ConfigError(
            f"dump outputs have shape {outputs.shape}, expected {shape}"
        )
    labels = np.asarray(dump["labels"], dtype=np.float64)
    if labels.shape != (dump["test_count"], dump["c"]):
        raise ConfigError(
            f"dump labels have shape {labels.shape}, expected "
            f"({dump['test_count']}, {dump['c']})"
        )
    return outputs, labels, kind


def _run_decompose(cfg: SweepConfig) -> Table:
    started = time.perf_counter()
    outputs, labels, kind = _load_dump(cfg.input_path)
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
    "theory": _run_theory,
    "simulate": _run_simulate,
    "mlp-sweep": _run_mlp_sweep,
    "decompose": _run_decompose,
}


def run_config(config: SweepConfig) -> Table:
    """Dispatch a validated config to its runner; rows come back in
    deterministic grid order."""
    config.validate()
    return _RUNNERS[config.mode](config)


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
    """The column's cell texts; each distinct object in it is rendered once."""
    distinct = dict(zip(map(id, column), column))
    values = column if len(distinct) == len(column) else list(distinct.values())
    texts = floats(values) if set(map(type, values)) == {float} else list(map(cell, values))
    if values is column:
        return texts
    text_of = dict(zip(distinct, texts))
    return list(map(text_of.__getitem__, map(id, column)))


def emit(table: Table, path: Optional[str], emit_format: str) -> None:
    """Write a column table to ``path`` (stdout when None) as CSV or JSON.

    CSV has a header of the table's column names and floats at 9 significant
    digits.  JSON is, byte for byte, what :func:`json.dumps` writes for the
    list of row objects: one line, floats at full precision, so it loads back
    to the table exactly.  Each column is rendered in one pass, a shared one
    once, and one join interleaves the cells into rows.
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
    # A row is texts[0] cells[0] texts[1] ... cells[-1] texts[-1].
    texts, cells = [""], []
    for key, column in zip(keys, table.values()):
        texts[-1] += key
        if isinstance(column, list):
            cells.append(_render(column, cell, floats))
            texts.append("")
        else:
            texts[-1] += cell(column)
    last = texts.pop()
    streams = [s for text, column in zip(texts, cells)
               for s in (itertools.repeat(text, rows), column)]
    streams.append([last + between] * (rows - 1) + [last + tail])
    payload = head + "".join(itertools.chain.from_iterable(zip(*streams)))
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; argparse copies the ``--set`` list on each parse."""
    parser = argparse.ArgumentParser(
        prog="bvlab",
        description="bias-variance decomposition laboratory",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        mode_parser = sub.add_parser(mode)
        mode_parser.add_argument("--config", help="flat key=value config file")
        mode_parser.add_argument("--out", help="output path (default: stdout)")
        mode_parser.add_argument("--format", choices=("csv", "json"), dest="emit_format")
        mode_parser.add_argument("--seed", type=int)
        mode_parser.add_argument("--threads", type=int)
        mode_parser.add_argument(
            "--timings", action="store_true", default=None,
            help="fill the wall_time_s column (breaks byte-identical reruns)",
        )
        mode_parser.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override any config field (repeatable; flags win)",
        )
        if mode == "decompose":
            mode_parser.add_argument("--input", dest="input_path",
                                     help="prediction dump (JSON)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        pairs = parse_config_file(args.config) if args.config else {}
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
            key, value = override.split("=", 1)
            pairs[key.strip()] = value.strip()
        for flag in ("out_path", "emit_format", "seed", "threads", "timings", "input_path"):
            value = getattr(args, flag if flag != "out_path" else "out", None)
            if value is not None:
                pairs[_KEY_ALIASES.get(flag, flag)] = str(value)
        config = build_config(args.mode, pairs)
    except (ConfigError, OSError) as exc:
        print(f"bvlab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(run_config(config), config.out_path or None, config.emit_format)
    except ConfigError as exc:
        print(f"bvlab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- downstream module errors carry context
        print(f"bvlab: [{config.mode}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
