"""Spans around the calls into bvlab's modules, recorded from outside the program.

The tracer replaces module attributes with timing wrappers.  Where a module
imports a function by name (``from .seeding import spawn_rng``), the name is
patched where the caller looks it up, e.g. ``bvlab.twolayer.spawn_rng``.

Each span records its name, start, end and parent span, and the tracer keeps
per-name totals of calls, time and self time (time not covered by child
spans).  Functions called tens of thousands of times per round
(``theory_point``, ``spawn_rng``) are *hot*: they are leaves, update the
totals and their parent's child time, but store no span of their own, so the
span list stays small.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time

LAYERS = ("cli", "twolayer", "seeding", "theory", "mlp", "estimators")


def patch_points(bv) -> list[tuple[object, str, str, bool]]:
    """(owner, attribute, span name, hot) for every traced call site."""
    cli, twolayer, mlp, estimators, theory = (
        bv.cli, bv.twolayer, bv.mlp, bv.estimators, bv.theory)
    points = [
        (cli, name, f"cli.{name}", False)
        for name in ("main", "parse_config_file", "build_config", "run_config", "emit")
    ]
    points += [
        (twolayer, name, f"twolayer.{name}", False)
        for name in ("mc_bias_variance", "mc_risk_mtilde", "sample_instance",
                     "m_matrix", "m_tilde", "ridge_fit")
    ]
    points += [(module, "spawn_rng", "seeding.spawn_rng", True)
               for module in (twolayer, mlp, estimators)]
    points.append((mlp, "derive_seed", "seeding.derive_seed", True))
    points += [
        (mlp, name, f"mlp.{name}", False)
        for name in ("width_sweep", "train_sgd", "init_mlp", "predict_probabilities",
                     "synth_dataset", "inject_label_noise", "loss_and_gradients")
    ]
    points += [
        (estimators, name, f"estimators.{name}", False)
        for name in ("estimate_mse_decomposition", "estimate_kl_decomposition",
                     "plan_splits")
    ]
    points.append((mlp, "estimate_mse_decomposition",
                   "estimators.estimate_mse_decomposition", False))
    points.append((estimators.ProbabilityEnsemble, "from_predictions",
                   "estimators.from_predictions", False))
    points += [
        (theory, "theory_point", "theory.theory_point", True),
        (theory, "mp_risk", "theory.mp_risk", True),
        (theory, "variance_peak", "theory.variance_peak", False),
    ]
    return points


class Tracer:
    """Records spans and per-name totals; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.totals: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, name: str, dur: float, self_time: float) -> None:
        with self._lock:
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += dur
            total[2] += self_time

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1][1] if stack else 0
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            self._finish(name, dur, dur - frame[0])
            self.spans.append((frame[1], parent, name, start, end, dur - frame[0]))

    def wrap(self, name: str, fn, hot: bool):
        if not hot:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return traced

        def traced_leaf(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack = self._stack()
                if stack:
                    stack[-1][0] += dur
                self._finish(name, dur, dur)
        return traced_leaf

    def install(self, bv) -> None:
        for owner, attr, name, hot in patch_points(bv):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, hot))
            else:
                wrapped = self.wrap(name, original, hot)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrapped_calls(self) -> tuple[int, int]:
        """(calls that stored a span, hot calls) recorded so far."""
        return len(self.spans), sum(int(t[0]) for t in self.totals.values()) - len(self.spans)


def per_call_overhead(calls: int = 20_000) -> tuple[float, float]:
    """Seconds a wrapper adds per call: (span-storing, hot), medians of 5."""
    def noop():
        return None

    def per_call(fn) -> float:
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) / calls)
        return sorted(samples)[2]

    tracer = Tracer()
    bare = per_call(noop)
    full = per_call(tracer.wrap("calibrate", noop, hot=False))
    tracer.spans.clear()
    leaf = per_call(tracer.wrap("calibrate", noop, hot=True))
    return max(full - bare, 0.0), max(leaf - bare, 0.0)


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer figures from a trace file's spans and totals.

    Returns totals by span name (``<name>.calls``, ``<name>.s``), each layer's
    self time (``layer.<layer>.self_s``) and ``cli.parse_dump.s``: the self
    time of ``cli.run_config`` inside decompose operations, which is the time
    spent reading the dump.
    """
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, total, self_time) in trace["totals"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_time
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value

    names = {span[0]: span[2] for span in trace["spans"]}
    parents = {span[0]: span[1] for span in trace["spans"]}

    def root(span_id: int) -> str:
        while parents.get(span_id, 0):
            span_id = parents[span_id]
        return names.get(span_id, "")

    out["cli.parse_dump.s"] = sum(
        span[5] for span in trace["spans"]
        if span[2] == "cli.run_config" and root(span[0]) == "op.decompose"
    )
    return out
