"""Seeded prediction dumps for ``bvlab decompose``.

A dump holds one output vector per (test point, repeat, part) and one-hot
labels.  ``real`` outputs are Gaussian: the one-hot label, plus a shift per
test point that all models share (the bias), plus noise per model (the
variance).  ``simplex`` outputs are the softmax of Gaussian logits built the
same way, with the true class raised.  The same seed gives the same arrays
and the same bytes.
"""

from __future__ import annotations

import json

import numpy as np


def make_dump(kind: str, shape: tuple[int, int, int, int], seed: int):
    """(outputs, one-hot labels) of the given shape (test_count, k, N, c)."""
    test_count, k, parts, c = shape
    rng = np.random.default_rng([seed % (1 << 62), 0 if kind == "real" else 1])
    labels = np.eye(c)[rng.integers(0, c, size=test_count)]
    shared = rng.normal(0.0, 0.5, size=(test_count, 1, 1, c))
    member = rng.normal(0.0, 0.7, size=(test_count, k, parts, c))
    if kind == "real":
        outputs = labels[:, None, None, :] + shared + member
    elif kind == "simplex":
        logits = 1.5 * labels[:, None, None, :] + 2.0 * shared + 1.5 * member
        logits -= logits.max(axis=3, keepdims=True)
        outputs = np.exp(logits)
        outputs /= outputs.sum(axis=3, keepdims=True)
    else:
        raise ValueError(f"unknown dump kind {kind!r}")
    return outputs, labels


def write_dump(path: str, kind: str, outputs: np.ndarray, labels: np.ndarray) -> None:
    """Write the JSON layout ``bvlab decompose`` reads."""
    test_count, k, parts, c = outputs.shape
    dump = dict(test_count=test_count, k=k, N=parts, c=c, kind=kind,
                outputs=outputs.tolist(), labels=labels.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dump))  # one-shot C encoder: twice as fast as json.dump
