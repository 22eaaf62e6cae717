"""Reader of the prediction dumps that ``bvlab decompose`` decomposes.

A dump is one JSON object (the README's "Prediction dump format").  Its
number arrays ``outputs`` and ``labels`` hold nearly all of its bytes, so
they are read straight into float64 arrays rather than through :mod:`json`,
which builds a Python float and a list entry per value: on a 32 MB dump of
1.6 million values, ``json.load`` took 0.75 s of a 1 s ``decompose``.  The
rest of the object, the header, goes through :mod:`json`.

An array is read in three steps:

1. Its end is the last ``]`` before the next ``"`` of the file (a number
   array holds none), or before the end of the file.
2. It is cut at commas into chunks of at most 128 KB, and each chunk is
   read in one pass: its skeleton, its ``[``, ``]`` and ``,`` bytes in
   order, and its entries, which, once checked for empty ones, are parsed
   by ``np.fromstring`` with the brackets blanked.  Its decimal-to-double
   conversion is CPython's correctly rounded one (``PyOS_string_to_double``),
   the one ``float()``, and so :mod:`json`, uses; so the arrays hold the
   bits of ``np.asarray(json.load(...))``.  The parser takes JSON's
   numbers, ``NaN``, ``Infinity`` and ``-Infinity``, and also ``+1``,
   ``.5``, ``1.``, ``01``, and ``nan``, ``inf`` and ``infinity`` in any
   case.  The one difference in bits: ``-0`` reads as -0.0, where
   :mod:`json` reads the integer 0.
3. The chunks' skeletons, joined by commas, must equal the skeleton of the
   shape the header declares.  Then the array is neither ragged nor of
   another shape, and its chunks' entries, one after another, are its
   entries in C order.  Only once both arrays pass is a chunk with an entry
   that is not a number named.

The chunks are read by :func:`bvlab._workers.run_timed`: the first ones
here, timed, and the rest, when they take long enough, over the worker
processes in contiguous blocks of chunks (a small dump's at once, once the
workers run).  Each chunk is a
:class:`pickle.PickleBuffer` view of the file's bytes, so a worker is sent
only its own chunks' bytes, copied once into its request, and unpickles each
as ``bytes``.  No Python object is made per value.  Beyond the file's
bytes and the arrays, a parse holds each chunk's skeleton and values, a
chunk's temporaries per process and, when split, the bytes sent to each
worker.
"""

from __future__ import annotations

import json
import math
import pickle
import re
import reprlib
from typing import Optional

import numpy as np

from . import _workers

_ARRAYS = ("outputs", "labels")
_SIZES = ("test_count", "k", "N", "c")
_FIELDS = (*_SIZES, "outputs", "labels", "kind")

# Bytes of number text per chunk, at most; a parse has at least one chunk per
# CPU.  A chunk's temporaries (its bytes, their copies without spacing and
# with blanked brackets, its skeleton and parsed values) are about three
# times this.  Chunks are the units a split is timed by and cut into, so one
# (2-3 ms on a 2-vCPU VM) is a small share of the 40-60 ms a 3 MB dump takes
# to parse.
_CHUNK = 1 << 17

_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
_NOT_SKELETON = bytes(sorted(set(range(256)) - set(b"[],")))
_SPACING = b"[] \t\n\r\v\f"  # brackets and every byte np.fromstring skips as space

_SPACE = re.compile(rb"[ \t\n\r]*")
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)  # escapes checked by json
_NESTING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]', re.DOTALL)
_SCALAR = re.compile(rb'[^][{}",: \t\n\r]+')
# What follows an object member: the closing brace, or a comma and the next name.
_NEXT_MEMBER = re.compile(rb'[ \t\n\r]*(?:}|,[ \t\n\r]*"[^"\\]*(?:\\.[^"\\]*)*"[ \t\n\r]*:)',
                          re.DOTALL)


def read_dump(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    """``(outputs, labels, kind)`` of the dump at ``path``.

    Raises:
        ValueError: the dump is malformed; the message names the field.
        OSError: the file cannot be read.
        RuntimeError: a worker process died.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header, spans = _top_level(data)
    for name in _FIELDS:
        if name not in header and name not in spans:
            raise ValueError(f"prediction dump is missing field {name!r}")
    for name in _SIZES:
        value = header[name]
        if type(value) is not int or value < 1:
            raise ValueError(f"dump field {name!r} must be a positive integer, "
                             f"got {reprlib.repr(value)}")
    kind = header["kind"]
    if kind not in ("real", "simplex"):
        raise ValueError(f"dump kind must be 'real' or 'simplex', got {reprlib.repr(kind)}")
    test_count, k, parts, c = (header[name] for name in _SIZES)
    shapes = {"outputs": (test_count, k, parts, c), "labels": (test_count, c)}
    for name, shape in shapes.items():
        if name not in spans:
            raise ValueError(_malformed(name, shape, "it is not an array of numbers"))
    names = sorted(shapes, key=lambda name: spans[name][0])  # in file order
    text_bytes = sum(spans[name][1] - spans[name][0] for name in names)
    size = min(_CHUNK, -(-text_bytes // _workers.available()))
    pieces = {name: _cut(data, *spans[name], size) for name in names}
    view = memoryview(data)
    # Each view pickles as bytes: a worker is sent only its own chunks.
    chunks = [pickle.PickleBuffer(view[start:stop])
              for name in names for start, stop in pieces[name]]
    blocks = _workers.run_timed(_parse_chunks, len(chunks), sliced=(chunks,))
    results = (result for block in blocks for result in block)
    parsed = {name: [next(results) for _ in pieces[name]] for name in names}
    for name in names:
        shape, skeletons = shapes[name], [skeleton for skeleton, _ in parsed[name]]
        if (sum(map(len, skeletons)) + len(skeletons) - 1 != _skeleton_length(shape)
                or b",".join(skeletons) != _skeleton(shape)):
            raise ValueError(_malformed(name, shape, "its nesting or lengths differ"))
    for name in names:
        for (start, stop), (_, entries) in zip(pieces[name], parsed[name]):
            if entries is None:
                raise ValueError(_malformed(name, shapes[name], f"an entry in bytes "
                                            f"{start}-{stop - 1} is not a number"))
    values = np.concatenate([entries for name in names for _, entries in parsed[name]])
    first = math.prod(shapes[names[0]])
    arrays = dict(zip(names, (values[:first], values[first:])))  # views of one buffer
    outputs, labels = (arrays[name].reshape(shapes[name]) for name in _ARRAYS)
    return outputs, labels, kind


def _malformed(name: str, shape: tuple[int, ...], problem: str) -> str:
    return f"dump {name} must be an array of numbers of shape {shape}: {problem}"


def _skip(data: bytes, pos: int) -> int:
    return _SPACE.match(data, pos).end()


def _top_level(data: bytes) -> tuple[dict, dict[str, tuple[int, int]]]:
    """The members of the dump's object: ``(header, spans)``.

    ``spans`` maps ``outputs`` and ``labels``, when they are number arrays,
    to their file bytes ``(start, end)``; ``header`` maps every other member
    to its value.  A repeated name keeps its last value, as in :mod:`json`.
    """
    header: dict = {}
    spans: dict[str, tuple[int, int]] = {}
    pos = _skip(data, 0)
    if data[pos:pos + 1] != b"{":
        raise ValueError("prediction dump must be a JSON object")
    pos = _skip(data, pos + 1)
    if data[pos:pos + 1] == b"}":
        pos += 1
    else:
        pos = _members(data, pos, header, spans)
    pos = _skip(data, pos)
    if pos != len(data):
        raise ValueError(f"prediction dump: extra data after its object, at byte {pos}")
    return header, spans


def _members(data: bytes, pos: int, header: dict, spans: dict) -> int:
    """Read the members from ``pos`` into ``header`` and ``spans``; the
    position after the object's closing ``}``."""
    while True:
        match = _STRING.match(data, pos)
        if match is None:
            raise ValueError(f"prediction dump: expected a field name at byte {pos}")
        key = json.loads(match.group())
        pos = _skip(data, match.end())
        if data[pos:pos + 1] != b":":
            raise ValueError(f"prediction dump: expected ':' after field {key!r}")
        start = _skip(data, pos + 1)
        end = _array_end(data, start) if key in _ARRAYS else None
        if end is not None:
            spans[key] = (start, end)
            header.pop(key, None)
        else:
            end = _value_end(data, start, key)
            try:
                header[key] = json.loads(data[start:end])
            except ValueError as exc:
                raise ValueError(f"dump field {key!r} is not valid JSON: {exc}") from None
            spans.pop(key, None)
        pos = _skip(data, end)
        separator = data[pos:pos + 1]
        if separator == b"}":
            return pos + 1
        if separator != b",":
            raise ValueError(f"prediction dump: expected ',' or '}}' after field {key!r}")
        pos = _skip(data, pos + 1)


def _array_end(data: bytes, start: int) -> Optional[int]:
    """End of the number array at ``start``: just past the last ``]`` before
    the next ``"``.  None unless the next member or the closing ``}``
    follows it, as when the array holds a string; :func:`_value_end` then
    reads it."""
    if data[start:start + 1] != b"[":
        return None
    stop = data.find(b'"', start)
    end = data.rfind(b"]", start, len(data) if stop < 0 else stop) + 1
    return end if end and _NEXT_MEMBER.match(data, end) else None


def _value_end(data: bytes, start: int, key: str) -> int:
    """End of the JSON value at ``start``, found by its tokens; :mod:`json`
    then checks it."""
    head = data[start:start + 1]
    if head in (b"[", b"{"):
        depth = 0
        for token in _NESTING.finditer(data, start):
            depth += {b"[": 1, b"{": 1, b"]": -1, b"}": -1}.get(token.group(), 0)
            if depth == 0:
                return token.end()
        raise ValueError(f"dump field {key!r} is not closed")
    match = (_STRING if head == b'"' else _SCALAR).match(data, start)
    if match is None:
        raise ValueError(f"dump field {key!r} has no value")
    return match.end()


def _skeleton_length(shape: tuple[int, ...]) -> int:
    """Bytes in the skeleton of ``shape``: a ``[`` and a ``]`` per list, and a
    comma between each two neighbouring entries of the flattened array."""
    lists = sum(math.prod(shape[:depth]) for depth in range(len(shape)))
    return 2 * lists + math.prod(shape) - 1


def _skeleton(shape: tuple[int, ...]) -> bytes:
    text = b"[" + b"," * (shape[-1] - 1) + b"]"
    for size in reversed(shape[:-1]):
        text = b"[" + b",".join([text] * size) + b"]"
    return text


def _cut(data: bytes, start: int, end: int, size: int) -> list[tuple[int, int]]:
    """``data[start:end]`` cut at commas into chunks of about ``size`` bytes:
    ``(start, stop)`` each."""
    bounds = []
    while True:
        cut = data.find(b",", start + size, end) if start + size < end else -1
        bounds.append((start, end if cut < 0 else cut))
        if cut < 0:
            return bounds
        start = cut + 1


def _parse_chunks(lo: int, hi: int, chunks: list) -> list[tuple[bytes, Optional[np.ndarray]]]:
    """``(skeleton, values)`` of each chunk of a block: its ``[``, ``]`` and
    ``,`` bytes in order, and its entries, or None if one is not a number."""
    parsed = []
    for chunk in chunks:
        text = bytes(chunk)  # a worker's chunk is bytes already: not copied
        skeleton = text.translate(None, _NOT_SKELETON)
        parsed.append((skeleton, _numbers(text, skeleton.count(b",") + 1)))
    return parsed


def _numbers(text: bytes, count: int) -> Optional[np.ndarray]:
    """The ``count`` comma-separated entries of ``text``, brackets ignored,
    or None if one is not a number."""
    # np.fromstring reads an entry of only white space as -1.
    dense = text.translate(None, _SPACING)
    if not dense or dense[:1] == b"," or dense[-1:] == b"," or b",," in dense:
        return None
    # The extra entry ",0" must be read too: where the last entry has
    # trailing bytes, older NumPy versions warn and return what they read.
    try:
        parsed = np.fromstring(text.translate(_BLANK_BRACKETS) + b",0", sep=",")
    except ValueError:
        return None
    return parsed[:-1] if parsed.size == count + 1 else None
