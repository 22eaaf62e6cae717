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
2. Its skeleton, its ``[``, ``]`` and ``,`` bytes in order, must equal the
   skeleton of the shape the header declares.  Then the array is neither
   ragged nor of another shape, and with its brackets blanked it is a flat
   comma-separated list of its entries in C order.
3. That list is cut at commas into chunks of about 128 KB, and each chunk,
   once checked for empty entries, is parsed by ``np.fromstring``.  Its
   decimal-to-double conversion is CPython's correctly rounded one
   (``PyOS_string_to_double``), the one ``float()``, and so :mod:`json`,
   uses; so the arrays hold the bits of ``np.asarray(json.load(...))``.
   The parser takes JSON's numbers, ``NaN``, ``Infinity`` and
   ``-Infinity``, and also ``+1``, ``.5``, ``1.``, ``01``, and ``nan``,
   ``inf`` and ``infinity`` in any case.  The one difference in bits: ``-0``
   reads as -0.0, where :mod:`json` reads the integer 0.

The chunks are parsed by :func:`bvlab._workers.run_timed`: the first ones
here, timed, and the rest, when they take long enough, over the worker
processes in contiguous blocks of chunks; a worker is sent only the bytes
its chunks span.  No Python object is made per value.  Beyond the file's
bytes and the arrays, a parse holds a chunk's temporaries per process and,
when split, the bytes sent to each worker and the values it sends back.
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
# CPU.  A chunk's temporaries (its bytes, their copy with blanked brackets,
# its parsed values) are about three times this.  Chunks are the units a
# split is timed by and cut into, so one (2-3 ms on a 2-vCPU VM) is a small
# share of the 40-60 ms a 3 MB dump takes to parse.
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
    pieces: list[tuple[int, int, int, int]] = []
    offsets = {}
    first = 0
    for name in names:
        offsets[name] = first
        pieces += _pieces(data, *spans[name], size, name, shapes[name], first)
        first += math.prod(shapes[name])
    values = np.empty(first)
    try:
        parts_done = _workers.run_timed(_parse_chunks, len(pieces),
                                        sliced=(_Chunks(data, pieces, out=values),))
    except _NotANumber as exc:
        start, stop = exc.args
        name = next(name for name in names if spans[name][0] <= start < spans[name][1])
        raise ValueError(_malformed(name, shapes[name], f"an entry in bytes {start}-{stop - 1} "
                                    "is not a number")) from None
    for at, block in parts_done:
        if block is not None:  # parsed in a worker
            values[at:at + block.size] = block
    outputs, labels = (values[offsets[name]:offsets[name] + math.prod(shapes[name])]
                       .reshape(shapes[name]) for name in _ARRAYS)
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


def _pieces(data: bytes, start: int, end: int, size: int, name: str,
            shape: tuple[int, ...], first: int) -> list[tuple[int, int, int, int]]:
    """``data[start:end]``, an array of ``shape``, cut at commas into chunks of
    about ``size`` bytes: ``(start, stop, first value, value count)`` each."""
    bounds = []
    while True:
        cut = data.find(b",", start + size, end) if start + size < end else -1
        bounds.append((start, end if cut < 0 else cut))
        if cut < 0:
            break
        start = cut + 1
    skeletons = [data[a:b].translate(None, _NOT_SKELETON) for a, b in bounds]
    if (sum(map(len, skeletons)) + len(skeletons) - 1 != _skeleton_length(shape)
            or b",".join(skeletons) != _skeleton(shape)):
        raise ValueError(_malformed(name, shape, "its nesting or lengths differ"))
    pieces = []
    for (a, b), skeleton in zip(bounds, skeletons):
        count = skeleton.count(b",") + 1
        pieces.append((a, b, first, count))
        first += count
    return pieces


class _NotANumber(ValueError):
    """An entry of the chunk in file bytes ``args = (start, stop)`` is not a number."""


class _Chunks:
    """Chunks of a dump's number arrays, one per index of a split.

    ``pieces`` are ``(start, stop, first, count)``: a chunk's file bytes, the
    index of its first value and its value count; byte ``i`` of the file is
    ``text[i - base]``.  ``out`` receives the values in this process; a
    pickle, which is how a worker receives its block, holds only the bytes
    the pieces span and no ``out``.
    """

    def __init__(self, text: bytes, pieces: list, base: int = 0,
                 out: Optional[np.ndarray] = None) -> None:
        self.text, self.pieces, self.base, self.out = text, pieces, base, out

    def __len__(self) -> int:
        return len(self.pieces)

    def __getitem__(self, index: slice) -> _Chunks:
        return _Chunks(self.text, self.pieces[index], self.base, self.out)

    def __reduce__(self):
        lo, hi = self.pieces[0][0] - self.base, self.pieces[-1][1] - self.base
        # Copied once, into the pickle (protocol 5), not first into a slice.
        span = pickle.PickleBuffer(memoryview(self.text)[lo:hi])
        return _Chunks, (span, self.pieces, self.base + lo)


def _parse_chunks(lo: int, hi: int, chunks: _Chunks) -> tuple[int, Optional[np.ndarray]]:
    """Parse a block of chunks: ``(first value index, values)``, with values
    None when they went into ``chunks.out``.

    Raises:
        _NotANumber: for the first chunk with an entry that is not a number.
    """
    first = chunks.pieces[0][2]
    total = sum(count for *_, count in chunks.pieces)
    into = np.empty(total) if chunks.out is None else chunks.out[first:first + total]
    for start, stop, at, count in chunks.pieces:
        text = chunks.text[start - chunks.base:stop - chunks.base]
        # np.fromstring reads an entry of only white space as -1.
        dense = text.translate(None, _SPACING)
        if not dense or dense[:1] == b"," or dense[-1:] == b"," or b",," in dense:
            raise _NotANumber(start, stop)
        # The extra entry ",0" must be read too: where the last entry has
        # trailing bytes, older NumPy versions warn and return what they read.
        try:
            parsed = np.fromstring(text.translate(_BLANK_BRACKETS) + b",0", sep=",")
        except ValueError:
            parsed = None
        if parsed is None or parsed.size != count + 1:
            raise _NotANumber(start, stop)
        into[at - first:at - first + count] = parsed[:-1]
    return first, (into if chunks.out is None else None)
