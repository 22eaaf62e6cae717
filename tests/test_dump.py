"""The prediction-dump reader: the arrays ``np.asarray(json.load(...))`` gives,
bit for bit, at any number of processes, and every malformed dump named."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bvlab._dump as dump
import bvlab._workers as workers
from conftest import assert_only_pool_workers, force_processes, needs_fork

FIELDS = ("test_count", "k", "N", "c", "kind", "outputs", "labels")

ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**30, 10**30),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


def nested(draw, shape):
    if not shape:
        return draw(ENTRIES)
    return [nested(draw, shape[1:]) for _ in range(shape[0])]


@st.composite
def dumps(draw):
    """(JSON text, its object) of a small dump with extras, in any key order."""
    test_count, k, parts, c = (draw(st.integers(1, 3)) for _ in range(4))
    payload = {
        "test_count": test_count, "k": k, "N": parts, "c": c,
        "kind": draw(st.sampled_from(["real", "simplex"])),
        "outputs": nested(draw, (test_count, k, parts, c)),
        "labels": nested(draw, (test_count, c)),
    }
    extras = draw(st.dictionaries(st.text(max_size=8).filter(lambda key: key not in FIELDS),
                                  JSON_VALUES, max_size=3))
    if draw(st.booleans()):
        extras["meta"] = {"outputs": [[1, 2], ["x"]], "labels": "]\"[", "c": 7}
    payload.update(extras)
    keys = draw(st.permutations(list(payload)))
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    return json.dumps({key: payload[key] for key in keys}, indent=indent), payload


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def reference(text):
    loaded = json.loads(text)
    return (np.asarray(loaded["outputs"], dtype=np.float64),
            np.asarray(loaded["labels"], dtype=np.float64), loaded["kind"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(dumps())
def test_arrays_equal_json_load_bitwise(tmp_path, case):
    text, _ = case
    path = tmp_path / "dump.json"
    path.write_text(text)
    outputs, labels, kind = dump.read_dump(str(path))
    want_outputs, want_labels, want_kind = reference(text)
    assert bits(outputs) == bits(want_outputs)
    assert bits(labels) == bits(want_labels)
    assert kind == want_kind


def big_dump(tmp_path, seed=5, shape=(40, 3, 5, 10), indent=None):
    rng = np.random.default_rng(seed)
    outputs = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    labels = np.eye(shape[3])[rng.integers(0, shape[3], size=shape[0])]
    text = json.dumps({"labels": labels.tolist(), "kind": "real", "test_count": shape[0],
                       "k": shape[1], "N": shape[2], "c": shape[3],
                       "outputs": outputs.tolist()}, indent=indent)
    path = tmp_path / "big.json"
    path.write_text(text)
    return path, text


@needs_fork
@pytest.mark.parametrize("indent", [None, 1])
def test_same_arrays_at_1_2_3_processes(indent, monkeypatch, tmp_path):
    """Forced splits into 1, 2 and 3 blocks, with chunks shrunk so that each
    array is cut into many."""
    path, text = big_dump(tmp_path, indent=indent)
    want = reference(text)
    monkeypatch.setattr(dump, "_CHUNK", 997)
    for processes in (1, 2, 3):
        force_processes(monkeypatch, processes)
        outputs, labels, kind = dump.read_dump(str(path))
        assert (bits(outputs), bits(labels), kind) == (bits(want[0]), bits(want[1]), want[2])
        assert len([worker for worker in workers._pool if worker]) == processes - 1
        assert_only_pool_workers()


@needs_fork
def test_a_bad_entry_in_a_worker_block_is_named(monkeypatch, tmp_path):
    path, text = big_dump(tmp_path)
    last = text.rsplit(", ", 1)[1].rstrip("]}")  # the last entry of outputs, in block 2
    path.write_text(text[:text.rindex(last)] + "null" + text[text.rindex(last) + len(last):])
    force_processes(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"dump outputs must be an array of numbers of "
                                         r"shape \(40, 3, 5, 10\): an entry in bytes \d+-\d+ "
                                         r"is not a number"):
        dump.read_dump(str(path))
    assert len([worker for worker in workers._pool if worker]) == 1
    assert_only_pool_workers()


def test_the_one_block_writes_in_place(tmp_path):
    path, _ = big_dump(tmp_path, shape=(3, 1, 2, 2))
    outputs, labels, _ = dump.read_dump(str(path))
    assert outputs.base is labels.base is not None  # one buffer, no copy of either array


# Spellings JSON rejects that the reader accepts, as np.fromstring does.
SPELLINGS = {
    "+1": 1.0, ".5": 0.5, "1.": 1.0, "01": 1.0, "1E3": 1000.0, "-0": -0.0,
    "nan": math.nan, "NAN": math.nan, "inf": math.inf, "-INF": -math.inf,
    "infinity": math.inf, "+Infinity": math.inf, "\v2\f": 2.0,
}


@pytest.mark.parametrize("spelling, value", list(SPELLINGS.items()))
def test_accepted_spellings_pinned(spelling, value, tmp_path):
    path = tmp_path / "dump.json"
    path.write_text('{"test_count": 1, "k": 1, "N": 1, "c": 2, "kind": "real", '
                    f'"outputs": [[[[{spelling}, 3]]]], "labels": [[1, 0]]}}')
    outputs, _, _ = dump.read_dump(str(path))
    assert bits(outputs) == bits(np.array([[[[value, 3.0]]]]))


@pytest.mark.parametrize("spelling", ["1_0", "0x10", "1e", "--1", "1 2", "", " ", "true",
                                      "null", "'1'", "1,", "[1]", "{}", "nan(x)x", "ínf"])
def test_rejected_spellings(spelling, tmp_path):
    path = tmp_path / "dump.json"
    path.write_text('{"test_count": 1, "k": 1, "N": 1, "c": 2, "kind": "real", '
                    f'"outputs": [[[[{spelling}, 3]]]], "labels": [[1, 0]]}}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"dump outputs must be an array of numbers of "
                                         r"shape \(1, 1, 1, 2\)"):
        dump.read_dump(str(path))
