import contextlib
import csv
import io
import json
import math
import os
import re
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bvlab._workers as workers
import bvlab.cli as cli
import bvlab.twolayer as twolayer
from bvlab.cli import (
    CSV_HEADER,
    ConfigError,
    build_config,
    emit,
    main,
    parse_config_file,
    run_config,
)
from bvlab.theory import theory_point
from conftest import assert_only_pool_workers, force_processes, needs_fork

MLP_PAIRS = {
    "widths": "2,4,8",
    "d_in": "4",
    "classes": "3",
    "pool_size": "60",
    "test_size": "30",
    "margin": "2.0",
    "parts": "2",
    "repeats": "1",
    "epochs": "2",
    "initial_lr": "0.2",
    "lr_decay_every": "1",
    "batch_size": "16",
    "seed": "100",
}


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlambda0 = 1\ngamma = 1,2  # trailing\n\n")
        assert parse_config_file(str(path)) == {"lambda0": "1", "gamma": "1,2"}

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="requires config field 'gamma'"):
            build_config("theory", {"lambda0": "1"})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            build_config("theory", {"lambda0": "1", "gamma": "1", "bogus": "3"})

    def test_range_syntax(self):
        cfg = build_config("theory", {"lambda0": "1", "gamma": "0.5:1.5:0.5"})
        assert_allclose(cfg.gamma, [0.5, 1.0, 1.5])

    def test_range_stops_at_stop(self):
        cfg = build_config("theory", {"lambda0": "1", "gamma": "0.05:1:0.35"})
        assert_allclose(cfg.gamma, [0.05, 0.4, 0.75])
        for text, count in (("0.0002:4:0.0002", 20_000), ("0.002:3:0.002", 1_500)):
            grid = build_config("theory", {"lambda0": "1", "gamma": text}).gamma
            assert len(grid) == count
            assert_allclose(grid[-1], float(text.split(":")[1]))
        # 0.1 + 6 * 0.1 and 3 * 0.1 round past their stops.
        gamma = build_config("theory", {"lambda0": "1", "gamma": "0.1:0.7:0.1"}).gamma
        assert len(gamma) == 7 and max(gamma) == gamma[-1] == 0.7
        lambda0 = build_config("simulate", {"lambda0": "0:0.3:0.1", "d": "4", "n": "8",
                                            "p": "2", "trials": "2"}).lambda0
        assert len(lambda0) == 4 and max(lambda0) == lambda0[-1] == 0.3

    def test_range_past_the_list_cap_named_before_it_is_built(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="^gamma: 1,000,000,000 values, more than "
                                              "the 1,000,000 a list may hold$"):
            build_config("theory", {"lambda0": "1", "gamma": "1e-9:1:1e-9"})
        assert time.perf_counter() - start < 0.5
        monkeypatch.setattr(cli, "MAX_LIST_VALUES", 10)
        assert len(build_config("theory", {"lambda0": "1", "gamma": "1:10:1"}).gamma) == 10
        with pytest.raises(ConfigError, match="^gamma: 11 values, more than the 10"):
            build_config("theory", {"lambda0": "1", "gamma": "0.5,1:10:1"})

    def test_range_below_its_start_named(self):
        with pytest.raises(ConfigError, match="^gamma: range '2:1:0.5' stops below its start$"):
            build_config("theory", {"lambda0": "1", "gamma": "2:1:0.5"})

    @pytest.mark.parametrize("mode, field", [("mlp-sweep", "widths"), ("simulate", "p")])
    def test_fractional_integer_list_named(self, mode, field):
        pairs = dict(MLP_PAIRS) if mode == "mlp-sweep" else {
            "lambda0": "1", "d": "4", "n": "8", "p": "2", "trials": "2"}
        pairs[field] = "2,2.5"
        with pytest.raises(ConfigError, match=field):
            build_config(mode, pairs)

    def test_bad_number_named(self):
        with pytest.raises(ConfigError, match="trials"):
            build_config(
                "simulate",
                {"lambda0": "1", "d": "4", "n": "8", "p": "2", "trials": "soon"},
            )

    @pytest.mark.parametrize("lambda0, gamma", [
        ("1,0", "1"), ("1", "2,-1"), ("-0.5", "1"), ("1", "nan,-1"),
    ])
    def test_nonpositive_theory_value_rejected(self, lambda0, gamma):
        # A NaN is refused while parsing, before the positivity check.
        message = "gamma: not a finite number" if "nan" in gamma else "must be positive"
        with pytest.raises(ConfigError, match=message):
            build_config("theory", {"lambda0": lambda0, "gamma": gamma})

    @pytest.mark.parametrize("mode, field, text", [
        ("theory", "lambda0", "1,nan"),
        ("theory", "gamma", "1,inf"),
        ("theory", "gamma", "-inf"),
        ("theory", "gamma", "0.5:inf:0.5"),
        ("theory", "gamma", "0:1:nan"),
        ("theory", "lambda0", "nan:1:0.5"),
        ("simulate", "lambda0", "inf"),
        ("simulate", "p", "2,nan"),
        ("simulate", "p", "2:inf:2"),
        ("mlp-sweep", "widths", "2,inf"),
        ("mlp-sweep", "widths", "2:nan:2"),
        ("mlp-sweep", "margin", "nan"),
        ("mlp-sweep", "noise_p", "inf"),
        ("mlp-sweep", "initial_lr", "nan"),
        ("mlp-sweep", "momentum", "-inf"),
        ("mlp-sweep", "weight_decay", "nan"),
        ("mlp-sweep", "lr_decay_factor", "inf"),
    ])
    def test_non_finite_list_value_exits_2(self, mode, field, text, capsys):
        """List values, range bounds and scalar float keys alike."""
        assert run_with(mode, {field: text}) == 2
        assert f"{field}: not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, field, text, message", [
        ("mlp-sweep", "test_size", "0", "test_size must be >= 1, got 0"),
        ("mlp-sweep", "widths", "2,0", "widths must be >= 1, got [2, 0]"),
        ("mlp-sweep", "epochs", "0", "epochs must be >= 1, got 0"),
        ("mlp-sweep", "batch_size", "0", "batch_size must be >= 1, got 0"),
        ("mlp-sweep", "lr_decay_every", "-1", "lr_decay_every must be >= 1, got -1"),
        ("mlp-sweep", "lr_decay_factor", "1", "lr_decay_factor must be > 1, got 1.0"),
        ("mlp-sweep", "initial_lr", "-0.1", "initial_lr must be >= 0, got -0.1"),
        ("mlp-sweep", "classes", "1", "classes must be >= 2, got 1"),
        ("mlp-sweep", "parts", "1", "parts must be >= 2, got 1"),
        ("mlp-sweep", "parts", "100", "parts must be <= pool_size=60, got 100"),
        ("mlp-sweep", "noise_p", "1.5", "noise_p must lie in [0, 1], got 1.5"),
        ("simulate", "d", "0", "d must be >= 1, got 0"),
        ("simulate", "p", "4,-2", "p must be >= 1, got [4, -2]"),
        ("simulate", "lambda0", "1,-1", "lambda0 must be >= 0, got [1.0, -1.0]"),
    ])
    def test_value_out_of_range_exits_2(self, mode, field, text, message, capsys):
        assert run_with(mode, {field: text}) == 2
        assert message in capsys.readouterr().err

    def test_overflowing_ridge_exits_2_before_any_point(self, monkeypatch, capsys):
        """A finite lambda0 whose ridge (n/d) * lambda0 overflows fails the
        config, naming lambda0 and n/d, before the first point runs."""
        monkeypatch.setattr(twolayer, "mc_bias_variance",
                            lambda *args: pytest.fail("a point ran"))
        assert run_with("simulate", {"lambda0": "1,1e307", "d": "2", "n": "400"}) == 2
        err = capsys.readouterr().err
        assert "config error: lambda0=1e+307 overflows the ridge" in err
        assert "n/d=200.0" in err

    def test_unregularized_wide_layer_exits_2_before_any_point(self, monkeypatch, capsys):
        """lambda0 = 0 with p > min(d, n) fails the config, naming lambda0 and
        p, before the first point, here the regular (0, 2) one, runs."""
        monkeypatch.setattr(twolayer, "mc_bias_variance",
                            lambda *args: pytest.fail("a point ran"))
        assert run_with("simulate", {"lambda0": "0,1", "d": "4", "n": "100",
                                     "p": "2,8", "trials": "2"}) == 2
        err = capsys.readouterr().err
        assert "config error: lambda0=0.0: Gram matrix is singular at lam=0" in err
        assert "p = 8" in err

    @pytest.mark.parametrize("mode, key", [
        ("simulate", "widths"),
        ("theory", "seed"),
        ("theory", "gamma_grid"),
        ("theory", "lambda0_grid"),
        ("simulate", "p_grid"),
        ("decompose", "input_path"),
        ("theory", "out_path"),
        ("theory", "emit_format"),
        ("mlp-sweep", "threads"),
    ])
    def test_key_the_mode_does_not_take_exits_2(self, mode, key, tmp_path, capsys):
        """Keys of other modes, the retired spellings of today's keys, and
        ``threads``, which is only a flag."""
        value = str(tmp_path / "x.json") if key in ("input_path", "out_path") else "2"
        assert run_with(mode, {key: value}) == 2
        assert f"unknown config field {key!r} for mode {mode!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("mode, flag", [
        ("theory", "--seed"),
        ("decompose", "--seed"),
        ("theory", "--threads"),
        ("simulate", "--threads"),
    ])
    def test_flag_the_mode_does_not_take_exits_2(self, mode, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_with(mode, {}, flag, "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_threads_flag_below_one_exits_2(self, capsys):
        assert run_with("mlp-sweep", {}, "--threads", "0") == 2
        assert "threads must be >= 1, got 0" in capsys.readouterr().err

    def test_overflowing_range_span_exits_2(self, capsys):
        assert main(["theory", "--set", "lambda0=1", "--set", "gamma=-1e308:1e308:1"]) == 2
        assert "gamma: range '-1e308:1e308:1' overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text, message", [
        ("lambda0", "1:2", "lambda0: range syntax is start:stop:step, got '1:2'"),
        ("lambda0", "1:2:0", "lambda0: range step must be positive"),
        ("lambda0", "0:1e308:1e-308", "lambda0: range '0:1e308:1e-308' overflows"),
        ("lambda0", ",", "lambda0: empty list"),
        ("timings", "maybe", "timings: expected a boolean, got 'maybe'"),
    ])
    def test_malformed_value_exits_2(self, field, text, message, capsys):
        assert run_with("theory", {field: text}) == 2
        assert message in capsys.readouterr().err

    def test_setting_without_equals_sign_exits_2(self, tmp_path, capsys):
        assert main(["theory", "--set", "lambda0=1", "--set", "gamma=1", "--set", "oops"]) == 2
        assert "--set expects KEY=VALUE, got 'oops'" in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text("lambda0 = 1\ngamma\n")
        assert main(["theory", "--config", str(path)]) == 2
        assert f"{path}:2: expected 'key = value'" in capsys.readouterr().err

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            build_config("theory", {"lambda0": "1", "gamma": "1", "format": "xml"})


def run_with(mode, changes, *flags):
    """``main`` on a small valid config of ``mode`` with ``changes`` set."""
    pairs = {
        "theory": {"lambda0": "1", "gamma": "1"},
        "simulate": {"lambda0": "1", "d": "4", "n": "8", "p": "2", "trials": "2"},
        "mlp-sweep": MLP_PAIRS,
        "decompose": {"input": "missing-dump.json"},
    }[mode]
    return main([mode, *(arg for key, value in {**pairs, **changes}.items()
                         for arg in ("--set", f"{key}={value}")), *flags])


class TestRunConfig:
    def test_theory_single_point(self):
        cfg = build_config("theory", {"lambda0": "1", "gamma": "1"})
        table = run_config(cfg)
        assert list(table) == CSV_HEADER.split(",")
        assert table["mode"] == "theory"
        (risk,) = table["risk"]
        assert_allclose(risk, 0.447214, atol=1e-6)
        assert table["width"] is None and table["wall_time_s"] is None

    SIMULATE_PAIRS = {"lambda0": "1", "d": "6", "n": "30", "p": "4", "trials": "2", "seed": "3"}

    def test_simulate_scaled_identity_zero_variance(self, monkeypatch):
        monkeypatch.setattr(twolayer, "_m_from_factor", lambda W, L, lam: 0.3 * np.eye(6))
        table = run_config(build_config("simulate", self.SIMULATE_PAIRS))
        (variance,), (bias_sq,), (risk,) = table["variance"], table["bias_sq"], table["risk"]
        assert variance <= 1e-12
        assert_allclose([bias_sq, risk], [0.49, 0.49], rtol=0, atol=1e-12)
        assert table["trials"] == 2 and table["p"] == [4]

    def test_simulate_identical_trials_spread_about_mean_trace(self, monkeypatch):
        monkeypatch.setattr(
            twolayer, "spawn_rng", lambda master, *path: np.random.default_rng(5)
        )
        table = run_config(build_config("simulate", self.SIMULATE_PAIRS))
        rng = np.random.default_rng(5)
        W = np.zeros((4, 6))  # [T 0]: the Bartlett factor of W W^T ~ W_4(6, I/6)
        W[:, :4] = twolayer._wishart_factor(rng, 4, 6, 4, 1 / math.sqrt(6))
        M = twolayer._m_from_factor(W, twolayer._wishart_factor(rng, 6, 30, 4), 5.0)
        centered = M - np.trace(M) / 6 * np.eye(6)
        (variance,) = table["variance"]
        assert_allclose(variance, np.vdot(centered, centered) / 6, rtol=1e-12)

    def test_mlp_sweep_rows_ascend(self):
        cfg = build_config("mlp-sweep", dict(MLP_PAIRS))
        table = run_config(cfg)
        assert table["width"] == [2, 4, 8]
        assert table["mode"] == "mlp-sweep"
        assert table["n"] == 30  # pool of 60 split in two parts
        assert table["trials"] == 2
        for risk, bias_sq, variance in zip(table["risk"], table["bias_sq"], table["variance"]):
            assert_allclose(risk, bias_sq + variance, rtol=1e-9)

    def test_records_deterministic(self):
        cfg = build_config("theory", {"lambda0": "0.1,1", "gamma": "0.5,1,2"})
        a = run_config(cfg)
        b = run_config(cfg)
        assert a == b


class TestEmit:
    def test_csv_exact_header_and_layout(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = build_config("theory", {"lambda0": "1", "gamma": "1"})
        emit(run_config(cfg), str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "theory"
        assert cells[10] == "0.447213595"  # nine significant digits
        assert cells[3] == "" and cells[13] == ""

    def test_json_roundtrip_exact(self, tmp_path):
        out = tmp_path / "table.json"
        cfg = build_config("theory", {"lambda0": "0.1,1", "gamma": "0.5,2"})
        table = run_config(cfg)
        emit(table, str(out), "json")
        loaded = json.loads(out.read_text())
        assert len(loaded) == len(table["risk"])
        for row, risk, bias_sq, variance in zip(
                loaded, table["risk"], table["bias_sq"], table["variance"]):
            assert row["risk"] == risk
            assert row["bias_sq"] == bias_sq
            assert row["variance"] == variance
            assert row["width"] is None

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit({"mode": "theory", "risk": []}, str(tmp_path / "x.csv"), "csv")

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            emit({"risk": [1.0, 2.0], "variance": [1.0]}, None, "csv")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_row_wise_reference(self, data):
        check_against_row_wise_reference(data)

    @needs_fork
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_split_matches_row_wise_reference(self, monkeypatch, data):
        """The same tables, their rows rendered in two processes."""
        force_processes(monkeypatch, 2)
        rows = check_against_row_wise_reference(data)
        assert len(workers._pool) == (rows > 1)  # a table of two rows or more split


def check_against_row_wise_reference(data) -> int:
    """Against the row-by-row renderings the column-wise emitter replaced:
    json.dumps of the row objects, and 9-digit CSV cells.  Returns the
    number of rows of the drawn table."""
    names = CSV_HEADER.split(",")
    rows = data.draw(st.integers(1, 6))
    table = {name: data.draw(column_strategy(rows)) for name in names}
    if not any(isinstance(column, list) for column in table.values()):
        rows = 1  # a table of shared values alone has one row
    grid = [[column[i] if isinstance(column, list) else column
             for column in table.values()] for i in range(rows)]
    json_text = emitted(table, "json")
    assert json_text == json.dumps([dict(zip(names, row)) for row in grid]) + "\n"
    assert [[repr(value) for value in row.values()] for row in json.loads(json_text)] == [
        [repr(value) for value in row] for row in grid]
    csv_lines = [",".join(names)] + [",".join(map(csv_cell, row)) for row in grid]
    assert emitted(table, "csv") == "\n".join(csv_lines) + "\n"
    return rows


# Floats include NaN, both infinities, -0.0 and subnormals.
CELL_VALUES = st.one_of(
    st.none(), st.integers(), st.text(max_size=5), st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.225073858507201e-308]),
)


def column_strategy(rows):
    """A shared value, or a per-row list drawn from a few objects, so that
    one object can repeat down the column; some columns hold floats only."""
    per_row = st.lists(CELL_VALUES, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
    all_floats = st.lists(st.floats(), min_size=rows, max_size=rows)
    return st.one_of(CELL_VALUES, per_row, all_floats)


def csv_cell(value):
    if value is None:
        return ""
    return format(value, ".9g") if isinstance(value, float) else str(value)


def emitted(table, emit_format):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(table, None, emit_format)
    return out.getvalue()


class TestMainEntry:
    def test_theory_to_csv_and_byte_stable_rerun(self, tmp_path):
        out = tmp_path / "theory.csv"
        args = ["theory", "--set", "lambda0=1", "--set", "gamma=1,2",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_theory_beyond_1e154_is_exact_and_silent(self, capsys):
        """u^2 overflows there in doubles; the row is exact, with no warning."""
        assert main(["theory", "--set", "lambda0=1e300", "--set", "gamma=1e300"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == "theory,1e+300,1e+300,,,,,,,,0.25,0.25,6.25e-302,"
        assert err == ""

    def test_mlp_sweep_rerun_identical(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            "".join(f"{key} = {value}\n" for key, value in MLP_PAIRS.items())
        )
        out = tmp_path / "sweep.csv"
        args = ["mlp-sweep", "--config", str(cfg_path), "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_threads_flag_changes_nothing(self, tmp_path):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run_with("mlp-sweep", {}, "--out", str(one)) == 0
        assert run_with("mlp-sweep", {}, "--threads", "2", "--out", str(two)) == 0
        assert one.read_bytes() == two.read_bytes()

    @needs_fork
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mlp_sweep_bytes_equal_at_1_2_3_processes(self, fmt, monkeypatch, tmp_path):
        outputs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"sweep-{processes}.{fmt}"
            assert run_with("mlp-sweep", {"repeats": "3"}, "--format", fmt,
                            "--out", str(out)) == 0
            assert_only_pool_workers()
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 3

    @needs_fork
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_bytes_equal_at_1_2_3_processes(self, fmt, monkeypatch, tmp_path):
        outputs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"simulate-{processes}.{fmt}"
            assert run_with("simulate", {"lambda0": "0.5,1", "d": "8", "n": "40",
                                         "p": "4,12", "trials": "7"},
                            "--format", fmt, "--out", str(out)) == 0
            assert_only_pool_workers()
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 3

    @needs_fork
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_theory_bytes_equal_at_1_2_3_processes(self, fmt, monkeypatch, tmp_path):
        outputs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"theory-{processes}.{fmt}"
            assert run_with("theory", {"lambda0": "1e-12,0.5,1", "gamma": "0.25:2:0.25"},
                            "--format", fmt, "--out", str(out)) == 0
            assert len(workers._pool) == processes - 1  # its 24 rows were split
            assert_only_pool_workers()
            outputs.append(out.read_bytes())
        assert outputs == [outputs[0]] * 3

    @needs_fork
    def test_small_tables_render_in_one_process(self, monkeypatch, tmp_path):
        """A 14-row simulate table and the 21 x 33 edge grid start no worker."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
        edges = {"lambda0": ",".join(map(repr, np.logspace(-12, 8, 21).tolist())),
                 "gamma": ",".join(map(repr, np.logspace(-8, 8, 33).tolist()))}
        for fmt in ("csv", "json"):
            assert run_with("simulate", {"lambda0": "0.1,1", "d": "8", "n": "40",
                                         "p": "1:7:1"}, "--format", fmt,
                            "--out", str(tmp_path / f"simulate.{fmt}")) == 0
            assert run_with("theory", edges, "--format", fmt,
                            "--out", str(tmp_path / f"edge.{fmt}")) == 0
        assert len((tmp_path / "edge.csv").read_text().splitlines()) == 1 + 21 * 33
        assert workers._pool == []

    def test_mlp_sweep_output_pinned(self, tmp_path):
        """Exact risk/bias/variance floats of a small sweep.

        Parts of 1024 examples in batches of 100 end each epoch on a partial
        batch.  The floats were recorded with NumPy 2.4.6 and its bundled
        OpenBLAS 0.3.31 on x86-64; another BLAS build may round differently.
        """
        cfg_path = tmp_path / "pinned.cfg"
        cfg_path.write_text(
            "widths = 2,5,16\nd_in = 16\nclasses = 4\npool_size = 2048\n"
            "test_size = 512\nmargin = 2.0\nnoise_p = 0.1\nparts = 2\n"
            "repeats = 3\nepochs = 4\ninitial_lr = 0.3\nlr_decay_every = 2\n"
            "batch_size = 100\nseed = 1234\n"
        )
        out = tmp_path / "pinned.json"
        assert main(["mlp-sweep", "--config", str(cfg_path), "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [(r["width"], r["risk"], r["bias_sq"], r["variance"]) for r in rows] == [
            (2, 0.48898282134334115, 0.3816389781442907, 0.10734384319905044),
            (5, 0.29545276583316227, 0.25261744760872834, 0.04283531822443393),
            (16, 0.27812330252351897, 0.24106750259192633, 0.03705579993159265),
        ]

    def test_timings_flag_fills_column(self, tmp_path):
        out = tmp_path / "timed.csv"
        assert main(["theory", "--set", "lambda0=1", "--set", "gamma=1",
                     "--out", str(out), "--timings"]) == 0
        last_cell = out.read_text().splitlines()[1].split(",")[13]
        assert last_cell != ""
        assert float(last_cell) >= 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_file_output(self, fmt, tmp_path, capsys):
        args = ["theory", "--set", "lambda0=1", "--set", "gamma=1,2", "--format", fmt]
        out = tmp_path / f"theory.{fmt}"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        if fmt == "json":
            assert [row["gamma"] for row in json.loads(printed)] == [1.0, 2.0]

    @pytest.mark.parametrize("lambda0,gamma", [
        (
            ",".join(repr(float(v)) for v in np.logspace(-12, 8, 21)),
            ",".join(repr(float(v)) for v in np.logspace(-8, 8, 33)),
        ),
        ("0.01", "3.8:4:0.002"),
    ])
    def test_theory_rows_equal_theory_point(self, lambda0, gamma, capsys):
        """The grid is evaluated as arrays; every row must carry the same
        bits as the scalar theory_point at its (lambda0, gamma)."""
        args = ["theory", "--set", f"lambda0={lambda0}", "--set", f"gamma={gamma}",
                "--format", "json"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1  # compact: one line, no indentation
        rows = json.loads(printed)
        cfg = build_config("theory", {"lambda0": lambda0, "gamma": gamma})
        assert [(row["lambda0"], row["gamma"]) for row in rows] == [
            (lam0, g) for lam0 in cfg.lambda0 for g in cfg.gamma]
        for row in rows:
            assert list(row) == CSV_HEADER.split(",")
            point = theory_point(row["lambda0"], row["gamma"])
            assert (row["bias_sq"], row["variance"], row["risk"]) == (
                point.bias_sq, point.variance, point.risk)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(1e-12, 1e8), min_size=1, max_size=3),
           st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=4))
    def test_parse_emit_parse_round_trip(self, lambda0, gamma):
        """The JSON output loads back to the run's table exactly, and the CSV
        output parses back to it at 9 significant digits."""
        pairs = {"lambda0": ",".join(map(repr, lambda0)), "gamma": ",".join(map(repr, gamma))}
        table = run_config(build_config("theory", pairs))
        rows = len(lambda0) * len(gamma)
        columns = {name: column if isinstance(column, list) else [column] * rows
                   for name, column in table.items()}
        argv = ["theory", *(arg for key, value in pairs.items()
                            for arg in ("--set", f"{key}={value}"))]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--format", "json"]) == 0
        loaded = json.loads(out.getvalue())
        assert {name: [row[name] for row in loaded] for name in table} == columns
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--format", "csv"]) == 0
        header, *cells = csv.reader(io.StringIO(out.getvalue()))
        assert header == list(table) and len(cells) == rows
        for name, parsed in zip(header, zip(*cells)):
            for text, value in zip(parsed, columns[name]):
                if isinstance(value, float):
                    assert math.isclose(float(text), value, rel_tol=1e-8)
                else:
                    assert text == ("" if value is None else value)

    def test_theory_timings_share_the_grid_time(self, tmp_path):
        out = tmp_path / "timed.json"
        assert main(["theory", "--set", "lambda0=0.1,1", "--set", "gamma=0.5,1,2",
                     "--format", "json", "--out", str(out), "--timings"]) == 0
        times = {row["wall_time_s"] for row in json.loads(out.read_text())}
        assert len(times) == 1 and times.pop() >= 0.0

    def test_parser_reused_without_sharing_overrides(self, capsys):
        """The parser is built once; each parse starts from an empty --set list."""
        assert cli._build_parser() is cli._build_parser()
        assert main(["theory", "--set", "lambda0=1", "--set", "gamma=1,2",
                     "--format", "json"]) == 0
        assert [row["gamma"] for row in json.loads(capsys.readouterr().out)] == [1.0, 2.0]
        assert main(["theory", "--set", "lambda0=2", "--format", "json"]) == 2
        assert "requires config field 'gamma'" in capsys.readouterr().err
        assert main(["theory", "--set", "lambda0=3", "--set", "gamma=4",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["lambda0"], row["gamma"]) for row in rows] == [(3.0, 4.0)]

    def test_config_error_exit_code(self, capsys):
        assert main(["theory", "--set", "lambda0=oops"]) == 2
        assert "lambda0" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("lambda0 = 0\nd = 6\nn = 2\np = 6\ntrials = 2\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code != 0

    def test_unwritable_output_path(self, tmp_path):
        args = ["theory", "--set", "lambda0=1", "--set", "gamma=1",
                "--out", str(tmp_path / "missing_dir" / "x.csv")]
        assert main(args) == 1


def sweep_args(noise_p):
    return [arg for key, value in {**MLP_PAIRS, "widths": "2,8", "noise_p": noise_p}.items()
            for arg in ("--set", f"{key}={value}")]


# Run name -> arguments; the mode is the name up to any ":".
GOLDEN_RUNS = {
    "theory": ["--set", "lambda0=1e-12,1", "--set", "gamma=0.5,1e8"],
    "simulate": ["--set", "lambda0=0.1,1", "--set", "d=4", "--set", "n=16",
                 "--set", "p=2,6", "--set", "trials=3", "--set", "seed=7"],
    "mlp-sweep": sweep_args("0.1"),
    "mlp-sweep:noise_p=0": sweep_args("0"),
    "decompose": [],  # the dump is written by the test
}

# Output bytes of GOLDEN_RUNS, recorded with the row-by-row emitter that the
# column-wise one replaced; the noise_p = 0 sweep was recorded when its
# pool still skipped label-noise injection.  The simulate bias_sq and variance
# cells were re-recorded when the Monte Carlo bias became (1 - mean tr(M)/d)^2.
# The simulate and mlp-sweep cells were re-recorded again when seed derivation
# began mixing the state before each index and the Monte Carlo trials began
# drawing the first layer's Gram factor instead of W.  The simulate JSON
# floats were re-recorded once more, for last-bit changes only, when each
# trial's ridge system began to be factored once (Cholesky and triangular
# inverse) instead of checked by Cholesky and solved by LU.
GOLDEN = {
    ("theory", "csv"): (
        'mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,'
        'wall_time_s\n'
        'theory,1e-12,0.5,,,,,,,,0.5,0.25,0.25,\n'
        'theory,1e-12,100000000,,,,,,,,1.00000003e-40,1.00000002e-40,'
        '1.00000003e-48,\n'
        'theory,1,0.5,,,,,,,,0.674437344,0.609611797,0.064825547,\n'
        'theory,1,100000000,,,,,,,,1.00000001e-16,1e-16,9.9999999e-25,\n'
    ),
    ("theory", "json"): (
        '[{"mode": "theory", "lambda0": 1e-12, "gamma": 0.5, "width": null, '
        '"d": null, "n": null, "p": null, "noise_p": null, "trials": null, '
        '"seed": null, "risk": 0.5000000000000001, "bias_sq": 0.2500000000010001, '
        '"variance": 0.24999999999900002, "wall_time_s": null}, {"mode": "theory", '
        '"lambda0": 1e-12, "gamma": 100000000.0, "width": null, "d": null, '
        '"n": null, "p": null, "noise_p": null, "trials": null, "seed": null, '
        '"risk": 1.0000000300000008e-40, "bias_sq": 1.0000000200000004e-40, '
        '"variance": 1.0000000300000004e-48, "wall_time_s": null}, '
        '{"mode": "theory", "lambda0": 1.0, "gamma": 0.5, "width": null, '
        '"d": null, "n": null, "p": null, "noise_p": null, "trials": null, '
        '"seed": null, "risk": 0.6744373438135827, "bias_sq": 0.6096117967977924, '
        '"variance": 0.06482554701579028, "wall_time_s": null}, {"mode": "theory", '
        '"lambda0": 1.0, "gamma": 100000000.0, "width": null, "d": null, '
        '"n": null, "p": null, "noise_p": null, "trials": null, "seed": null, '
        '"risk": 1.00000001e-16, "bias_sq": 1.0000000000000001e-16, '
        '"variance": 9.999999899999997e-25, "wall_time_s": null}]\n'
    ),
    ("simulate", "csv"): (
        'mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,'
        'wall_time_s\n'
        'simulate,0.1,0.5,,4,16,2,,3,7,0.557491992,0.330612125,0.226879867,\n'
        'simulate,0.1,1.5,,4,16,6,,3,7,0.108972978,0.0366873773,0.0722856006,\n'
        'simulate,1,0.5,,4,16,2,,3,7,0.688156907,0.59882719,0.0893297174,\n'
        'simulate,1,1.5,,4,16,6,,3,7,0.380831755,0.279991184,0.100840572,\n'
    ),
    ("simulate", "json"): (
        '[{"mode": "simulate", "lambda0": 0.1, "gamma": 0.5, "width": null, '
        '"d": 4, "n": 16, "p": 2, "noise_p": null, "trials": 3, "seed": 7, '
        '"risk": 0.5574919919386457, "bias_sq": 0.33061212470937384, '
        '"variance": 0.2268798672292719, "wall_time_s": null}, '
        '{"mode": "simulate", "lambda0": 0.1, "gamma": 1.5, "width": null, "d": 4, '
        '"n": 16, "p": 6, "noise_p": null, "trials": 3, "seed": 7, '
        '"risk": 0.10897297787806448, "bias_sq": 0.036687377296661335, '
        '"variance": 0.07228560058140315, "wall_time_s": null}, '
        '{"mode": "simulate", "lambda0": 1.0, "gamma": 0.5, "width": null, "d": 4, '
        '"n": 16, "p": 2, "noise_p": null, "trials": 3, "seed": 7, '
        '"risk": 0.688156906965431, "bias_sq": 0.5988271895928601, '
        '"variance": 0.0893297173725709, "wall_time_s": null}, '
        '{"mode": "simulate", "lambda0": 1.0, "gamma": 1.5, "width": null, "d": 4, '
        '"n": 16, "p": 6, "noise_p": null, "trials": 3, "seed": 7, '
        '"risk": 0.38083175534532754, "bias_sq": 0.2799911837044684, '
        '"variance": 0.10084057164085913, "wall_time_s": null}]\n'
    ),
    ("mlp-sweep", "csv"): (
        'mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,'
        'wall_time_s\n'
        'mlp-sweep,,,2,4,30,,0.1,2,100,0.631786522,0.59292616,0.0388603624,\n'
        'mlp-sweep,,,8,4,30,,0.1,2,100,0.514159842,0.465858521,0.0483013208,\n'
    ),
    ("mlp-sweep", "json"): (
        '[{"mode": "mlp-sweep", "lambda0": null, "gamma": null, "width": 2, '
        '"d": 4, "n": 30, "p": null, "noise_p": 0.1, "trials": 2, "seed": 100, '
        '"risk": 0.6317865223302498, "bias_sq": 0.5929261598909152, '
        '"variance": 0.03886036243933453, "wall_time_s": null}, '
        '{"mode": "mlp-sweep", "lambda0": null, "gamma": null, "width": 8, "d": 4, '
        '"n": 30, "p": null, "noise_p": 0.1, "trials": 2, "seed": 100, '
        '"risk": 0.514159842021506, "bias_sq": 0.46585852118286636, '
        '"variance": 0.048301320838639625, "wall_time_s": null}]\n'
    ),
    ("mlp-sweep:noise_p=0", "csv"): (
        'mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,'
        'wall_time_s\n'
        'mlp-sweep,,,2,4,30,,0,2,100,0.633992551,0.598735394,0.0352571575,\n'
        'mlp-sweep,,,8,4,30,,0,2,100,0.522542828,0.472103564,0.0504392642,\n'
    ),
    ("mlp-sweep:noise_p=0", "json"): (
        '[{"mode": "mlp-sweep", "lambda0": null, "gamma": null, "width": 2, '
        '"d": 4, "n": 30, "p": null, "noise_p": 0.0, "trials": 2, "seed": 100, '
        '"risk": 0.6339925514735503, "bias_sq": 0.598735393996966, '
        '"variance": 0.03525715747658434, "wall_time_s": null}, '
        '{"mode": "mlp-sweep", "lambda0": null, "gamma": null, "width": 8, "d": 4, '
        '"n": 30, "p": null, "noise_p": 0.0, "trials": 2, "seed": 100, '
        '"risk": 0.5225428282022488, "bias_sq": 0.4721035639584583, '
        '"variance": 0.05043926424379055, "wall_time_s": null}]\n'
    ),
    ("decompose", "csv"): (
        'mode,lambda0,gamma,width,d,n,p,noise_p,trials,seed,risk,bias_sq,variance,'
        'wall_time_s\n'
        'decompose,,,,,2,,,6,,1.08072917,1.00130208,0.0794270833,\n'
    ),
    ("decompose", "json"): (
        '[{"mode": "decompose", "lambda0": null, "gamma": null, "width": null, '
        '"d": null, "n": 2, "p": null, "noise_p": null, "trials": 6, "seed": null, '
        '"risk": 1.0807291666666665, "bias_sq": 1.0013020833333333, '
        '"variance": 0.07942708333333334, "wall_time_s": null}]\n'
    ),
}


@pytest.mark.parametrize("run, fmt", list(GOLDEN))
def test_output_bytes_pinned(run, fmt, tmp_path):
    """Small runs of every mode, byte for byte.  The mlp-sweep floats were
    recorded with NumPy 2.4.6 and its bundled OpenBLAS 0.3.31 on x86-64;
    another BLAS build may round them differently."""
    mode = run.split(":")[0]
    args = list(GOLDEN_RUNS[run])
    if mode == "decompose":
        outputs = (np.arange(24).reshape(2, 2, 3, 2) % 5) / 8.0 - 0.25
        write_dump(tmp_path / "dump.json", outputs, [[1.0, 0.0], [0.0, 1.0]], "real")
        args += ["--input", str(tmp_path / "dump.json")]
    out = tmp_path / f"out.{fmt}"
    assert main([mode, *args, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN[run, fmt].encode()


def write_dump(path, outputs, labels, kind):
    outputs = np.asarray(outputs)
    payload = {
        "test_count": outputs.shape[0],
        "k": outputs.shape[1],
        "N": outputs.shape[2],
        "c": outputs.shape[3],
        "outputs": outputs.tolist(),
        "labels": np.asarray(labels).tolist(),
        "kind": kind,
    }
    path.write_text(json.dumps(payload))


class TestDecompose:
    def test_agreeing_models_have_zero_variance(self, tmp_path):
        dump = tmp_path / "dump.json"
        one = np.array([0.2, -0.4, 1.0])
        outputs = np.tile(one, (2, 2, 2, 1))
        write_dump(dump, outputs, np.tile(one, (2, 1)), "real")
        out = tmp_path / "out.csv"
        assert main(["decompose", "--input", str(dump), "--out", str(out)]) == 0
        cells = out.read_text().splitlines()[1].split(",")
        risk, bias_sq, variance = float(cells[10]), float(cells[11]), float(cells[12])
        assert variance == 0.0
        assert bias_sq == risk == 0.0

    def test_simplex_dump_uses_kl_route(self, tmp_path):
        dump = tmp_path / "dump.json"
        outputs = np.array([[[[0.8, 0.2], [0.2, 0.8]]]])
        write_dump(dump, outputs, [[1.0, 0.0]], "simplex")
        out = tmp_path / "out.csv"
        assert main(["decompose", "--input", str(dump), "--out", str(out)]) == 0
        cells = out.read_text().splitlines()[1].split(",")
        assert_allclose(float(cells[10]), -(math.log(0.8) + math.log(0.2)) / 2, atol=1e-8)
        assert_allclose(float(cells[11]), math.log(2.0), atol=1e-8)
        assert_allclose(float(cells[12]), 0.22314, atol=1e-5)

    def test_missing_dump_field_rejected(self, tmp_path):
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps({"test_count": 1}))
        assert main(["decompose", "--input", str(dump)]) == 2

    def test_shape_mismatch_rejected(self, tmp_path):
        dump = tmp_path / "dump.json"
        outputs = np.zeros((1, 1, 2, 2))
        payload = {
            "test_count": 2,  # wrong on purpose
            "k": 1,
            "N": 2,
            "c": 2,
            "outputs": outputs.tolist(),
            "labels": [[1.0, 0.0]],
            "kind": "real",
        }
        dump.write_text(json.dumps(payload))
        assert main(["decompose", "--input", str(dump)]) == 2


GOOD_DUMP = {"test_count": 1, "k": 1, "N": 2, "c": 2, "kind": "real",
             "outputs": [[[[0.5, 2.5], [1.5, 0.25]]]], "labels": [[1.0, 0.0]]}
SHAPE = r"shape \(1, 1, 2, 2\)"

# Malformed dump text -> (exit status, a pattern the message must hold).
MALFORMED_DUMPS = {
    "fractional count": (json.dumps({**GOOD_DUMP, "test_count": 1.0}),
                         2, "'test_count' must be a positive integer, got 1.0"),
    "string count": (json.dumps({**GOOD_DUMP, "test_count": "2"}),
                     2, "'test_count' must be a positive integer, got '2'"),
    "boolean count": (json.dumps({**GOOD_DUMP, "k": True}), 2, "'k' must be a positive integer"),
    "zero count": (json.dumps({**GOOD_DUMP, "N": 0}), 2, "'N' must be a positive integer"),
    "negative count": (json.dumps({**GOOD_DUMP, "c": -2}), 2, "'c' must be a positive integer"),
    "true entry": (json.dumps(GOOD_DUMP).replace("2.5", "true"), 2, f"outputs .*{SHAPE}"),
    "null entry": (json.dumps(GOOD_DUMP).replace("0.0", "null"),
                   2, r"labels .*shape \(1, 2\).*not a number"),
    "string entry": (json.dumps(GOOD_DUMP).replace("2.5", '"2.5"'), 2, f"outputs .*{SHAPE}"),
    "empty slot": (json.dumps(GOOD_DUMP).replace("2.5", ""), 2, f"outputs .*{SHAPE}"),
    "ragged": (json.dumps({**GOOD_DUMP, "outputs": [[[[0.5, 2.5], [1.5]]]]}),
               2, f"outputs .*{SHAPE}.*nesting or lengths"),
    "flat": (json.dumps({**GOOD_DUMP, "outputs": [0.5, 2.5, 1.5, 0.25]}),
             2, f"outputs .*{SHAPE}.*nesting or lengths"),
    "ragged with a non-number": (json.dumps({**GOOD_DUMP, "outputs": [[[[0.5, True], [1.5]]]]}),
                                 2, f"outputs .*{SHAPE}.*nesting or lengths"),
    "huge declared shape": (json.dumps({**GOOD_DUMP, "test_count": 10**12}),
                            2, r"outputs .*shape \(1000000000000, 1, 2, 2\).*nesting or lengths"),
    "not an array": (json.dumps({**GOOD_DUMP, "labels": {"0": [1, 0]}}),
                     2, r"labels .*shape \(1, 2\).*not an array"),
    "top-level list": (json.dumps([GOOD_DUMP]), 2, "must be a JSON object"),
    "missing kind": (json.dumps({k: v for k, v in GOOD_DUMP.items() if k != "kind"}),
                     2, "missing field 'kind'"),
    "unknown kind": (json.dumps({**GOOD_DUMP, "kind": "logits"}), 2, "kind must be"),
    "bad extra field": (json.dumps(GOOD_DUMP)[:-1] + ', "note": tru}', 2, "'note'"),
    "trailing data": (json.dumps(GOOD_DUMP) + " {}", 2, "extra data"),
    "truncated": (json.dumps(GOOD_DUMP)[:-30], 2, "'outputs' is not closed"),
    "NaN entry": (json.dumps(GOOD_DUMP).replace("2.5", "NaN"), 1, "non-finite"),
}


@pytest.mark.parametrize("name", list(MALFORMED_DUMPS))
def test_malformed_dump_named(name, tmp_path, capsys):
    text, code, pattern = MALFORMED_DUMPS[name]
    path = tmp_path / "dump.json"
    path.write_text(text)
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == code
    assert re.search(pattern, capsys.readouterr().err)


def test_readme_key_table_matches_configs():
    """The README's key table lists exactly each mode's config fields, with
    their annotations and defaults, so the docs and the parser cannot drift."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config keys"):readme.index("### Prediction dump format")]
    documented = {mode: {} for mode in cli.MODES}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, modes, kind, default, _ = (cell.strip() for cell in line.split("|")[1:-1])
            for mode in cli.MODES if modes == "all" else modes.split(", "):
                documented[mode][key.strip("`")] = (kind.strip("`"), default.strip("`"))
    for mode, config_type in cli._CONFIGS.items():
        assert documented[mode] == {
            f.name: (f.type, "required" if f.default is MISSING else repr(f.default))
            for f in fields(config_type)
        }, mode
