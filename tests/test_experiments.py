import concurrent.futures
import csv
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tourney_lab import experiments
from tourney_lab.cli import main
from tourney_lab.core import (
    ModelParams,
    RngStream,
    ranking_codes,
    sample_null,
    sample_planted_uniform,
)
from tourney_lab.detection import (
    spectral_statistic,
    spectral_test,
    wedge_null_moments,
    wedge_statistic,
)
from tourney_lab.experiments import (
    CSV_HEADER,
    ConfigError,
    MalformedCsvError,
    SweepConfig,
    run_sweep,
    summarize,
    write_summary,
)
from tourney_lab.recovery import rbw_expected_errors


def make_config(tmp_path, **overrides):
    raw = {
        "experiment": "detect-wedge",
        "n_values": [12],
        "gamma_spec": [0.0, 0.3],
        "trials": 3,
        "seed": 7,
        "threads": 1,
        "output_path": str(tmp_path / "out.csv"),
    }
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


def traced_peak(config) -> int:
    """The tracemalloc peak of this process over ``run_sweep(config)``."""
    tracemalloc.start()
    try:
        run_sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def readme_experiments() -> dict:
    """Experiment name -> its statistics, read off the README's experiments table.

    A statistic is a backquoted name outside the parentheses of its cell.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = re.search(r"^\| experiment +\| statistics \|\n\|[- |]+\|\n", readme, re.M)
    listed = {}
    for line in readme[header.end() :].split("\n\n", 1)[0].splitlines():
        name_cell, statistics_cell = line.strip("| ").split(" | ")
        depth, outside = 0, []
        for ch in statistics_cell:
            depth += ch == "("
            outside.append(ch if depth == 0 else "")
            depth -= ch == ")"
        listed[name_cell.strip(" `")] = tuple(re.findall(r"`([^`]+)`", "".join(outside)))
    return listed


def test_readme_lists_every_experiment_and_its_statistics():
    expected = {name: spec.statistics for name, spec in experiments.EXPERIMENTS.items()}
    assert list(readme_experiments().items()) == list(expected.items())


class TestConfigValidation:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="detect-cubic")

    def test_bad_trials(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, trials=0)

    def test_bad_n(self, tmp_path):
        # Two vertices have one edge and no wedge: detect-wedge's cutoff is 0 and flags every draw.
        for n in (1, 2):
            with pytest.raises(ConfigError, match="every n must be at least 3"):
                make_config(tmp_path, n_values=[n])

    def test_gamma_range(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, gamma_spec=[0.7])

    def test_scaling_spec(self, tmp_path):
        cfg = make_config(tmp_path, gamma_spec={"c": 3.0, "alpha": 0.5}, n_values=[100])
        assert cfg.gammas_for(100) == (pytest.approx(0.3),)

    def test_scaling_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, gamma_spec={"c": -1.0, "alpha": 0.5})
        with pytest.raises(ConfigError):
            make_config(tmp_path, gamma_spec={"c": 1.0, "alpha": 1.5})
        with pytest.raises(ConfigError):
            make_config(tmp_path, gamma_spec={"c": 1.0})

    def test_scaling_gamma_must_stay_valid(self, tmp_path):
        # c n^(-alpha) > 1/2 at n=4 is rejected
        with pytest.raises(ConfigError, match=r"in \[0, 1/2\], got 1.0 at n=4$"):
            make_config(tmp_path, gamma_spec={"c": 2.0, "alpha": 0.5}, n_values=[4])

    def test_mle_size_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="mle-compare", n_values=[17], gamma_spec=[0.25])

    def test_chi2_size_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="chi2-table", n_values=[7], gamma_spec=[0.1])

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"experiment": "recover", "bogus": 1})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"experiment": "recover"})

    def test_non_object_refused(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            SweepConfig.from_dict([])

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            SweepConfig("detect-wedge", (10,), [0.1], 0, 1)

    def test_replace_validates(self, tmp_path):
        with pytest.raises(ConfigError):
            dataclasses.replace(make_config(tmp_path), threads=0)

    def test_from_dict_takes_defaults_from_the_dataclass(self):
        minimal = {
            "experiment": "recover", "n_values": [8], "gamma_spec": [0.1], "trials": 2, "seed": 3
        }
        assert SweepConfig.from_dict(minimal) == SweepConfig(
            "recover", (8,), [0.1], 2, 3, threads=1, output_path="sweep.csv", epsilon=0.1
        )

        @dataclasses.dataclass(frozen=True)
        class WideMargin(SweepConfig):
            epsilon: float = 0.25

        assert WideMargin.from_dict(minimal).epsilon == 0.25

    def test_grid_is_frozen(self, tmp_path):
        with pytest.raises(AttributeError):
            make_config(tmp_path).gamma_spec.append(0.9)
        rule = {"c": 1.0, "alpha": 0.5}
        scaled = make_config(tmp_path, gamma_spec=rule)
        with pytest.raises(TypeError):
            scaled.gamma_spec["c"] = 9.0
        rule["alpha"] = 0.0  # the config keeps its own copy of the rule
        assert scaled.gammas_for(4) == (0.5,)
        direct = SweepConfig("detect-wedge", [10, 12], [0.1], 1, 1)
        assert direct.n_values == (10, 12) and direct.gamma_spec == (0.1,)
        assert dataclasses.replace(scaled, seed=2).gamma_spec == {"c": 1.0, "alpha": 0.5}
        with pytest.raises(ConfigError):
            dataclasses.replace(scaled, gamma_spec={"c": 1.0, "alpha": 2.0})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma_spec": {"c": "abc", "alpha": 0.5}},
            {"gamma_spec": ["x"]},
            {"gamma_spec": [None]},
            {"gamma_spec": {"c": 1.0, "alpha": None}},
            {"n_values": 5},
            {"experiment": ["recover"]},
            {"output_path": 5},
            pytest.param({"output_path": "a\u0000b.csv"}, id="nul-in-output-path"),
            {"trials": True},
            {"seed": True},
            {"threads": True},
            {"epsilon": True},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            pytest.param({"gamma_spec": {"c": 10**401, "alpha": 0.5}}, id="huge-c"),
            pytest.param({"gamma_spec": {"c": 1.0, "alpha": 10**401}}, id="huge-alpha"),
            pytest.param({"gamma_spec": [10**401]}, id="huge-gamma"),
            pytest.param({"n_values": [10**401]}, id="huge-n-gamma-list"),
            pytest.param(
                {"n_values": [10**401], "gamma_spec": {"c": 1.0, "alpha": 0.5}},
                id="huge-n-gamma-scaling",
            ),
            pytest.param({"epsilon": 10**401}, id="huge-epsilon"),
            pytest.param({"n_values": [10**300]}, id="n-too-large-for-an-array"),
            {"n_values": [2]},
            {"n_values": [10, 10]},
            {"gamma_spec": [0.1, 0.1]},
            {"gamma_spec": [0.0, -0.0]},
            {"gamma_spec": [[0.1]]},
            {"gamma_spec": [0.1, [0.2]]},
            {"gamma_spec": {"c": [1, 2], "alpha": [3, 4]}},
            {"gamma_spec": {"c": [1], "alpha": 0.5}},
            {"gamma_spec": {"alpha": 1.5, "c": 0.5}},  # read by key, not in JSON order
            {"gamma_spec": 0.1},
            {"gamma_spec": None},
            {"gamma_spec": "0.1"},
        ],
        ids=json.dumps,
    )
    def test_wrong_json_types_exit_2(self, tmp_path, overrides):
        raw = {
            "experiment": "detect-wedge",
            "n_values": [10],
            "gamma_spec": [0.0, 0.4],
            "trials": 2,
            "seed": 11,
            "output_path": str(tmp_path / "rows.csv"),
            **overrides,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "rows.csv").exists()


    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf, True, "0.1", [0.1]])
    def test_epsilon_refused_as_the_spectral_test_refuses_it(self, tmp_path, epsilon):
        with pytest.raises(ValueError) as direct:
            spectral_test(sample_null(3, RngStream(0)), epsilon)
        with pytest.raises(ConfigError) as configured:
            make_config(tmp_path, epsilon=epsilon)
        assert str(configured.value) == str(direct.value)

    def test_numpy_integers_are_stored_as_python_ints(self, tmp_path):
        plain = make_config(tmp_path, n_values=[12, 16], output_path=str(tmp_path / "plain.csv"))
        wide = SweepConfig(
            "detect-wedge",
            [np.int64(12), np.int64(16)],
            [0.0, 0.3],
            np.int64(3),
            np.int64(7),
            threads=np.int64(1),
            output_path=str(tmp_path / "wide.csv"),
        )
        assert all(type(v) is int for v in (*wide.n_values, wide.trials, wide.seed, wide.threads))
        run_sweep(plain)
        run_sweep(wide)
        assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        # np.int64(4e9) squared would overflow with a RuntimeWarning; the stored int does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="too large"):
                SweepConfig("detect-wedge", [np.int64(4_000_000_000)], [0.1], 1, 1)

    def test_numpy_float_epsilon_is_stored_as_python_float(self, tmp_path):
        grid = {"experiment": "detect-spectral", "n_values": [9, 4], "gamma_spec": [0.3, 0.0]}
        plain = make_config(tmp_path, epsilon=float(np.float32(0.1)), **grid)
        wide_path = tmp_path / "wide.csv"
        wide = dataclasses.replace(plain, epsilon=np.float32(0.1), output_path=str(wide_path))
        assert type(wide.epsilon) is float
        assert type(spectral_test(sample_null(4, RngStream(0)), wide.epsilon).threshold) is float
        direct = spectral_test(sample_null(4, RngStream(0)), np.float32(0.1))
        assert type(direct.threshold) is float and direct.threshold == 2.0 + float(np.float32(0.1))
        run_sweep(wide)
        run_sweep(plain)
        assert wide_path.read_bytes() == Path(plain.output_path).read_bytes()


class TestRunSweep:
    def test_row_count_and_schema(self, tmp_path):
        cfg = make_config(tmp_path)
        result = run_sweep(cfg)
        # |n| * |gamma| * trials * statistics
        assert len(result.rows) == 1 * 2 * 3 * 2
        with open(cfg.output_path, newline="") as fh:
            header, *records = csv.reader(fh)
        assert header == CSV_HEADER
        # Each row reads back as the record it was written from.
        for record, r in zip(records, result.rows, strict=True):
            gamma, value = f"{r.gamma:.17g}", f"{r.value:.17g}"
            assert record == [r.experiment, str(r.n), gamma, str(r.trial), r.statistic, value]
            assert math.isfinite(r.value)

    def test_rows_sorted(self, tmp_path):
        cfg = make_config(tmp_path, n_values=[8, 6], gamma_spec=[0.4, 0.1], trials=2)
        result = run_sweep(cfg)
        keys = [(r.n, r.gamma, r.trial, r.statistic) for r in result.rows]
        assert keys == sorted(keys)

    def test_sorting_the_points_keeps_their_streams(self, tmp_path):
        # Points run in (n, gamma) order, but each trial draws from its stream
        # in config order: point index * trials + trial.
        n_values, gammas, trials = [8, 6], [0.4, 0.1], 3
        cfg = make_config(tmp_path, n_values=n_values, gamma_spec=gammas, trials=trials)
        run_sweep(cfg)
        spec = experiments.EXPERIMENTS[cfg.experiment]
        expected = []
        for point, (n, gamma) in enumerate(itertools.product(n_values, gammas)):
            for trial in range(trials):
                rng = RngStream(cfg.seed, point * trials + trial)
                values = spec.trial(n, gamma, rng, cfg.epsilon)
                for statistic, value in zip(spec.statistics, values, strict=True):
                    expected.append((n, gamma, trial, statistic, f"{value:.17g}"))
        lines = [f"{cfg.experiment},{n},{g:.17g},{t},{s},{v}" for n, g, t, s, v in sorted(expected)]
        assert Path(cfg.output_path).read_text() == "\n".join([",".join(CSV_HEADER), *lines]) + "\n"

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # Rows go to the file as trials finish; holding them all before one
        # sorted write would add about 1.5 MiB between 800 and 8000 rows.
        def peak(trials):
            grid = {"n_values": [8], "gamma_spec": [0.1], "trials": trials}
            return traced_peak(make_config(tmp_path, experiment="recover", **grid))

        peak(20)  # warm every cache first
        assert peak(2000) < peak(200) + 64 * 2**10

    def test_pooled_memory_does_not_grow_with_rows(self, tmp_path):
        # Two workers, 3000 and 24000 rows.  The main process holds a bounded window of
        # chunks in flight; sending every chunk, an eighth of the tasks, at once added
        # about 2 MiB between the two.
        def peak(trials):
            grid = {"n_values": [3], "gamma_spec": [0.1], "trials": trials, "threads": 2}
            return traced_peak(make_config(tmp_path, experiment="chi2-table", **grid))

        peak(16)  # import the pool module and warm every cache first
        assert peak(8000) < peak(1000) + 512 * 2**10

    def test_non_finite_value_mid_sweep_keeps_existing_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        run_sweep(make_config(tmp_path))
        before = out.read_bytes()
        spec = experiments.EXPERIMENTS["detect-wedge"]
        calls = []

        def trial(n, gamma, rng, epsilon):
            calls.append(gamma)
            if len(calls) < 5:
                return spec.trial(n, gamma, rng, epsilon)
            # The write is under way: its temporary file exists.
            assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
            return 1.0, math.nan

        monkeypatch.setitem(
            experiments.EXPERIMENTS, "detect-wedge", dataclasses.replace(spec, trial=trial)
        )
        message = "non-finite value for verdict at n=12, gamma=0.3, trial=1"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_sweep(make_config(tmp_path, seed=8))
        assert len(calls) == 5
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_pooled_sweeps_leave_no_process_or_temporary_file(self, tmp_path, monkeypatch):
        grid = {"trials": 40, "threads": 2}
        out = tmp_path / "out.csv"
        run_sweep(make_config(tmp_path, **grid))
        assert multiprocessing.active_children() == []
        before = out.read_bytes()
        spec = experiments.EXPERIMENTS["detect-wedge"]

        def trial(n, gamma, rng, epsilon):
            values = spec.trial(n, gamma, rng, epsilon)
            return (values[0], math.nan) if rng.stream_index == 50 else values

        # The workers are forked after this patch, so they run the failing trial too.
        monkeypatch.setitem(
            experiments.EXPERIMENTS, "detect-wedge", dataclasses.replace(spec, trial=trial)
        )
        message = "non-finite value for verdict at n=12, gamma=0.3, trial=10"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_sweep(make_config(tmp_path, **grid))
        assert multiprocessing.active_children() == []
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg1 = make_config(tmp_path, output_path=str(out1), trials=6)
        cfg2 = make_config(tmp_path, output_path=str(out2), trials=6)
        run_sweep(cfg1, threads=1)
        run_sweep(cfg2, threads=3)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cpus, pools", [(8, [2]), (1, []), (None, [])])
    def test_workers_capped_by_trials_and_cpus(self, tmp_path, monkeypatch, cpus, pools):
        built = []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        grid = {"gamma_spec": [0.3], "trials": 2}
        wide = make_config(tmp_path, threads=64, **grid)
        serial = make_config(tmp_path, output_path=str(tmp_path / "serial.csv"), **grid)
        run_sweep(wide)
        run_sweep(serial)
        assert built == pools
        assert Path(wide.output_path).read_bytes() == Path(serial.output_path).read_bytes()

    def test_short_result_stream_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        class DroppingPool:
            """An in-process pool whose map loses the last value of every call."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks[:-1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DroppingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="shorter"):
            run_sweep(make_config(tmp_path, threads=2, trials=10))
        assert list(tmp_path.iterdir()) == []

    def test_reruns_are_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = make_config(tmp_path, output_path=str(out))
        run_sweep(cfg)
        first = out.read_bytes()
        run_sweep(cfg)
        assert out.read_bytes() == first

    def test_null_false_positive_rate(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="detect-wedge", n_values=[200], gamma_spec=[0.0], trials=100
        )
        result = run_sweep(cfg)
        verdicts = [r.value for r in result.rows if r.statistic == "verdict"]
        assert len(verdicts) == 100
        assert np.mean(verdicts) <= 0.10

    def test_detect_wedge_rows_match_tournament_draws(self, tmp_path):
        # n = 725 takes three score blocks.
        n, gammas, trials = 725, [0.0, 0.05], 2
        cfg = make_config(tmp_path, n_values=[n], gamma_spec=gammas, trials=trials)
        run_sweep(cfg)
        cutoff = 3.0 * math.sqrt(wedge_null_moments(n)[1])
        lines = [",".join(CSV_HEADER)]
        for stream, (gamma, trial) in enumerate(itertools.product(gammas, range(trials))):
            rng = RngStream(cfg.seed, stream)
            if gamma == 0.0:
                t = sample_null(n, rng)
            else:
                _, t = sample_planted_uniform(ModelParams(n, gamma), rng)
            wedge = wedge_statistic(t)
            for statistic, value in (("verdict", float(wedge >= cutoff)), ("wedge", wedge)):
                lines.append(f"detect-wedge,{n},{gamma:.17g},{trial},{statistic},{value:.17g}")
        assert Path(cfg.output_path).read_text() == "\n".join(lines) + "\n"

    def test_recover_statistics(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="recover", n_values=[30], gamma_spec=[0.2], trials=4
        )
        result = run_sweep(cfg)
        stats = {r.statistic for r in result.rows}
        assert stats == {
            "kendall_error",
            "footrule_error",
            "pessimistic_error",
            "expected_error_bound",
        }
        by_stat = {
            s: [r.value for r in result.rows if r.statistic == s] for s in stats
        }
        for k_err, p_err in zip(by_stat["kendall_error"], by_stat["pessimistic_error"]):
            assert p_err >= k_err
        expected = rbw_expected_errors(ModelParams(30, 0.2))[0]
        assert by_stat["expected_error_bound"] == [expected] * 4

    def test_recover_runs_at_every_gamma(self, tmp_path):
        # Every gamma in [0, 1/2] runs. At 1/2 the draw is transitive, so RBW is exact.
        for threads in (1, 2):
            cfg = make_config(
                tmp_path, experiment="recover", n_values=[10], gamma_spec=[0.3, 0.5],
                threads=threads,
            )
            rows = run_sweep(cfg).rows
            assert {r.gamma for r in rows} == {0.3, 0.5}
            for r in rows:
                if r.statistic == "expected_error_bound":
                    assert r.value == rbw_expected_errors(ModelParams(r.n, r.gamma))[0]
            assert all(r.value == 0.0 for r in rows if r.gamma == 0.5)

    def test_mle_compare_statistics(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="mle-compare", n_values=[6, 10, 16], gamma_spec=[0.25], trials=5
        )
        result = run_sweep(cfg)
        assert {r.n for r in result.rows} == {6, 10, 16}
        ratios = [r.value for r in result.rows if r.statistic == "alignment_ratio"]
        rbw = [r.value for r in result.rows if r.statistic == "rbw_alignment"]
        mle = [r.value for r in result.rows if r.statistic == "mle_alignment"]
        for rat, a, b in zip(ratios, rbw, mle):
            assert a <= b
            if b:
                assert rat == pytest.approx(a / b)

    def test_mle_compare_enumerates_no_rankings(self, tmp_path):
        # brute_force_mle would leave ranking_codes(9) in the cache.
        ranking_codes.cache_clear()
        run_sweep(make_config(tmp_path, experiment="mle-compare", n_values=[9], gamma_spec=[0.2]))
        assert ranking_codes.cache_info().currsize == 0

    def test_chi2_table(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="chi2-table", n_values=[3, 4, 5], gamma_spec=[0.1, 0.2], trials=1
        )
        result = run_sweep(cfg)
        by_point = {}
        for r in result.rows:
            by_point.setdefault((r.n, r.gamma), {})[r.statistic] = r.value
        for stats in by_point.values():
            assert abs(stats["chi2_exact"] - stats["chi2_fourier"]) < 1e-10

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        run_sweep(make_config(tmp_path))
        before = out.read_bytes()
        calls = []

        def failing_format(x):
            calls.append(x)
            if len(calls) > 5:
                raise RuntimeError("disk full")
            return f"{x:.17g}"

        monkeypatch.setattr(experiments, "_format_float", failing_format)
        with pytest.raises(RuntimeError):
            run_sweep(make_config(tmp_path, seed=8))
        assert out.read_bytes() == before
        calls.clear()
        with pytest.raises(RuntimeError):
            write_summary(summarize(out), out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_detection_experiments_read_one_draw_per_task(self, tmp_path):
        # 8 n^(-3/4) at n = 64; at n = 30 it would pass 1/2, so both sizes take this gamma.
        n_values, gammas, trials = [30, 64], [0.0, 8.0 * 64**-0.75], 3
        rows = {}
        for experiment in ("detect-wedge", "detect-spectral"):
            cfg = make_config(
                tmp_path,
                experiment=experiment,
                n_values=n_values,
                gamma_spec=gammas,
                trials=trials,
                output_path=str(tmp_path / f"{experiment}.csv"),
            )
            for r in run_sweep(cfg).rows:
                rows[r.n, r.gamma, r.trial, r.statistic] = r.value
        points = itertools.product(n_values, gammas, range(trials))
        for stream, (n, gamma, trial) in enumerate(points):
            # Config order numbers the streams: point index * trials + trial.
            rng = RngStream(cfg.seed, stream)
            if gamma == 0.0:
                t = sample_null(n, rng)
            else:
                _, t = sample_planted_uniform(ModelParams(n, gamma), rng)
            assert rows[n, gamma, trial, "wedge"] == wedge_statistic(t)
            assert rows[n, gamma, trial, "spectral_scaled"] == spectral_statistic(t) / math.sqrt(n)

    def test_detect_spectral(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="detect-spectral", n_values=[32], gamma_spec=[0.0], trials=3
        )
        result = run_sweep(cfg)
        scaled = [r.value for r in result.rows if r.statistic == "spectral_scaled"]
        assert all(0.0 < v < 3.0 for v in scaled)


class TestSummarize:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        assert summarize(path) == []

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(",".join(CSV_HEADER) + "\nrecover,10,0.1,0,kendall_error,7\n")
        ((experiment, n, gamma, stat, count, mean, sd, rate),) = summarize(path)
        assert (experiment, n, gamma, stat) == ("recover", 10, 0.1, "kendall_error")
        assert count == 1 and mean == 7.0 and sd == 0.0 and rate == 1.0

    def test_matches_independent_recomputation(self, tmp_path):
        gen = np.random.default_rng(5)
        path = tmp_path / "fixture.csv"
        rows = []
        for trial in range(50):
            for stat in ("alpha", "beta"):
                rows.append(("demo", 10, 0.25, trial, stat, float(gen.normal())))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
        summary = {(r[0], r[1], r[2], r[3]): r for r in summarize(path)}
        for stat in ("alpha", "beta"):
            values = [r[5] for r in rows if r[4] == stat]
            _, _, _, _, count, mean, sd, rate = summary[("demo", 10, 0.25, stat)]
            assert count == 50
            assert mean == pytest.approx(statistics.fmean(values), rel=1e-12)
            assert sd == pytest.approx(statistics.pstdev(values), rel=1e-12)
            assert rate == pytest.approx(np.mean([v != 0 for v in values]))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedCsvError):
            summarize(path)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(",".join(CSV_HEADER) + "\nrecover,ten,0.1,0,kendall_error,7\n")
        with pytest.raises(MalformedCsvError):
            summarize(path)

    @pytest.mark.parametrize(
        "gamma, value", [("0.1", "nan"), ("0.1", "inf"), ("0.1", "-inf"), ("nan", "7")]
    )
    def test_non_finite_number_rejected(self, tmp_path, gamma, value):
        # run_sweep never writes one, and summarize would report nan means.
        path = tmp_path / "bad3.csv"
        path.write_text(",".join(CSV_HEADER) + f"\nrecover,10,{gamma},0,kendall_error,{value}\n")
        with pytest.raises(MalformedCsvError):
            summarize(path)
        assert main(["summarize", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        assert not (tmp_path / "o.csv").exists()

    def test_write_summary_roundtrip(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text(",".join(CSV_HEADER) + "\nrecover,10,0.1,0,kendall_error,7\n")
        out = tmp_path / "summary.csv"
        write_summary(summarize(src), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,n,gamma,statistic,count,mean,sd,success_rate"
        assert lines[1].startswith("recover,10,")


class TestCli:
    def write_config(self, tmp_path, **overrides):
        raw = {
            "experiment": "detect-wedge",
            "n_values": [10],
            "gamma_spec": [0.0, 0.4],
            "trials": 2,
            "seed": 11,
            "output_path": str(tmp_path / "rows.csv"),
        }
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def modules_after_run(self, config: Path, *args: str) -> list:
        """Names in sys.modules after a fresh interpreter runs the CLI on ``config``."""
        code = (
            "import json, sys, tourney_lab.cli;"
            f" assert tourney_lab.cli.main(['run', '--config', {str(config)!r}, *{args!r}]) == 0;"
            " print(json.dumps(list(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_imports_no_scipy(self, tmp_path):
        # a spectral sweep runs first, so a lazy import on that path shows too
        config = self.write_config(
            tmp_path, experiment="detect-spectral", n_values=[8], gamma_spec=[0.0], trials=1
        )
        assert [m for m in self.modules_after_run(config) if m.split(".")[0] == "scipy"] == []

    def test_serial_run_imports_no_process_pool(self, tmp_path):
        # two trials, so only --threads 1 keeps the sweep in this process
        modules = self.modules_after_run(self.write_config(tmp_path), "--threads", "1")
        assert "concurrent.futures.process" not in modules

    def test_run_and_summarize(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        rows_path = tmp_path / "rows.csv"
        assert rows_path.exists()
        out_path = tmp_path / "summary.csv"
        assert main(["summarize", "--in", str(rows_path), "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_cli_overrides(self, tmp_path):
        config = self.write_config(tmp_path)
        override = tmp_path / "override.csv"
        assert main(["run", "--config", str(config), "--seed", "99", "--out", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "rows.csv").exists()  # output path was overridden

    def test_seed_changes_rows_thread_count_does_not(self, tmp_path):
        config = self.write_config(tmp_path)
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["run", "--config", str(config), "--out", str(a), "--threads", "1"])
        main(["run", "--config", str(config), "--out", str(b), "--threads", "2"])
        main(["run", "--config", str(config), "--out", str(c), "--seed", "12345"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def assert_rows_independent_of_thread_count(self, tmp_path, **grid):
        config = self.write_config(tmp_path, **grid)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(config), "--out", str(a), "--threads", "1"]) == 0
        assert main(["run", "--config", str(config), "--out", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("experiment", sorted(experiments.EXPERIMENTS))
    def test_rows_independent_of_thread_count(self, tmp_path, experiment):
        # An unsorted grid within every experiment's limits.
        self.assert_rows_independent_of_thread_count(
            tmp_path, experiment=experiment, n_values=[6, 4], gamma_spec=[0.2, 0.05]
        )

    def test_spectral_rows_independent_of_thread_count(self, tmp_path):
        # n = 725 takes several upper row blocks in the spectral product.
        self.assert_rows_independent_of_thread_count(
            tmp_path, experiment="detect-spectral", n_values=[9, 64, 725], gamma_spec=[0.0, 0.2]
        )

    def test_chunked_rows_independent_of_thread_count(self, tmp_path):
        # 28 tasks: two workers take chunks of 28 // 8 = 3, and the last chunk holds one.
        self.assert_rows_independent_of_thread_count(
            tmp_path, experiment="recover", n_values=[8, 9], gamma_spec=[0.05, 0.2], trials=7
        )

    def test_zero_threads_exit_2(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config), "--threads", "0"]) == 2
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("experiment", ["nope", "spectrum-verify"])
    def test_config_error_exit_code(self, tmp_path, capsys, experiment):
        config = self.write_config(tmp_path, experiment=experiment)
        assert main(["run", "--config", str(config)]) == 2
        assert not (tmp_path / "rows.csv").exists()
        choices = "['chi2-table', 'detect-spectral', 'detect-wedge', 'mle-compare', 'recover']"
        assert f"choose from {choices}\n" in capsys.readouterr().err

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"[1, 2]", b'{"experiment": "\xff"}', b"[" * 100_000],
        ids=["list", "not-utf8", "nested-100000-deep"],
    )
    def test_non_object_or_non_utf8_config_exit_code(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 2

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # Python refuses to parse an integer literal of more than 4300 digits; negative, so
        # that a run with the limit lifted is refused too, rather than running forever.
        config = self.write_config(tmp_path)
        config.write_text(config.read_text().replace('"trials": 2', '"trials": -' + "9" * 5000))
        assert main(["run", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["summarize", "--in", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3

    def test_malformed_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code = main(["summarize", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_short_row_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_HEADER) + "\nrecover,10,0.1,0,kendall_error\n")
        with pytest.raises(MalformedCsvError, match="line 2: expected 6 fields"):
            summarize(bad)
        assert main(["summarize", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "field", [b"kendall_error\xff", b"x" * 200_000], ids=["not-utf8", "oversized-field"]
    )
    def test_undecodable_csv_is_io_error(self, tmp_path, field):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(",".join(CSV_HEADER).encode() + b"\nrecover,10,0.1,0," + field + b",7\n")
        with pytest.raises(MalformedCsvError):
            summarize(bad)
        code = main(["summarize", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "experiment, prints",
        [(name, name in ("recover", "mle-compare")) for name in sorted(experiments.EXPERIMENTS)],
    )
    def test_tie_rule_printed_for_ranking_experiments(self, tmp_path, capsys, experiment, prints):
        # n = 6 is within every experiment's limits.
        config = self.write_config(tmp_path, experiment=experiment, n_values=[6], gamma_spec=[0.1])
        assert main(["run", "--config", str(config)]) == 0
        assert ("tie rule:" in capsys.readouterr().out) == prints

    @pytest.mark.parametrize("route", ["config", "--out"])
    def test_empty_output_path_exits_2_before_any_trial(self, tmp_path, monkeypatch, route):
        def trial_values(task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_trial_values", trial_values)
        if route == "config":
            args = ["run", "--config", str(self.write_config(tmp_path, output_path=""))]
        else:
            args = ["run", "--config", str(self.write_config(tmp_path)), "--out", ""]
        assert main(args) == 2

    def test_negative_zero_gamma_writes_zero(self, tmp_path):
        written = []
        for name, gamma in (("plus", 0.0), ("minus", -0.0)):
            config = self.write_config(tmp_path, gamma_spec=[gamma, 0.1])
            rows, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}-summary.csv"
            assert main(["run", "--config", str(config), "--out", str(rows)]) == 0
            assert main(["summarize", "--in", str(rows), "--out", str(summary)]) == 0
            written.append((rows.read_bytes(), summary.read_bytes()))
        assert written[0] == written[1]
        assert b"detect-wedge,10,0," in written[1][0] and b",-0," not in written[1][0]

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = self.write_config(tmp_path, output_path="/proc/nope/rows.csv")
        assert main(["run", "--config", str(config)]) == 3
