import csv
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tourney_lab import experiments
from tourney_lab.cli import main
from tourney_lab.experiments import (
    CSV_HEADER,
    ConfigError,
    MalformedCsvError,
    SweepConfig,
    read_rows,
    run_sweep,
    summarize,
    write_summary,
)


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


class TestConfigValidation:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="detect-cubic")

    def test_bad_trials(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, trials=0)

    def test_bad_n(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, n_values=[1])

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
        with pytest.raises(ConfigError):
            make_config(tmp_path, gamma_spec={"c": 2.0, "alpha": 0.5}, n_values=[4])

    def test_recover_gamma_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="recover", gamma_spec=[0.3])

    def test_mle_size_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="mle-compare", n_values=[10], gamma_spec=[0.25])

    def test_chi2_size_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, experiment="chi2-table", n_values=[7], gamma_spec=[0.1])

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"experiment": "recover", "bogus": 1})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"experiment": "recover"})

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
            {"n_values": [10, 10]},
            {"gamma_spec": [0.1, 0.1]},
            {"gamma_spec": [0.0, -0.0]},
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


class TestRunSweep:
    def test_row_count_and_schema(self, tmp_path):
        cfg = make_config(tmp_path)
        result = run_sweep(cfg)
        # |n| * |gamma| * trials * statistics
        assert len(result.rows) == 1 * 2 * 3 * 2
        parsed = read_rows(cfg.output_path)
        assert [tuple(r) for r in parsed] == [tuple(r) for r in result.rows]
        for row in result.rows:
            assert math.isfinite(row.value)

    def test_rows_sorted(self, tmp_path):
        cfg = make_config(tmp_path, n_values=[8, 6], gamma_spec=[0.4, 0.1], trials=2)
        result = run_sweep(cfg)
        keys = [(r.n, r.gamma, r.trial, r.statistic) for r in result.rows]
        assert keys == sorted(keys)

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

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        grid = {"gamma_spec": [0.3], "trials": 2}
        wide = make_config(tmp_path, threads=64, **grid)
        serial = make_config(tmp_path, output_path=str(tmp_path / "serial.csv"), **grid)
        run_sweep(wide)
        run_sweep(serial)
        assert built == pools
        assert Path(wide.output_path).read_bytes() == Path(serial.output_path).read_bytes()

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

    def test_mle_compare_statistics(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="mle-compare", n_values=[6], gamma_spec=[0.25], trials=5
        )
        result = run_sweep(cfg)
        ratios = [r.value for r in result.rows if r.statistic == "alignment_ratio"]
        rbw = [r.value for r in result.rows if r.statistic == "rbw_alignment"]
        mle = [r.value for r in result.rows if r.statistic == "mle_alignment"]
        for rat, a, b in zip(ratios, rbw, mle):
            assert a <= b
            if b:
                assert rat == pytest.approx(a / b)

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

    def test_spectrum_verify(self, tmp_path):
        cfg = make_config(
            tmp_path, experiment="spectrum-verify", n_values=[16], gamma_spec=[0.0], trials=1
        )
        result = run_sweep(cfg)
        values = {r.statistic: r.value for r in result.rows}
        assert values["max_eigen_residual"] <= 1e-9 * 16
        assert values["max_offdiag_inner_product"] <= 1e-8 * 16

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

    def test_cli_imports_no_scipy(self):
        code = (
            "import sys, tourney_lab.cli;"
            " print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

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

    def test_zero_threads_exit_2(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config), "--threads", "0"]) == 2
        assert not (tmp_path / "rows.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        config = self.write_config(tmp_path, experiment="nope")
        assert main(["run", "--config", str(config)]) == 2

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

    @pytest.mark.parametrize("experiment, prints", [("detect-wedge", False), ("recover", True)])
    def test_tie_rule_printed_for_ranking_experiments(self, tmp_path, capsys, experiment, prints):
        config = self.write_config(tmp_path, experiment=experiment, gamma_spec=[0.1])
        assert main(["run", "--config", str(config)]) == 0
        assert ("tie rule:" in capsys.readouterr().out) == prints

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = self.write_config(tmp_path, output_path="/proc/nope/rows.csv")
        assert main(["run", "--config", str(config)]) == 3
