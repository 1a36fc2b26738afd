"""Tests of the benchmark itself: output checks, tracing, and its declaration.

    python3 -m pytest perfbench
"""

import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from tracing import Span, Tracer, installed, self_times  # noqa: E402
from workloads import WORKLOADS, Sweep  # noqa: E402

from tourney_lab import core, experiments  # noqa: E402
import tourney_lab  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
        Span("b", 3.5, 6.0, 0),  # overlaps both "a" spans; covered time counts once
    ]
    totals = self_times(spans)
    assert totals["root"] == {"calls": 1, "self_s": pytest.approx(2.0)}
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(2.0 + 4.0)}
    assert totals["leaf"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    assert totals["b"] == {"calls": 1, "self_s": pytest.approx(2.5)}


def test_wrapped_calls_record_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [Span("outer", 0.0, 6.0, -1), Span("inner", 1.0, 3.0, 0)]
    assert self_times(tracer.spans) == {
        "outer": {"calls": 1, "self_s": 4.0},
        "inner": {"calls": 1, "self_s": 2.0},
    }


def test_installed_patches_every_binding_and_restores_it(tmp_path):
    original_null, original_generator = core.sample_null, core.RngStream.generator
    tracer = Tracer()
    with installed(tracer):
        assert experiments.sample_null is core.sample_null is tourney_lab.sample_null
        assert core.sample_null is not original_null
        assert experiments.kendall_tau is core.kendall_tau
        assert core.RngStream.generator is not original_generator
        config = experiments.SweepConfig.from_dict({
            "experiment": "recover", "n_values": [8], "gamma_spec": [0.1], "trials": 3,
            "seed": 5, "output_path": str(tmp_path / "out.csv"),
        })
        experiments.run_sweep(config, threads=1)
    assert core.sample_null is experiments.sample_null is tourney_lab.sample_null is original_null
    assert core.RngStream.generator is original_generator
    totals = self_times(tracer.spans)
    assert totals["core.kendall_tau"]["calls"] == 3  # bound by name in experiments
    assert totals["core.sample_planted"]["calls"] == 3
    assert tracer.edges_sampled == 3 * 28


def _invocation(tmp_path, sweep):
    out = tmp_path / "out.csv"
    config = sweep.config(11, str(out))
    result = experiments.run_sweep(experiments.SweepConfig.from_dict(config), threads=1)
    stdout = f"wrote {len(result.rows)} rows to {out}\n"
    return bench.Invocation("run", sweep, tmp_path / "config.json", out, 11), stdout


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set(statistic, value):
    def edit(rows):
        row = next(r for r in rows if r[4] == statistic)
        row[5] = value
        return rows
    return edit


RECOVER = Sweep("recover", (8,), (0.05, 0.2), 3)
CORRUPTIONS = [
    (RECOVER, lambda rows: rows[:-1]),
    (RECOVER, lambda rows: rows + rows[-1:]),
    (RECOVER, _set("kendall_error", "nan")),
    (RECOVER, _set("footrule_error", "1000")),
    (RECOVER, _set("pessimistic_error", "-1")),
    (Sweep("detect-wedge", (12,), (0.0, 0.3), 3), _set("verdict", "0.5")),
    (Sweep("detect-spectral", (12,), (0.0, 0.3), 3), _set("spectral_scaled", "0")),
    (Sweep("chi2-table", (4,), (0.1,), 1), _set("chi2_fourier", "1e-3")),
    (Sweep("chi2-table", (4,), (0.1,), 1), _set("tv_exact", "1.5")),
    (Sweep("mle-compare", (5,), (0.1,), 3), _set("alignment_ratio", "1.5")),
    (Sweep("mle-compare", (5,), (0.1,), 3), _set("mle_alignment", "-99")),
]


@pytest.mark.parametrize("sweep, corrupt", CORRUPTIONS)
def test_corrupted_csv_counts_as_a_failure(tmp_path, sweep, corrupt):
    invocation, stdout = _invocation(tmp_path, sweep)
    run = bench.Run(seconds=1)
    assert run.record("clean", invocation.check(0, stdout), invocation.output)
    _rewrite(invocation.output, corrupt)
    assert not run.record("corrupted", invocation.check(0, stdout), invocation.output)
    assert (run.attempted, run.failed) == (2, 1)


def test_changed_bytes_count_as_a_failure(tmp_path):
    invocation, stdout = _invocation(tmp_path, RECOVER)
    run = bench.Run(seconds=1)
    assert run.record("first", invocation.check(0, stdout), invocation.output)
    _rewrite(invocation.output, lambda rows: rows[:1] + rows[1:][::-1])  # same rows, new order
    assert invocation.check(0, stdout) == []
    assert not run.record("second", invocation.check(0, stdout), invocation.output)


def test_summary_with_wrong_count_counts_as_a_failure(tmp_path):
    invocation, _ = _invocation(tmp_path, RECOVER)
    summary = bench.Invocation("summarize", RECOVER, invocation.output, tmp_path / "summary.csv", 11)
    experiments.write_summary(experiments.summarize(invocation.output), summary.output)
    assert summary.check(0, "") == []
    _rewrite(summary.output, lambda rows: [rows[0], [*rows[1][:4], "2", *rows[1][5:]], *rows[2:]])
    assert summary.check(0, "") != []


def test_failed_exit_code_is_a_failure(tmp_path):
    invocation, stdout = _invocation(tmp_path, RECOVER)
    assert invocation.check(3, stdout) != []


def test_declaration_matches_the_benchmark():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_layer_metrics_are_exactly_the_declared_ones(tmp_path):
    invocation, _ = _invocation(tmp_path, RECOVER)
    timings = {"invocations": [{"wall_s": 1.0}]}
    traced = dict(timings, functions={}, edges_sampled=0)
    metrics = bench.layer_metrics(traced, timings, timings, [invocation])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])


def test_children_may_outlive_the_deadline_by_a_fixed_margin():
    for seconds in (1, bench.MAX_SECONDS):
        assert bench.Run(seconds).time_left() == pytest.approx(seconds + bench.HARD_MARGIN_S, abs=1.0)
    assert seconds + bench.HARD_MARGIN_S < 180
    with pytest.raises(SystemExit):
        bench.main(["--workload", "wedge-large", "--seed", "1", "--seconds", str(bench.MAX_SECONDS + 1)])
