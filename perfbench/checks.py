"""Output checks for the benchmark's CLI invocations.

Every check is an exact invariant of the sweep, so a fresh seed cannot fail
it by chance.  Each function returns a list of problems; an empty list means
the output is correct.  The CSV is parsed here, not with the program's own
reader, so that a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import csv
import math

from workloads import SPECTRAL_EPSILON

CSV_HEADER = ["experiment", "n", "gamma", "trial", "statistic", "value"]
SUMMARY_HEADER = ["experiment", "n", "gamma", "statistic", "count", "mean", "sd", "success_rate"]

STATISTICS = {
    "detect-wedge": ("wedge", "verdict"),
    "detect-spectral": ("spectral_scaled", "verdict"),
    "recover": ("kendall_error", "footrule_error", "pessimistic_error", "expected_error_bound"),
    "mle-compare": ("rbw_alignment", "mle_alignment", "alignment_ratio"),
    "chi2-table": ("chi2_exact", "chi2_fourier", "tv_exact"),
}

# The wedge verdict flags a draw whose statistic reaches 3 null standard
# deviations, sqrt(n(n-1)(n-2)/2) each.
WEDGE_NULL_SDS = 3.0


def _wedge(n, row, sweep):
    cutoff = WEDGE_NULL_SDS * math.sqrt(n * (n - 1) * (n - 2) / 2.0)
    if row["verdict"] != float(row["wedge"] >= cutoff):
        yield f"verdict {row['verdict']} disagrees with wedge {row['wedge']} vs {cutoff}"


def _spectral(n, row, sweep):
    if row["verdict"] != float(row["spectral_scaled"] >= 2.0 + SPECTRAL_EPSILON):
        yield f"verdict {row['verdict']} disagrees with spectral_scaled {row['spectral_scaled']}"


def _recover(n, row, sweep):
    kendall, footrule = row["kendall_error"], row["footrule_error"]
    if not kendall <= row["pessimistic_error"]:
        yield "kendall_error exceeds pessimistic_error"
    if not kendall <= footrule <= 2.0 * kendall:
        yield "footrule_error outside [kendall_error, 2 kendall_error]"


def _mle(n, row, sweep):
    if not row["mle_alignment"] >= row["rbw_alignment"]:
        yield "mle_alignment below rbw_alignment"
    if not row["alignment_ratio"] <= 1.0:
        yield "alignment_ratio above 1"


def _chi2(n, row, sweep):
    if not math.isclose(row["chi2_exact"], row["chi2_fourier"], rel_tol=1e-9, abs_tol=1e-12):
        yield f"chi2_exact {row['chi2_exact']} != chi2_fourier {row['chi2_fourier']}"
    if not 0.0 <= row["tv_exact"] <= 1.0:
        yield "tv_exact outside [0, 1]"


INVARIANTS = {
    "detect-wedge": _wedge,
    "detect-spectral": _spectral,
    "recover": _recover,
    "mle-compare": _mle,
    "chi2-table": _chi2,
}


def _grid(sweep):
    return {(n, float(g)) for n in sweep.n_values for g in sweep.gammas}


def check_sweep_csv(path, sweep) -> list:
    """Schema, row count, finiteness and per-trial invariants of a sweep CSV."""
    statistics = STATISTICS[sweep.experiment]
    grid = _grid(sweep)
    trials: dict = {}
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            return [f"header {header} != {CSV_HEADER}"]
        for lineno, record in enumerate(reader, start=2):
            try:
                experiment, n, gamma, trial, statistic, value = record
                key = (int(n), float(gamma), int(trial))
                value = float(value)
            except ValueError as exc:
                problems.append(f"line {lineno}: unparsable row {record}: {exc}")
                continue
            if (
                experiment != sweep.experiment
                or key[:2] not in grid
                or not 0 <= key[2] < sweep.trials
                or statistic not in statistics
            ):
                problems.append(f"line {lineno}: row outside the sweep: {record}")
            elif not math.isfinite(value):
                problems.append(f"line {lineno}: non-finite value {value}")
            elif statistic in trials.setdefault(key, {}):
                problems.append(f"line {lineno}: duplicate row {record}")
            else:
                trials[key][statistic] = value
    expected_rows = sweep.trial_count * len(statistics)
    found_rows = sum(len(row) for row in trials.values())
    if found_rows != expected_rows:
        problems.append(f"{found_rows} valid rows, expected {expected_rows}")
    invariant = INVARIANTS[sweep.experiment]
    for (n, gamma, trial), row in sorted(trials.items()):
        if len(row) == len(statistics):
            problems.extend(f"n={n} gamma={gamma} trial={trial}: {p}" for p in invariant(n, row, sweep))
    return problems


def check_summary_csv(path, sweep) -> list:
    """One finite summary row per (n, gamma, statistic), counting every trial."""
    expected = {(n, g, s) for n, g in _grid(sweep) for s in STATISTICS[sweep.experiment]}
    seen = set()
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SUMMARY_HEADER:
            return [f"header {header} != {SUMMARY_HEADER}"]
        for lineno, record in enumerate(reader, start=2):
            try:
                experiment, n, gamma, statistic, count = record[:5]
                key = (int(n), float(gamma), statistic)
                numbers = [float(x) for x in record[5:]]
                count = int(count)
            except ValueError as exc:
                problems.append(f"line {lineno}: unparsable row {record}: {exc}")
                continue
            if experiment != sweep.experiment or key not in expected or key in seen:
                problems.append(f"line {lineno}: unexpected or duplicate row {record}")
            elif count != sweep.trials:
                problems.append(f"line {lineno}: count {count} != {sweep.trials} trials")
            elif len(numbers) != 3 or not all(math.isfinite(x) for x in numbers):
                problems.append(f"line {lineno}: bad statistics {record[5:]}")
            seen.add(key)
    if seen != expected:
        problems.append(f"{len(expected - seen)} summary rows missing")
    return problems
