"""Seeded Monte Carlo sweep engine with deterministic CSV output.

A sweep enumerates (n, gamma, trial) points for one experiment, draws each
trial from its own counter-based random stream, and writes one CSV row per
statistic.  Output bytes depend only on the configuration, never on thread
count or scheduling.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import detection, fourier, recovery, spectral
from .core import (
    ModelParams,
    RngStream,
    alignment,
    kendall_tau,
    sample_null,
    sample_planted_uniform,
    spearman_footrule,
)

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "MalformedCsvError",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "summarize",
    "write_summary",
]

SUMMARY_HEADER = ["experiment", "n", "gamma", "statistic", "count", "mean", "sd", "success_rate"]

# Null calibration for sweep verdicts: a draw is flagged planted when the
# wedge statistic exceeds this many null standard deviations.
WEDGE_NULL_SDS = 3.0


class ConfigError(ValueError):
    """Invalid sweep configuration."""


class MalformedCsvError(ValueError):
    """Input CSV does not follow the sweep schema."""


class SweepRow(NamedTuple):
    experiment: str
    n: int
    gamma: float
    trial: int
    statistic: str
    value: float


CSV_HEADER = list(SweepRow._fields)


def _draw_tournament(n: int, gamma: float, rng: RngStream):
    if gamma == 0.0:
        return sample_null(n, rng)
    _, t = sample_planted_uniform(ModelParams(n, gamma), rng)
    return t


def _detect_wedge(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    f = detection.wedge_statistic(_draw_tournament(n, gamma, rng))
    cutoff = WEDGE_NULL_SDS * math.sqrt(detection.wedge_null_moments(n)[1])
    return f, 1.0 if f >= cutoff else 0.0


def _detect_spectral(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    test = detection.spectral_test(_draw_tournament(n, gamma, rng), epsilon)
    return test.statistic_value, float(test.is_planted)


def _recover(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    params = ModelParams(n, gamma)
    hidden, t = sample_planted_uniform(params, rng)
    estimate = recovery.ranking_by_wins(t)
    return (
        kendall_tau(hidden, estimate),
        spearman_footrule(hidden, estimate),
        recovery.pessimistic_error_statistic(t, hidden),
        recovery.expected_error_bound(params),
    )


def _mle_compare(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    _, t = sample_planted_uniform(ModelParams(n, gamma), rng)
    rbw_value = alignment(recovery.ranking_by_wins(t), t)
    best = recovery.brute_force_mle(t).best_alignment
    return rbw_value, best, rbw_value / best if best else 1.0  # a zero optimum: RBW is optimal


def _chi2_table(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    params = ModelParams(n, gamma)
    return fourier.chi2_exact(params), fourier.chi2_fourier(params), fourier.tv_exact(params)


def _spectrum_verify(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    a_matrix = spectral.build_A(n)
    vecs = np.empty((n, n), dtype=np.complex128)
    lams = np.empty(n)
    for i in range(1, n + 1):
        lams[i - 1], vecs[:, i - 1] = spectral.closed_form_eigenpair(n, i)
    residuals = np.linalg.norm(a_matrix @ vecs - vecs * lams[None, :], axis=0)
    gram = vecs.conj().T @ vecs
    np.fill_diagonal(gram, 0.0)
    return residuals.max(), np.abs(gram).max()


@dataclass(frozen=True)
class Experiment:
    """An experiment: ``trial(n, gamma, rng, epsilon)`` returns one value per name
    in ``statistics``, in order.  Trials are module-level and reach the library
    through module globals at call time, so process pools can pickle them and
    tracers that rebind those names see every call.
    """

    statistics: tuple
    trial: Callable
    max_n: int | None = None
    max_gamma: float = 0.5
    prints_tie_rule: bool = False


EXPERIMENTS = {
    "detect-wedge": Experiment(("wedge", "verdict"), _detect_wedge),
    "detect-spectral": Experiment(("spectral_scaled", "verdict"), _detect_spectral),
    "recover": Experiment(
        ("kendall_error", "footrule_error", "pessimistic_error", "expected_error_bound"),
        _recover,
        max_gamma=0.25,  # the expected-error bound assumes gamma <= 1/4
        prints_tie_rule=True,
    ),
    "mle-compare": Experiment(
        ("rbw_alignment", "mle_alignment", "alignment_ratio"),
        _mle_compare,
        max_n=recovery.MAX_MLE_N,
        prints_tie_rule=True,
    ),
    "chi2-table": Experiment(
        ("chi2_exact", "chi2_fourier", "tv_exact"), _chi2_table, max_n=fourier.MAX_DIVERGENCE_N
    ),
    "spectrum-verify": Experiment(
        ("max_eigen_residual", "max_offdiag_inner_product"), _spectrum_verify, max_n=1024
    ),
}


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # JSON integers are unbounded; one too large for a float is not a usable number.
    return (_is_int(x) and abs(x) <= sys.float_info.max) or isinstance(x, float)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: experiment name, grid, trial count, seed, and output path.

    ``gamma_spec`` is either an explicit list of values or a scaling rule
    ``{"c": c, "alpha": a}`` meaning gamma = c * n^(-alpha) at each n.
    ``epsilon`` is the spectral test margin (spectral detection only).
    Every construction, ``dataclasses.replace`` included, freezes the grid
    (lists become tuples, the rule a read-only mapping), validates the
    config and raises :class:`ConfigError` if it is invalid.
    """

    experiment: str
    n_values: tuple
    gamma_spec: object
    trials: int
    seed: int
    threads: int = 1
    output_path: str = "sweep.csv"
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if isinstance(self.n_values, list):
            object.__setattr__(self, "n_values", tuple(self.n_values))
        if isinstance(self.gamma_spec, list):
            object.__setattr__(self, "gamma_spec", tuple(self.gamma_spec))
        elif isinstance(self.gamma_spec, Mapping):
            object.__setattr__(self, "gamma_spec", MappingProxyType(dict(self.gamma_spec)))
        self.validate()

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)

    def gammas_for(self, n: int) -> tuple:
        if isinstance(self.gamma_spec, tuple):
            return tuple(float(g) for g in self.gamma_spec)
        return (float(self.gamma_spec["c"]) * float(n) ** -float(self.gamma_spec["alpha"]),)

    def validate(self) -> None:
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {sorted(EXPERIMENTS)}"
            )
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        if not _is_int(self.threads) or self.threads < 1:
            raise ConfigError("threads must be a positive integer")
        if not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        if not isinstance(self.output_path, str):
            raise ConfigError("output_path must be a string")
        if not isinstance(self.n_values, tuple) or not self.n_values:
            raise ConfigError("n_values must be a non-empty list")
        for n in self.n_values:
            if not (_is_int(n) and _is_number(n)) or n < 2:
                raise ConfigError("every n must be an integer >= 2")
            if n * n > np.iinfo(np.intp).max:
                raise ConfigError(f"n={n} is too large for an n x n array")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigError("n values must be distinct")
        if isinstance(self.gamma_spec, tuple):
            if not self.gamma_spec:
                raise ConfigError("gamma list must be non-empty")
            if not all(_is_number(g) for g in self.gamma_spec):
                raise ConfigError("every gamma must be a number")
            if len(set(map(float, self.gamma_spec))) < len(self.gamma_spec):
                raise ConfigError("gamma values must be distinct")
        elif isinstance(self.gamma_spec, Mapping):
            if set(self.gamma_spec) != {"c", "alpha"}:
                raise ConfigError('gamma_spec object must have exactly the keys "c" and "alpha"')
            if not all(_is_number(v) for v in self.gamma_spec.values()):
                raise ConfigError("gamma scaling c and alpha must be numbers")
            if not float(self.gamma_spec["c"]) > 0:
                raise ConfigError("gamma scaling requires c > 0")
            if not 0.0 <= float(self.gamma_spec["alpha"]) <= 1.0:
                raise ConfigError("gamma scaling requires alpha in [0, 1]")
        else:
            raise ConfigError("gamma_spec must be a list or a {c, alpha} object")
        if not (_is_number(self.epsilon) and 0 < self.epsilon < math.inf):
            raise ConfigError("epsilon must be a finite positive number")
        spec = EXPERIMENTS[self.experiment]
        for n in self.n_values:
            if spec.max_n is not None and n > spec.max_n:
                raise ConfigError(f"{self.experiment} requires n <= {spec.max_n}")
            for gamma in self.gammas_for(n):
                if not 0.0 <= gamma <= spec.max_gamma:
                    raise ConfigError(f"gamma={gamma} at n={n} falls outside [0, {spec.max_gamma}]")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


def _tasks(config: SweepConfig) -> list:
    """(experiment, n, gamma, trial, seed, stream, epsilon) per trial, streams in that order."""
    points = [(n, gamma) for n in config.n_values for gamma in config.gammas_for(n)]
    trials = itertools.product(points, range(config.trials))
    return [
        (config.experiment, n, gamma, trial, config.seed, stream, config.epsilon)
        for stream, ((n, gamma), trial) in enumerate(trials)
    ]


def _trial_values(task: tuple) -> tuple:
    """Statistic values of one task, in the order its experiment declares."""
    experiment, n, gamma, _trial, seed, stream, epsilon = task
    return EXPERIMENTS[experiment].trial(n, gamma, RngStream(seed, stream), epsilon)


def run_sweep(config: SweepConfig, threads: int | None = None) -> SweepResult:
    """Run every trial of the sweep and write the result CSV.

    ``threads`` overrides ``config.threads``; neither affects output bytes.
    Workers are capped at one per trial and per CPU; a single worker is this
    process.  Rows are sorted by (n, gamma, trial, statistic) before writing.
    """
    if threads is not None:
        config = replace(config, threads=threads)
    tasks = _tasks(config)
    workers = min(config.threads, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [_trial_values(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_values, tasks))

    statistics = EXPERIMENTS[config.experiment].statistics
    rows = []
    for (experiment, n, gamma, trial, *_), values in zip(tasks, results):
        for statistic, value in zip(statistics, values, strict=True):
            if not math.isfinite(value):
                raise RuntimeError(
                    f"non-finite value for {statistic} at n={n}, gamma={gamma}, trial={trial}"
                )
            rows.append(SweepRow(experiment, n, gamma, trial, statistic, float(value)))
    rows.sort(key=lambda r: (r.n, r.gamma, r.trial, r.statistic))

    records = (
        [r.experiment, r.n, _format_float(r.gamma), r.trial, r.statistic, _format_float(r.value)]
        for r in rows
    )
    _write_csv(config.output_path, CSV_HEADER, records)
    return SweepResult(rows=tuple(rows))


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header: list, records) -> None:
    """Write a CSV atomically: fill a temporary file beside ``path``, then rename it.

    If anything fails, the temporary file is removed and an existing file at
    ``path`` keeps its old bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(records)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_rows(path) -> list:
    """Parse a sweep CSV back into rows, checking the schema."""
    converters = (str, int, float, int, str, float)  # one per SweepRow field
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise MalformedCsvError(f"expected header {CSV_HEADER}, found {header}")
            for lineno, record in enumerate(reader, start=2):
                if len(record) != len(CSV_HEADER):
                    raise MalformedCsvError(f"line {lineno}: expected {len(CSV_HEADER)} fields")
                try:
                    values = [convert(x) for convert, x in zip(converters, record)]
                except ValueError as exc:
                    raise MalformedCsvError(f"line {lineno}: {exc}") from exc
                rows.append(SweepRow._make(values))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedCsvError(f"unreadable CSV: {exc}") from exc
    return rows


def summarize(result_path) -> list:
    """Aggregate a sweep CSV per (experiment, n, gamma, statistic).

    Returns rows of (experiment, n, gamma, statistic, count, mean, sd,
    success_rate) where sd is the population standard deviation and
    success_rate is the fraction of non-zero values (the mean verdict for
    0/1 statistics).
    """
    rows = read_rows(result_path)
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.experiment, row.n, row.gamma, row.statistic), []).append(row.value)
    summary = []
    for key in sorted(groups):
        values = np.asarray(groups[key])
        summary.append(
            (
                *key,
                values.size,
                float(values.mean()),
                float(values.std(ddof=0)),
                float((values != 0.0).mean()),
            )
        )
    return summary


def write_summary(summary: list, path) -> None:
    records = (
        [experiment, n, _format_float(gamma), statistic, count]
        + [_format_float(x) for x in (mean, sd, rate)]
        for experiment, n, gamma, statistic, count, mean, sd, rate in summary
    )
    _write_csv(path, SUMMARY_HEADER, records)


def load_config_file(path) -> dict:
    """Read a sweep config; anything but a UTF-8 JSON object raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config is not UTF-8 JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("config JSON is nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw
