"""Seeded Monte Carlo sweep engine with deterministic CSV output.

A sweep enumerates (n, gamma, trial) points for one experiment, draws each
trial from its own counter-based random stream, and writes one CSV row per
statistic as each trial finishes.  Output bytes depend only on the
configuration, never on thread count or scheduling.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import os
from collections.abc import Callable, Mapping
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
    as_int,
    as_reals,
    kendall_tau,
    sample_null,
    sample_null_scores,
    sample_planted_scores,
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


def _draw_scores(n: int, gamma: float, rng: RngStream):
    """Win scores of the _draw_tournament draw, from the same stream."""
    if gamma == 0.0:
        return sample_null_scores(n, rng)
    _, scores = sample_planted_scores(ModelParams(n, gamma), rng)
    return scores


def _detect_wedge(n: int, gamma: float, rng: RngStream, epsilon: float) -> tuple:
    f = detection.wedge_from_scores(_draw_scores(n, gamma, rng))
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
    best = recovery.max_alignment(t)
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
        max_gamma=recovery.MAX_BOUND_GAMMA,
        prints_tie_rule=True,
    ),
    "mle-compare": Experiment(
        ("rbw_alignment", "mle_alignment", "alignment_ratio"),
        _mle_compare,
        max_n=recovery.MAX_DP_N,
        prints_tie_rule=True,
    ),
    "chi2-table": Experiment(
        ("chi2_exact", "chi2_fourier", "tv_exact"), _chi2_table, max_n=fourier.MAX_DIVERGENCE_N
    ),
    "spectrum-verify": Experiment(
        ("max_eigen_residual", "max_offdiag_inner_product"), _spectrum_verify, max_n=1024
    ),
}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: experiment name, grid, trial count, seed, and output path.

    ``gamma_spec`` is either an explicit list of values or a scaling rule
    ``{"c": c, "alpha": a}`` meaning gamma = c * n^(-alpha) at each n.
    ``epsilon`` is the spectral test margin (spectral detection only).
    Every construction, ``dataclasses.replace`` included, freezes the grid
    (lists become tuples, the rule a read-only mapping), stores its integers
    as Python ints, validates the config and raises :class:`ConfigError` if
    it is invalid.
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
        try:
            for name in ("trials", "threads", "seed"):
                object.__setattr__(self, name, as_int(getattr(self, name), name))
            if isinstance(self.n_values, (list, tuple)):
                object.__setattr__(self, "n_values", tuple(as_int(n, "n") for n in self.n_values))
            if isinstance(self.gamma_spec, list):
                object.__setattr__(self, "gamma_spec", tuple(self.gamma_spec))
            elif isinstance(self.gamma_spec, Mapping):
                object.__setattr__(self, "gamma_spec", MappingProxyType(dict(self.gamma_spec)))
            self.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
            return tuple(float(g) + 0.0 for g in self.gamma_spec)  # -0.0 + 0.0 is 0.0
        return (float(self.gamma_spec["c"]) * float(n) ** -float(self.gamma_spec["alpha"]),)

    def validate(self) -> None:
        """Raise ValueError unless the frozen config is valid; numbers pass core's rules."""
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {sorted(EXPERIMENTS)}"
            )
        for name in ("trials", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        path = self.output_path
        if not isinstance(path, str) or not path or "\0" in path:
            raise ValueError("output_path must be a non-empty string with no NUL character")
        n_values = self.n_values
        if not isinstance(n_values, tuple) or not n_values or len(set(n_values)) < len(n_values):
            raise ValueError("n_values must be a non-empty list of distinct integers")
        for n in n_values:
            if n < 2:
                raise ValueError("every n must be at least 2")
            if n * n > np.iinfo(np.intp).max:
                raise ValueError(f"n={n} is too large for an n x n array")
        if isinstance(self.gamma_spec, tuple):
            gammas = as_reals(self.gamma_spec, "gamma")
            # Checked flat before the set, which counts 0.0 and -0.0 as one value.
            if gammas.ndim != 1 or not gammas.size or len(set(gammas.tolist())) < gammas.size:
                raise ValueError("gamma_spec must be a non-empty list of distinct numbers")
        elif isinstance(self.gamma_spec, Mapping):
            if set(self.gamma_spec) != {"c", "alpha"}:
                raise ValueError('gamma_spec object must have exactly the keys "c" and "alpha"')
            rule = as_reals([self.gamma_spec["c"], self.gamma_spec["alpha"]], "c and alpha")
            if rule.shape != (2,):
                raise ValueError("gamma scaling c and alpha must be numbers")
            c, alpha = rule
            if not (c > 0 and 0.0 <= alpha <= 1.0):
                raise ValueError("gamma scaling requires c > 0 and alpha in [0, 1]")
        else:
            raise ValueError("gamma_spec must be a list or a {c, alpha} object")
        detection.check_epsilon(self.epsilon)
        spec = EXPERIMENTS[self.experiment]
        for n in n_values:
            if spec.max_n is not None and n > spec.max_n:
                raise ValueError(f"{self.experiment} requires n <= {spec.max_n}")
            for gamma in self.gammas_for(n):
                if not 0.0 <= gamma <= spec.max_gamma:
                    raise ValueError(f"gamma={gamma} at n={n} falls outside [0, {spec.max_gamma}]")


@dataclass(frozen=True)
class SweepResult:
    """Where a sweep wrote its CSV, and how many rows it wrote there.

    ``rows`` reads that CSV back through :func:`read_rows` on first access, so
    it holds what the file holds then; the sweep itself never held its rows.
    """

    output_path: str
    row_count: int

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(read_rows(self.output_path))


def _points(config: SweepConfig) -> list:
    """(n, gamma, first stream) per grid point, sorted by (n, gamma).

    Streams count the trials in config order, point by point, so the order in
    which points run changes no draw.
    """
    points = [(n, gamma) for n in config.n_values for gamma in config.gammas_for(n)]
    return sorted((n, gamma, i * config.trials) for i, (n, gamma) in enumerate(points))


def _tasks(config: SweepConfig, points: list):
    """(experiment, n, gamma, trial, seed, stream, epsilon) per trial, in the order of points."""
    for n, gamma, first in points:
        for trial in range(config.trials):
            yield (config.experiment, n, gamma, trial, config.seed, first + trial, config.epsilon)


def _trial_values(task: tuple) -> tuple:
    """Statistic values of one task, in the order its experiment declares."""
    experiment, n, gamma, _trial, seed, stream, epsilon = task
    return EXPERIMENTS[experiment].trial(n, gamma, RngStream(seed, stream), epsilon)


def run_sweep(config: SweepConfig, threads: int | None = None) -> SweepResult:
    """Run every trial of the sweep and write the result CSV.

    ``threads`` overrides ``config.threads``; neither affects output bytes.
    Workers are capped at one per trial and per CPU; a single worker is this
    process.  Trials run in (n, gamma, trial) order, and each trial's rows are
    written, in statistic-name order, as it finishes, so the file comes out
    sorted by (n, gamma, trial, statistic).  A pool gets a bounded window of
    chunks, so memory does not grow with the number of rows at any worker
    count.  A non-finite value raises RuntimeError mid-write, which leaves an
    earlier file at the output path as it was.
    """
    if threads is not None:
        config = replace(config, threads=threads)
    points = _points(config)
    tasks = _tasks(config, points)
    task_count = len(points) * config.trials
    workers = min(config.threads, task_count, os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(_trial_values, tasks)
        else:
            # Imported here: the pool module costs every serial run about 20 ms of start-up.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # A few chunks per worker, as one round trip per task costs more than a short trial,
            # but at most 256 tasks each: the main process holds the chunks in flight.
            chunk = max(1, min(task_count // (4 * workers), 256))
            results = _pooled_values(pool, tasks, chunk, 2 * workers)
        _write_csv(config.output_path, CSV_HEADER, _records(config, points, results))
    # _records writes exactly one row per statistic of every trial, or raises.
    statistics = EXPERIMENTS[config.experiment].statistics
    return SweepResult(config.output_path, task_count * len(statistics))


def _pooled_values(pool, tasks, chunk: int, depth: int):
    """``_trial_values`` of the tasks, in order, with at most ``depth`` chunks sent ahead."""
    pending = []
    for batch in iter(lambda: list(itertools.islice(tasks, chunk)), []):
        pending.append(pool.map(_trial_values, batch, chunksize=chunk))
        if len(pending) > depth:
            yield from pending.pop(0)
    yield from itertools.chain.from_iterable(pending)


def _records(config: SweepConfig, points: list, results):
    """CSV records of the trials of ``_tasks(config, points)``, given their values in that order."""
    statistics = EXPERIMENTS[config.experiment].statistics
    for (experiment, n, gamma, trial, *_), values in zip(_tasks(config, points), results):
        for statistic, value in sorted(zip(statistics, values, strict=True)):
            if not math.isfinite(value):
                raise RuntimeError(
                    f"non-finite value for {statistic} at n={n}, gamma={gamma}, trial={trial}"
                )
            yield [
                experiment, n, _format_float(gamma), trial, statistic, _format_float(float(value))
            ]


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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")  # run_sweep never writes one
    return value


def _iter_rows(path):
    """Parse a sweep CSV into rows one at a time, checking the schema as it goes."""
    converters = (str, int, _finite_float, int, str, _finite_float)  # one per SweepRow field
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
                yield SweepRow._make(values)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedCsvError(f"unreadable CSV: {exc}") from exc


def read_rows(path) -> list:
    """Parse a sweep CSV back into a list of rows, checking the schema."""
    return list(_iter_rows(path))


def summarize(result_path) -> list:
    """Aggregate a sweep CSV per (experiment, n, gamma, statistic).

    Returns rows of (experiment, n, gamma, statistic, count, mean, sd,
    success_rate) where sd is the population standard deviation and
    success_rate is the fraction of non-zero values (the mean verdict for
    0/1 statistics).  Rows are folded into one list of values per group as
    they are parsed; no list of rows is built.
    """
    groups: dict = {}
    for row in _iter_rows(result_path):
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
