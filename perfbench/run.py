#!/usr/bin/env python3
"""Sweep benchmark for the tourney-lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` it times CLI
invocations (``python3 -m tourney_lab.cli`` with ``src`` on the path) in a
closed loop with one client and one worker, checks every output, and reports
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs the same
invocations in-process, once serially with span tracing and once each
untraced serially and with two workers, and reports the per-layer metrics.  Human-readable
lines start with ``#``; the last line of stdout is the JSON result.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# Workers x BLAS threads must not exceed the two cores the load model
# assumes, so BLAS runs single-threaded here and in every child process.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import STATISTICS, check_summary_csv, check_sweep_csv  # noqa: E402
from tracing import TARGETS  # noqa: E402
from workloads import WORKLOADS, Sweep  # noqa: E402

# Timed invocations run serially.  Pool workers filling both cores of a shared
# two-core host turn every slice the host takes away into a stall of the whole
# sweep, so their timings drift with the neighbours' load far past the bounds;
# one worker leaves a core to spare.  The pool is timed only as the reference
# for ``experiments.parallel_efficiency``.
WORKERS = 1
POOL_WORKERS = 2
MIN_REPEATS = 3  # workload repeats per run, however short --seconds is
HARD_MARGIN_S = 50.0  # no child may outlive the deadline by more than this
MAX_SECONDS = 120  # so that a run, margin included, ends within 180 s


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: a sweep run, or a summarize of its CSV."""

    kind: str  # "run" or "summarize"
    sweep: Sweep
    source: Path  # the config a run reads, or the CSV a summarize reads
    output: Path
    seed: int

    def argv(self, threads: int) -> list:
        if self.kind == "summarize":
            return ["summarize", "--in", str(self.source), "--out", str(self.output)]
        return ["run", "--config", str(self.source), "--seed", str(self.seed),
                "--threads", str(threads), "--out", str(self.output)]

    @property
    def trials(self) -> int:
        return self.sweep.trial_count if self.kind == "run" else 0

    def check(self, code: int, stdout: str) -> list:
        if code != 0:
            return [f"exit code {code}: {stdout.strip()[-400:]}"]
        if self.kind == "summarize":
            return check_summary_csv(self.output, self.sweep)
        rows = self.sweep.trial_count * len(STATISTICS[self.sweep.experiment])
        if f"wrote {rows} rows to {self.output}" not in stdout:
            return [f"stdout does not report {rows} rows: {stdout.strip()[-400:]}"]
        return check_sweep_csv(self.output, self.sweep)


def build_invocations(workload, seed: int, work: Path) -> list:
    invocations = []
    for index, sweep in enumerate(workload.sweeps):
        config = work / f"sweep{index}.json"
        output = work / f"sweep{index}.csv"
        config.write_text(json.dumps(sweep.config(seed, str(output))), encoding="utf-8")
        invocations.append(Invocation("run", sweep, config, output, seed))
    if workload.summarize:
        first = invocations[0]
        invocations.append(Invocation("summarize", first.sweep, first.output, work / "summary.csv", seed))
    return invocations


class Run:
    """Clock, failure count and output digests of one benchmark run."""

    def __init__(self, seconds: int):
        self.deadline = time.monotonic() + seconds
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def time_left(self) -> float:
        """Seconds a child may still run before it is killed."""
        return self.deadline + HARD_MARGIN_S - time.monotonic()

    def fits(self, done: int, minimum: int, last_s: float) -> bool:
        """Whether to start another repeat: fewer than ``minimum`` are done,
        or one as long as the last would still end by the deadline."""
        return done < minimum or time.monotonic() + last_s <= self.deadline

    def record(self, label: str, problems: list, output: Path | None = None) -> bool:
        """Count one attempted invocation; compare its output with earlier ones."""
        self.attempted += 1
        if not problems and output is not None:
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
            first = self.digests.setdefault(output.name, digest)
            if digest != first:
                problems = [f"{output.name} sha256 {digest} differs from earlier {first}"]
        if problems:
            self.failed += 1
            print(f"# FAILED {label}: {len(problems)} problem(s); first: {problems[0]}")
        return not problems


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **PINNED_THREADS)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list, work: Path, timeout: float) -> tuple:
    """Run ``python3 args`` to exit; return (code, stdout, wall s, peak RSS MiB).

    The RSS is the largest resident set of the child and of every process it
    waited for, which covers pool workers.  On timeout the child's whole
    process group is killed.
    """
    log = work / "stdout.txt"
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, log.read_text(encoding="utf-8"), wall, usage.ru_maxrss / 1024.0


def cli(argv: list, work: Path, run: Run) -> tuple:
    return spawn(["-m", "tourney_lab.cli", *argv], work, run.time_left())


def measure_end_to_end(invocations: list, work: Path, run: Run) -> dict:
    """Closed loop, one client: whole-workload repeats, each after a set-up sample.

    Spreading the set-up samples over the run keeps a slow spell of the
    machine from landing on all of them.
    """
    def setup() -> float | None:
        code, stdout, wall, _ = cli(["--help"], work, run)
        ok = run.record("--help", [] if code == 0 and "usage:" in stdout else [f"exit {code}"])
        return wall if ok else None

    samples = {name: [] for name in ("trials_per_s", "wall_s", "peak_rss_mb", "setup_s")}
    setup()  # fills the bytecode cache, so it is not timed
    repeats, last = 0, 0.0
    while run.fits(repeats, MIN_REPEATS, last):
        repeats += 1
        started = time.monotonic()
        setup_wall = setup()
        if setup_wall is not None:
            samples["setup_s"].append(setup_wall)
        trials = run_wall = wall = rss = 0.0
        ok = True
        for inv in invocations:
            code, stdout, seconds, peak = cli(inv.argv(WORKERS), work, run)
            ok &= run.record(" ".join(inv.argv(WORKERS)), inv.check(code, stdout), inv.output)
            trials += inv.trials
            run_wall += seconds if inv.kind == "run" else 0.0
            wall += seconds
            rss = max(rss, peak)
        if ok:
            samples["trials_per_s"].append(trials / run_wall)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
        if run.time_left() < 0:
            break
        last = time.monotonic() - started
    return samples


def traced_child(invocations: list, threads: int, trace: bool, work: Path, run: Run) -> dict | None:
    """Run the workload in-process in a fresh interpreter; None if it crashed."""
    spec, result = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"src": str(ROOT / "src"), "trace": trace,
                                "invocations": [inv.argv(threads) for inv in invocations]}),
                    encoding="utf-8")
    result.unlink(missing_ok=True)
    code, stdout, _, _ = spawn([str(HERE / "tracing.py"), str(spec), str(result)], work, run.time_left())
    label = f"in-process threads={threads} trace={int(trace)}"
    if code != 0:
        for _ in invocations:
            run.record(label, [f"child exit {code}: {stdout.strip()[-400:]}"])
        return None
    data = json.loads(result.read_text(encoding="utf-8"))
    for inv, done in zip(invocations, data["invocations"]):
        run.record(f"{label} {done['argv'][0]}", inv.check(done["code"], done["stdout"]), inv.output)
    return data


def layer_metrics(traced: dict, serial: dict, parallel: dict, invocations: list) -> dict:
    """Per-layer metrics from one traced run and its two untraced references."""
    functions = traced["functions"]

    def fn(name):
        return functions.get(name, {"calls": 0, "self_s": 0.0})

    def run_wall(data):
        return sum(i["wall_s"] for i, inv in zip(data["invocations"], invocations) if inv.kind == "run")

    wall = sum(i["wall_s"] for i in traced["invocations"])
    metrics = {}
    for module, qualnames in TARGETS.items():
        for qualname in qualnames:
            entry = fn(f"{module}.{qualname}")
            metrics[f"{module}.{qualname}.calls"] = entry["calls"]
            metrics[f"{module}.{qualname}.self_s"] = entry["self_s"]
        module_self = sum(fn(f"{module}.{q}")["self_s"] for q in qualnames)
        metrics[f"{module}.self_s"] = module_self
        metrics[f"{module}.share"] = module_self / wall
    planted = fn("core.sample_planted")["calls"]
    drawn = planted + fn("core.sample_null")["calls"]
    edges = traced["edges_sampled"]
    sampling = sum(fn(f"core.{f}")["self_s"] for f in ("sample_null", "sample_planted", "sample_planted_uniform"))
    metrics["core.edges_sampled"] = edges
    metrics["core.sample.ns_per_edge"] = 1e9 * sampling / edges if edges else 0.0
    metrics["core.upper_pairwise_signs_per_tournament"] = (
        fn("core.Ranking.upper_pairwise_signs")["calls"] / planted if planted else 0.0)
    metrics["core.to_matrix_per_tournament"] = (
        fn("core.Tournament.to_matrix")["calls"] / drawn if drawn else 0.0)
    outputs = [inv.output.read_bytes() for inv in invocations]
    metrics["experiments.rows_written"] = sum(data.count(b"\n") - 1 for data in outputs)
    metrics["experiments.csv_bytes"] = sum(len(data) for data in outputs)
    metrics["experiments.parallel_efficiency"] = run_wall(serial) / (POOL_WORKERS * run_wall(parallel))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = wall / sum(i["wall_s"] for i in serial["invocations"]) - 1.0
    return metrics


def measure_layers(invocations: list, work: Path, run: Run) -> dict:
    """Traced serial run plus untraced serial and pool references."""
    sets, last = [], 0.0
    while run.fits(len(sets), 1, last):
        started = time.monotonic()
        serial = traced_child(invocations, 1, False, work, run)
        parallel = traced_child(invocations, POOL_WORKERS, False, work, run)
        traced = traced_child(invocations, 1, True, work, run)
        if None in (serial, parallel, traced) or run.time_left() < 0:
            break
        sets.append(layer_metrics(traced, serial, parallel, invocations))
        last = time.monotonic() - started
    return {name: [s[name] for s in sets] for name in (sets[0] if sets else {})}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "pinned_threads": PINNED_THREADS,
        "workers": WORKERS,
        "pool_workers": POOL_WORKERS,
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, choices=range(1, MAX_SECONDS + 1),
                        metavar=f"1..{MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tourney_lab" / "cli.py").is_file():
        print(f"no tourney_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = declared["per_layer" if args.trace else "end_to_end"]

    run = Run(args.seconds)
    env = environment(args.seed)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        invocations = build_invocations(WORKLOADS[args.workload], args.seed, work)
        measure = measure_layers if args.trace else measure_end_to_end
        samples = measure(invocations, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    print(f"# env {json.dumps(env)}")
    for name, digest in sorted(run.digests.items()):
        print(f"# sha256 {name} {digest}")
    if not all(samples.get(m["name"]) for m in reported):
        print("# no successful repeat: no metrics", file=sys.stderr)
        return 1
    for metric in reported:
        values = samples[metric["name"]]
        print(f"# {metric['name']} = {statistics.median(values)!r} {metric['unit']}"
              f" (median of {len(values)}: {values})")
    print(f"# failed_frac = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} invocations)")
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]} for m in reported}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
