#!/usr/bin/env python3
"""Benchmark of the d2dcache library, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec    # write BENCHMARK.json from spec.py

Each run is one process with BLAS pinned to one thread and D2DCACHE_THREADS
unset, so the CLI's process pool stays off. It imports d2dcache from
``src/``, draws the workload's inputs from the seed, sets up, runs
operations for about S seconds, checks every output with the oracles in
oracles.py and prints a report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the program is wrapped
by the span recorder in spans.py and the metrics are per layer.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
D2DCACHE_THREADS = os.environ.pop("D2DCACHE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5  # this process's import, then fresh interpreters
WALL_CAP = 1.3  # a run on a slow machine stops at this multiple of --seconds
# A fresh interpreter imports d2dcache between two gauge samples of its own,
# since it may run on another CPU than this process, at another speed.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; g = speed.SpeedGauge(); "
    "before = g.sample(); t = time.perf_counter(); import d2dcache; "
    "raw = time.perf_counter() - t; print(raw * 0.5 * (before + g.sample()))"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import d2dcache from this checkout's src/, never from anywhere else."""
    if not (SRC / "d2dcache" / "__init__.py").is_file():
        sys.exit(f"perfbench: no d2dcache sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import d2dcache

    import_s = time.perf_counter() - t
    if Path(d2dcache.__file__).resolve().parent != (SRC / "d2dcache").resolve():
        sys.exit(f"perfbench: imported d2dcache from {d2dcache.__file__}, not {SRC}")
    return d2dcache, import_s


def fresh_import_s() -> float:
    """Import time of d2dcache in a new interpreter, at reference speed."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def environment(dc) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "d2dcache": dc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "D2DCACHE_THREADS": D2DCACHE_THREADS,
        "platform": platform.platform(),
    }


class Runner:
    """Runs a workload's operations and checks repeats as they happen.

    ``raw`` holds each successful operation's wall seconds and ``scaled``
    the same at the gauge's reference speed. Only the first record of each
    input is kept; a later operation on the same input must match it.
    """

    def __init__(self, wl, gauge):
        self.wl = wl
        self.gauge = gauge
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.work = 0.0
        self.done: list[tuple[int, object]] = []  # first record of each input
        self._first: dict = {}
        self.repeats = 0
        self.spent = 0.0  # scaled seconds of every operation run
        self.failures: dict[int, list[str]] = {}
        self.attempted = 0

    def fail(self, i: int, message: str) -> None:
        self.failures.setdefault(i, []).append(message)

    def run_op(self, i: int, timed: bool = True):
        """Run operation i; return its record, or None if it raised."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            out, raw, scaled = self.gauge.timed(self.wl.op, i)
        except Exception:  # a failing operation is counted, not fatal
            self.spent += time.perf_counter() - t
            self.fail(i, traceback.format_exc(limit=3).strip())
            return None
        self.spent += scaled
        if timed:
            self.raw.append(raw)
            self.scaled.append(scaled)
            self.work += self.wl.work(i)
        rec = self.wl.record(i, out)
        key, fp = self.wl.key(i), self.wl.fingerprint(rec)
        if key in self._first:
            self.repeats += 1
            j, first_fp = self._first[key]
            if fp != first_fp:
                self.fail(i, f"op {i} differs from op {j} on the same input")
        else:
            self._first[key] = (i, fp)
            self.done.append((i, rec))
        return rec

    def loop(self, seconds: float) -> int:
        """Run operations 0, 1, ... for about ``seconds``; return how many.

        The budget is counted in scaled seconds, so that a run covers the
        same operations whatever the machine's speed, and capped at
        WALL_CAP times ``seconds`` of wall time. A new operation starts
        only if the mean operation so far still fits.
        """
        start, t0 = self.spent, time.perf_counter()
        n = 0
        while True:
            self.run_op(n)
            n += 1
            spent, wall = self.spent - start, time.perf_counter() - t0
            if spent + spent / n > seconds or wall + wall / n > WALL_CAP * seconds:
                return n

    def run_checks(self) -> None:
        try:
            found = self.wl.check(self.done)
        except Exception:
            found = {self.done[0][0] if self.done else 0: [traceback.format_exc(limit=5).strip()]}
        for i, bad in found.items():
            for message in bad:
                self.fail(i, message)


def end_to_end(dc, wl, seconds: float, report: dict) -> tuple[Runner, dict]:
    import numpy

    gauge = speed.SpeedGauge()
    imports = [report["import_s"] * gauge.sample()]
    setup_raw, setup = [], []
    runner = Runner(wl, gauge)
    gauge.start()
    try:
        for _ in range(wl.setup_reps):
            _, raw, scaled = gauge.timed(wl.setup)
            setup_raw.append(raw)
            setup.append(scaled)
        runner.loop(seconds)
    finally:
        gauge.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    imports += [fresh_import_s() for _ in range(IMPORT_SAMPLES - 1)]
    if not runner.repeats:
        runner.run_op(0, timed=False)  # so that every run compares a repeat
    runner.run_checks()
    d = runner.scaled
    # Timed operations are 0, 1, ... in order; each input's time is the
    # median of its operations, so that a tail shows slow inputs and not the
    # moments when a shared machine was slow.
    per_input: dict = {}
    for i, x in enumerate(d):
        per_input.setdefault(wl.key(i), []).append(x)
    input_ms = [statistics.median(xs) for xs in per_input.values()]
    tail_q = spec.TAIL_PERCENTILE[wl.name]
    tail = float(numpy.percentile(input_ms, tail_q))
    report.update(
        ops=len(d), inputs=len(input_ms),
        ops_per_input_p50=statistics.median(len(xs) for xs in per_input.values()),
        tail_percentile=tail_q, inputs_beyond_tail=sum(1 for x in input_ms if x > tail),
        op_ms_tail_over_ops=1e3 * float(numpy.percentile(d, tail_q)),
        work=runner.work, work_unit=wl.unit, raw_timed_s=sum(runner.raw),
        raw_op_ms_p50=1e3 * statistics.median(runner.raw), raw_setup_s=setup_raw,
        speed_scale_p50=statistics.median(speed.REFERENCE_S / x for x in gauge.samples),
        setup_samples_s=setup, import_samples_s=imports,
    )
    if len(d) <= 50:
        report.update(raw_ops_ms=[round(1e3 * x, 1) for x in runner.raw], ops_ms=[round(1e3 * x, 1) for x in d])
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
        "work_per_s": runner.work / sum(d),
        "op_ms_p50": 1e3 * statistics.median(d),
        "op_ms_tail": 1e3 * tail,
    }
    return runner, metrics


def traced(dc, wl, seconds: float, report: dict) -> tuple[Runner, dict]:
    """An untraced pass, then a traced pass over the same operations.

    Per-layer metrics cover the traced set-up and the traced pass. The
    tracing overhead is the traced pass's time minus the untraced pass's,
    both at reference speed. Operation 0 is replayed traced at the end, so
    that the pre-registered counters of one input are seen twice.
    """
    import spans

    rec = spans.Recorder()
    rec.install(dc)
    t = time.perf_counter()
    wl.setup()
    setup_wall = time.perf_counter() - t
    rec.uninstall()
    setup_mark = rec.mark()

    runner = Runner(wl, speed.SpeedGauge())
    k = runner.loop(seconds / 2.0)
    untraced_raw, untraced_scaled = sum(runner.raw), sum(runner.scaled)

    rec.install(dc)
    marks = []
    written = [0, 0]  # CLI bytes and rows of the traced pass
    for i in range(k):
        lo = rec.mark()
        out = runner.run_op(i)
        marks.append((i, lo, rec.mark()))
        if isinstance(out, dict) and "rows" in out:
            written[0] += out["bytes"]
            written[1] += out["rows"]
    ops_mark = rec.mark()
    runner.run_op(0, timed=False)
    marks.append((0, ops_mark, rec.mark()))
    rec.uninstall()
    traced_raw = sum(runner.raw) - untraced_raw
    traced_scaled = sum(runner.scaled) - untraced_scaled

    first_counts = {}
    for i, lo, hi in marks:
        key = wl.key(i)
        counts = spans.preregistered_counts(rec.spans, lo, hi)
        if key in first_counts and first_counts[key] != counts:
            runner.fail(i, f"pre-registered counters differ on a repeat: {first_counts[key]} vs {counts}")
        first_counts.setdefault(key, counts)
    runner.run_checks()

    wall = setup_wall + traced_raw
    metrics = spans.layer_metrics(rec.spans, 0, ops_mark, wall)
    metrics["cli.bytes_written"], metrics["cli.rows_written"] = written
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = traced_scaled - untraced_scaled
    report.update(
        ops_per_pass=k, setup_traced_s=setup_wall,
        untraced_pass_raw_s=untraced_raw, traced_pass_raw_s=traced_raw,
        untraced_pass_scaled_s=untraced_scaled, traced_pass_scaled_s=traced_scaled,
        layer_self_time_sum_s=wall * (1.0 - metrics["trace.unattributed_share"] / 100.0),
        preregistered_op0=first_counts.get(wl.key(0)),
        span_ms_p50=spans.span_medians(rec.spans, 0, ops_mark),
        phase_shares_pct={
            "setup": _shares(spans.layer_metrics(rec.spans, 0, setup_mark, setup_wall)),
            "timed": _shares(spans.layer_metrics(rec.spans, setup_mark, ops_mark, traced_raw)),
        },
    )
    return runner, metrics


def _shares(m: dict) -> dict:
    out = {k[:-len(".share")]: round(v, 2) for k, v in m.items() if k.endswith(".share")}
    out["unattributed"] = round(m["trace.unattributed_share"], 2)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        print(path)
        return 0

    dc, import_s = import_program()
    import workloads  # after d2dcache, so numpy and scipy count as its import

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "import_s": import_s}
    try:
        wl = workloads.make(args.workload, dc, args.seed, tmp)
        report["inputs"] = wl.describe()
        report["env"] = environment(dc)
        measure = traced if args.trace else end_to_end
        runner, metrics = measure(dc, wl, args.seconds, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with spec.py")
    digests = [r["digests"] for _, r in runner.done if isinstance(r, dict) and "digests" in r]
    if digests:
        report["artifact_sha256"] = digests
    failed = len(runner.failures)
    for i, bad in sorted(runner.failures.items())[:20]:
        for line in bad[:5]:
            print(f"FAIL op {i}: {line}")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
