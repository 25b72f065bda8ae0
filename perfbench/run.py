"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload campus_default --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as it
ships; ``--trace 1`` wraps each layer's entry points in spans and
prints the per-layer table instead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The run also writes its result, environment and
(traced) spans to ``perfbench/out/``.

The benchmark pins its environment before numpy is imported: BLAS
runs single-threaded, ``REPRO_NUM_WORKERS`` is removed so every oracle
runs serially, and it refuses to run under the knobs that change which
code path a workload takes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = OUT_DIR / "digests.json"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Each of these selects a different code path than the workload names.
REFUSED_VARS = ("REPRO_STREAM_EPOCH", "REPRO_BACKEND", "REPRO_SHARD_UES")
SETUP_PROBES = 5
#: Repetitions of the reference kernel's loop body, and the kernel's
#: mean CPU time on an Intel Xeon host with 2 vCPUs: the host speed
#: ``cpu_norm_s`` is expressed at.
REF_REPS = 24
REF_KERNEL_S = 0.22
READY = "perfbench-ready"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> dict:
    """Fix the process environment before any numeric import."""
    for var in REFUSED_VARS:
        if os.environ.get(var) not in (None, ""):
            raise BenchError(f"{var} is set; unset it to run the benchmark")
    if os.environ.get("REPRO_PERF", "1") == "0":
        raise BenchError("REPRO_PERF=0 disables the counters the benchmark reads")
    os.environ.pop("REPRO_NUM_WORKERS", None)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "repro").is_dir():
        raise BenchError(f"no program source under {SRC.relative_to(ROOT)}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in BLAS_VARS}


def environment_record(blas: dict) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{openblas.get('name')} {openblas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def load_units() -> tuple:
    """End-to-end and per-layer units from ``BENCHMARK.json``.

    ``metrics.py`` must describe exactly the metrics the contract names.
    """
    import metrics

    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(e2e) != set(metrics.END_TO_END) or set(layers) != {
        m[0] for m in metrics.PER_LAYER
    }:
        raise BenchError("BENCHMARK.json and perfbench/metrics.py name different metrics")
    return e2e, layers


def source_fingerprint() -> str:
    """Hash of every program and benchmark source file."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# -- setup time ------------------------------------------------------------------


def probe(workload: str, seed: int) -> None:
    """Child side of a setup probe: import, build the first sub-scenario, report."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    wl.prepare(wl.sub_seeds(seed)[0])
    print(READY, flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Interpreter start to workload ready, in one fresh process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--probe",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT)) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != READY or code != 0:
        raise BenchError(f"setup probe failed (exit {code})")
    return elapsed


# -- the timed loop ----------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU seconds of this process, all its threads, and its waited-for children."""
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


def run_once(wl, sub_seed: int, tracer=None, run_id: str = ""):
    """Prepare one sub-scenario and time its call; returns (wall, cpu, outcome, counter deltas)."""
    from repro.perf import perf
    from workloads import EpochTap

    prepared = wl.prepare(sub_seed)
    tap = EpochTap()
    recording = tracer.recording(run_id) if tracer is not None else nullcontext()
    counters_before = perf.counters()
    with tap.installed():
        c0 = cpu_seconds()
        w0 = time.perf_counter()
        with recording:
            result = prepared.run()
        wall = time.perf_counter() - w0
        cpu = cpu_seconds() - c0
    counters = perf.counters_since(counters_before)
    return wall, cpu, prepared.outcome(result, tap), counters


class Loop:
    """Iteration bookkeeping shared by both modes."""

    def __init__(self, wl, seed: int, seconds: float) -> None:
        self.wl = wl
        self.seeds = wl.sub_seeds(seed)
        self.deadline = time.perf_counter() + seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first_outcome: dict = {}
        # Digests of every sub-scenario run in this checkout with the
        # same source, so a rerun in this or any later run of identical
        # code must reproduce the records exactly.  Digests of other
        # code are dropped: a change may move the simulated numbers.
        self.code = source_fingerprint()
        saved = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests: dict = saved.get("digests", {}) if saved.get("code") == self.code else {}

    def check(self, sub_seed: int, outcome) -> bool:
        """Record one iteration's outcome; False if any check failed."""
        self.attempted += 1
        problems = list(outcome.problems)
        key = f"{self.wl.name}/{sub_seed}"
        known = self.digests.setdefault(key, outcome.digest)
        if known != outcome.digest:
            problems.append(f"sub-scenario {sub_seed} reran with different results")
        self.first_outcome.setdefault(sub_seed, outcome)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def fits(self, expected_s: float) -> bool:
        return time.perf_counter() + expected_s <= self.deadline

    def save_digests(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        saved = {"code": self.code, "digests": self.digests}
        DIGESTS.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")


def reference_kernel() -> float:
    """Fixed work of the program's kind, timed beside every call to gauge the host.

    Broadcast distance arithmetic and a weighted sum over a few thousand
    cells, as in IDW, then a dictionary-building interpreter loop.  It
    uses numpy and the interpreter only, never the program, so a change
    to the program cannot change its time: only the host's speed can.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    sites = rng.random((48, 3)) * 100.0
    cells = rng.random((3000, 3)) * 100.0
    acc = 0.0
    for _ in range(REF_REPS):
        d2 = ((cells[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
        w = 1.0 / (d2 + 1.0)
        acc += float(np.log10(w @ sites[:, 2] / w.sum(axis=1)).mean())
        table: dict = {}
        for i in range(6000):
            table[i % 61] = table.get(i % 61, 0.0) + i * 0.5
        acc += table[7]
    return acc


def time_reference() -> float:
    """CPU seconds of one :func:`reference_kernel` call."""
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def measure(wl, seed: int, seconds: float) -> tuple:
    """Untraced run: one warm-up call, then cycle the sub-scenarios until time is up.

    The warm-up runs the first sub-scenario untimed, so lazy imports and
    module caches are filled before timing; it is checked like every
    other call.  After it every sub-scenario runs at least once, in
    order, and the cycle repeats while a call still fits in ``seconds``.

    ``cpu_norm_s`` is the mean CPU time of a timed call over the mean
    CPU time of :func:`reference_kernel`, run after every call, times
    ``REF_KERNEL_S``: call CPU seconds at the host speed at which the
    kernel takes ``REF_KERNEL_S``.  Neighbours on a shared host slow
    the program by more than a tenth for tens of seconds at a time; they
    slow the kernel too, and the ratio cancels most of that drift.  CPU
    time, not wall time, because the program runs single-threaded and
    does no I/O in a call, so its wall time adds only the time the
    scheduler gave the CPU to others; the raw wall and CPU times go into
    the result record beside it.

    The ``setup_s`` probes run at evenly spaced times through the run,
    so they sample the drift too; probe time does not count against
    ``seconds``.
    """
    from workloads import summarize

    loop = Loop(wl, seed, seconds)
    samples: dict = {"wall": [], "cpu": [], "ref_cpu": []}
    setup_times: list = []
    start = time.perf_counter()

    def probe_due() -> bool:
        due_at = start + seconds * len(setup_times) / SETUP_PROBES
        return len(setup_times) < SETUP_PROBES and time.perf_counter() >= due_at

    def probe_setup() -> None:
        setup_times.append(measure_setup(wl.name, seed))
        loop.deadline += setup_times[-1]

    _, _, outcome, _ = run_once(wl, loop.seeds[0])
    loop.check(loop.seeds[0], outcome)
    # Later calls can only raise the high-water mark, and how many fit
    # depends on host speed: report the peak after the warm-up call.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i in itertools.count():
        sub = loop.seeds[i % len(loop.seeds)]
        expected = statistics.median(samples["wall"]) + samples["ref_cpu"][-1] if i else 0.0
        if i >= len(loop.seeds) and not loop.fits(expected):
            break
        if probe_due():
            probe_setup()
        wall, cpu, outcome, _ = run_once(wl, sub)
        loop.check(sub, outcome)
        samples["wall"].append(wall)
        samples["cpu"].append(cpu)
        samples["ref_cpu"].append(time_reference())
    while len(setup_times) < SETUP_PROBES:
        probe_setup()
    fidelity = summarize([loop.first_outcome[s] for s in loop.seeds])
    means = {k: statistics.fmean(v) for k, v in samples.items()}
    timing = {
        "setup_s": setup_times,
        "cpu_norm_s": REF_KERNEL_S * means["cpu"] / means["ref_cpu"],
        "raw_wall_s": means["wall"],
        "raw_cpu_s": means["cpu"],
        "ref_kernel_s": means["ref_cpu"],
        "peak_rss_mb": peak_rss_mb,
        "samples": samples,
    }
    return loop, fidelity, timing


def measure_traced(wl, seed: int, seconds: float) -> tuple:
    """Traced run on the first sub-scenario, alternating traced and untraced calls.

    Per-layer metrics are means over the traced calls; the untraced
    calls give the reference for ``trace.overhead_frac``.
    """
    from tracing import Tracer, layer_table, nesting_problems
    from workloads import summarize

    loop = Loop(wl, seed, seconds)
    sub = loop.seeds[0]
    tracer = Tracer()
    tables, traced_walls, plain_walls = [], [], []
    with tracer.installed():
        while True:
            traced_turn = len(traced_walls) < len(plain_walls)
            if traced_walls:
                expected = statistics.median(traced_walls if traced_turn else plain_walls)
                if not loop.fits(expected):
                    break
            if traced_turn:
                run_id = f"{wl.name}/{sub}/{len(traced_walls)}"
                mark = len(tracer.spans)
                repeats = tracer.interpolate_repeats
                wall, _, outcome, counters = run_once(wl, sub, tracer, run_id)
                spans = tracer.spans[mark:]
                tables.append(
                    layer_table(spans, counters, tracer.interpolate_repeats - repeats)
                )
                outcome.problems.extend(nesting_problems(spans))
                traced_walls.append(wall)
            else:
                wall, _, outcome, _ = run_once(wl, sub)
                plain_walls.append(wall)
            loop.check(sub, outcome)
    metrics = {k: statistics.fmean(t[k] for t in tables) for k in tables[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    fidelity = summarize([loop.first_outcome[sub]])
    for key, value in fidelity.items():
        if key != "flight_time_s":
            metrics[f"fidelity.{key}"] = value
    timing = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}
    return loop, metrics, timing, tracer


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        blas = pin_environment()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    wl = WORKLOADS[args.workload]

    try:
        e2e_units, layer_units = load_units()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment_record(blas)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        from tracing import spans_as_json

        loop, layers, timing, tracer = measure_traced(wl, args.seed, args.seconds)
        units = layer_units
        values = {
            name: int(layers[name]) if units[name] == "count" else layers[name]
            for name in units
        }
        record["spans"] = spans_as_json(tracer.spans)
        # A target the program no longer has reads 0; it is not a failure.
        record["trace_missing"] = tracer.missing
    else:
        try:
            loop, fidelity, timing = measure(wl, args.seed, args.seconds)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        values = {
            "setup_s": statistics.median(timing["setup_s"]),
            "cpu_norm_s": timing["cpu_norm_s"],
            "peak_rss_mb": timing["peak_rss_mb"],
            "flight_time_s": fidelity["flight_time_s"],
        }
        units = e2e_units
        record["fidelity"] = fidelity
    result = {
        "correct": loop.failed == 0 and not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record.update(result=result, timing=timing, problems=loop.problems, code=loop.code)
    loop.save_digests()
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=repr) + "\n")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for key, value in record.get("fidelity", {}).items():
        print(f"# fidelity {key} {value!r}")
    for target in record.get("trace_missing", []):
        print(f"# trace target not found: {target}")
    for key in ("raw_wall_s", "raw_cpu_s", "ref_kernel_s"):
        if key in timing:
            print(f"# timing {key} {timing[key]!r}")
    for problem in loop.problems:
        print(f"# check failed: {problem}")
    for name in units:
        print(f"{name:<34s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
