"""weibrec benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ci-insulating --seed 1 --seconds 10 --trace 0

Workloads are ci-insulating, sim-slice and fit-batch (see workloads.py
and BENCHMARK.json).  The run builds its inputs from --seed, measures
closed-loop passes (one caller, one process) for about --seconds
(always at least one round), checks every output, and prints
human-readable lines followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the run alternates untraced and traced passes at one
thread and reports per-layer self times and counts; the spans are
written to .perfbench-out/ at the end.  After the timed rounds, each
run checks the workload's known-defect inputs once, untimed (the defect
probe), and prints how many fail; the traced run reports that share as
failed_frac and the fits that raised as weibull.fit_failed.  attempted
and failed count the timed ops only.  --smoke runs the same code at
a tiny size, for checking the benchmark itself (see selftest.py).

weibrec is imported from src/ next to this directory; the run exits
non-zero without a result line if it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_weibrec():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import weibrec
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import weibrec from {src}: {exc}")
    if not Path(weibrec.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: weibrec came from {weibrec.__file__}, not {src}")


def setup(args, workdir: Path):
    """Load the workload's inputs; with the weibrec import, what setup_s times."""
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)


def setup_probe(args) -> None:
    """Child side of setup_s: set up in this fresh interpreter, then say so."""
    with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT) as tmp:
        setup(args, Path(tmp))
        print("ready", flush=True)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until its setup is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit(f"perfbench: setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(git / ref)
        if not sha:
            for line in _read(git / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def environment(args, workload, threads) -> dict:
    import numpy
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": nproc(), "cpu": cpu or platform.processor(), **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "threads": threads,
        "sizes": workload.sizes(),
    }


def run_rounds(workload, seconds, first, second):
    """Rounds of two passes on the same inputs until ``seconds`` have passed.

    ``first`` and ``second`` run one pass each; which goes first
    alternates by round.  Both are checked, and must agree exactly.
    """
    import workloads
    pairs = []
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        if rnd % 2 == 0:
            a = first(rnd)
            b = second(rnd)
        else:
            b = second(rnd)
            a = first(rnd)
        for result in (a, b):
            workload.check(rnd, result)
        if (a.outputs, a.failed) != (b.outputs, b.failed):
            raise workloads.CheckFailed(
                f"{workload.name} round {rnd}: the two passes disagree")
        pairs.append((a, b))
        rnd += 1
    return pairs


def end_to_end(args, workload) -> tuple[dict, int, int, list]:
    threads = nproc()
    pairs = run_rounds(workload, args.seconds,
                       lambda rnd: workload.run_pass(rnd, 1),
                       lambda rnd: workload.run_pass(rnd, threads))
    serial = [a for a, _ in pairs]
    parallel = [b for _, b in pairs]
    latencies = [t for r in serial for t in r.latencies]
    # Ops over the time of all passes at one setting, so that the figure
    # averages over the changes in the host's speed during the run.
    metrics = {
        "ops_per_s": (pass_rate(serial), "1/s"),
        "ops_per_s.nproc": (pass_rate(parallel), "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
    }
    attempted = sum(r.ops for r in serial + parallel)
    failed = sum(len(r.failed) for r in serial + parallel)
    notes = [f"rounds {len(pairs)}, op latency samples {len(latencies)}",
             f"timed ops failed: {failed} of {attempted}"]
    notes += defect_probe(workload)[2]
    notes.append("pass seconds at threads=1: " + " ".join(f"{r.seconds:.4f}" for r in serial))
    notes.append("pass seconds at threads=nproc: " + " ".join(f"{r.seconds:.4f}" for r in parallel))
    return metrics, attempted, failed, notes


def pass_rate(passes) -> float:
    return sum(r.ops for r in passes) / sum(r.seconds for r in passes)


def defect_probe(workload) -> tuple[float, int, list]:
    """Run the workload's known-defect input set once, traced and untimed.

    Returns the share of its ops that fail, the fits that raised, and
    notes naming the failures and the layer that raised in each op.
    """
    import tracer as tr
    t = tr.Tracer()
    with t.installed():
        probe = workload.probe()
    if probe is None:
        return 0.0, 0, ["defect probe: none on this workload"]
    failed_ops = [i + 1 for i, *_ in probe.failed]
    attribution = tr.failed_ops_by_layer(t.spans, failed_ops)
    notes = [f"defect probe: {len(probe.failed)} of {probe.ops} ops of the full input set fail",
             f"  failed ops by raising layer: {attribution or 'none'}"]
    notes += [f"  {n} x {why}" for why, n in failure_kinds(probe.failed).items()]
    return len(probe.failed) / probe.ops, tr.layer_totals(t.spans)[1]["weibull.fit_failed"], notes


def failure_kinds(failed) -> dict:
    """Failures of one pass grouped by message, with numbers masked."""
    kinds: dict[str, int] = {}
    for _, _, message in failed:
        key = re.sub(r"= [-+]?\d[\d.e+-]*", "= #", message)
        kinds[key] = kinds.get(key, 0) + 1
    return kinds


def per_layer(args, workload) -> tuple[dict, int, int, list]:
    import tracer as tr
    tracers = []

    def traced(rnd):
        t = tr.Tracer()
        with t.installed():
            result = workload.run_pass(rnd, 1)
        tracers.append(t)
        return result

    pairs = run_rounds(workload, args.seconds,
                       lambda rnd: workload.run_pass(rnd, 1), traced)
    untraced = [a for a, _ in pairs]
    traced_passes = [b for _, b in pairs]
    failed_frac, fit_failed, probe_notes = defect_probe(workload)
    per_pass = [tr.layer_totals(t.spans) for t in tracers]
    # Counts come from round 0, whose inputs depend only on the seed.
    counts = per_pass[0][1]

    def self_s(layer):
        return statistics.median(p[0][layer] for p in per_pass)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    gpq_s, sim_s, rng_s = self_s("gpq"), self_s("simulate"), self_s("rng")
    metrics = {
        "gpq.self_s": (gpq_s, "s"),
        "gpq.roots": (counts.get("gpq.roots", 0), "count"),
        "gpq.roots_per_s": (rate(counts.get("gpq.roots", 0), gpq_s), "1/s"),
        "simulate.self_s": (sim_s, "s"),
        "simulate.roots": (counts.get("simulate.roots", 0), "count"),
        "simulate.roots_per_s": (rate(counts.get("simulate.roots", 0), sim_s), "1/s"),
        "gpq.order_s": (self_s("gpq.order"), "s"),
        "rng.s": (rng_s, "s"),
        "rng.words": (counts.get("rng.words", 0), "count"),
        "rng.words_per_s": (rate(counts.get("rng.words", 0), rng_s), "1/s"),
        "weibull.fit_s": (self_s("weibull"), "s"),
        "weibull.fits": (counts.get("weibull.fits", 0), "count"),
        "weibull.fit_failed": (fit_failed, "count"),
        "dataio.load_s": (self_s("dataio"), "s"),
        "dataio.bytes_in": (counts.get("dataio.bytes_in", 0), "B"),
        "records.extract_s": (self_s("records"), "s"),
        "records.values_in": (counts.get("records.values_in", 0), "count"),
        "records.records_out": (counts.get("records.records_out", 0), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.report_bytes": (traced_passes[0].out_bytes, "B"),
        "trace.overhead_frac": (
            statistics.median(r.seconds for r in traced_passes)
            / statistics.median(r.seconds for r in untraced) - 1.0, "frac"),
    }
    metrics["failed_frac"] = (failed_frac, "frac")
    attempted = sum(r.ops for r in untraced + traced_passes)
    failed = sum(len(r.failed) for r in untraced + traced_passes)
    notes = [f"rounds {len(pairs)}", f"timed ops failed: {failed} of {attempted}", *probe_notes]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for n, t in enumerate(tracers):
            for span in t.spans:
                fh.write(json.dumps({"pass": n, **asdict(span)}) + "\n")
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ci-insulating", "sim-slice", "fit-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_weibrec()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    import workloads
    setup_times = measure_setup(args) if args.trace == 0 else []
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        try:
            workload = setup(args, Path(tmp))
            workload.warmup()
            env = environment(args, workload, [1, nproc()] if args.trace == 0 else [1])
            print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
            print("env " + json.dumps(env, sort_keys=True))
            if args.trace:
                metrics, attempted, failed, notes = per_layer(args, workload)
            else:
                metrics, attempted, failed, notes = end_to_end(args, workload)
                metrics["setup_s"] = (statistics.median(setup_times), "s")
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        except workloads.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
