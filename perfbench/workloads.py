"""The three workloads: what one pass runs and how its outputs are checked.

A workload is driven in rounds.  Every pass of one round runs the same
inputs, once per thread setting (or traced and untraced), so the round's
outputs must agree exactly; ``check`` also compares them with reference
answers.  ``run_pass`` returns only after all of its results are
consumed, and does no checking inside the timed region.  ``probe`` runs,
untimed and checked, the inputs that the program fails on today (None
where a workload has none).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from weibrec import cli, dataio, simulate

import fitgen

ROOT = Path(__file__).resolve().parent.parent
FLUID_CSV = ROOT / "data" / "insulating_fluid.csv"


@dataclass
class PassResult:
    ops: int                   # ops finished, failed ones included
    seconds: float             # wall time of the whole pass
    latencies: list            # seconds per op (sim-slice: per replicate, one per cell)
    failed: list               # (0-based op index, exit code or exception name, error text)
    outputs: list              # what the program returned, for the checks
    out_bytes: int = 0         # report bytes written by the CLI


class CheckFailed(Exception):
    """An output of the program is wrong; the run must not be timed."""


def _seed_for(seed: int, rnd: int) -> int:
    return int(np.random.default_rng([seed, rnd, 0xC1]).integers(0, 2**62))


def _run_cli(argv):
    """One in-process CLI command: (exit code or exception name, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:      # argparse rejected the command line
            rc = exc.code
        except Exception as exc:       # a crash is a failed op, not a harness error
            rc = type(exc).__name__
    return rc, out.getvalue(), err.getvalue()


def _cli_pass(commands) -> PassResult:
    latencies, outputs, failed = [], [], []
    nbytes = 0
    start = time.perf_counter()
    for i, argv in enumerate(commands):
        t0 = time.perf_counter()
        rc, out, err = _run_cli(argv)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out if rc == 0 else None)
        nbytes += len(out.encode())
        if rc != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            failed.append((i, rc, f"{argv[0]} exit {rc}: {last}"))
    return PassResult(len(commands), time.perf_counter() - start, latencies,
                      failed, outputs, nbytes)


class CiInsulating:
    """ci-ratio, ci-diff and test --pi0 1 on the insulating-fluid data at M = 1e5.

    Round 0 runs the criterion-3 worked example (seed 42); later rounds
    use seeds drawn from the workload seed.
    """

    name = "ci-insulating"
    WORKED_SEED = 42
    # Criterion 3: ratio (0.2550, 4.9537) within 10%, difference
    # (-0.7849, 0.7283) within 0.08, p = 0.9830 within 0.01.
    RATIO = (0.2550, 4.9537)
    DIFF = (-0.7849, 0.7283)
    P = 0.9830

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.m = 20_000 if smoke else 100_000
        pops = dataio.load_populations(str(FLUID_CSV), kind="raw")
        series = dataio.records_from_populations(pops, "raw")
        if [len(s) for s in series] != [7, 4]:
            raise CheckFailed(f"insulating fluid records: k = {[len(s) for s in series]}, want [7, 4]")

    def sizes(self) -> dict:
        return {"M": self.m, "commands": ["ci-ratio", "ci-diff", "test --pi0 1"],
                "data": "data/insulating_fluid.csv (k=7, k=4)"}

    def _commands(self, rnd: int, threads: int):
        seed = self.WORKED_SEED if rnd == 0 else _seed_for(self.seed, rnd)
        common = ["--data", str(FLUID_CSV), "--M", str(self.m), "--seed", str(seed),
                  "--threads", str(threads)]
        return [["ci-ratio", "--gamma", "0.05", *common],
                ["ci-diff", "--gamma", "0.05", *common],
                ["test", "--pi0", "1", *common]]

    def warmup(self):
        _run_cli(["ci-ratio", "--gamma", "0.05", "--data", str(FLUID_CSV),
                  "--M", "2000", "--seed", "1"])

    def run_pass(self, rnd: int, threads: int) -> PassResult:
        return _cli_pass(self._commands(rnd, threads))

    def probe(self):
        return None

    def check(self, rnd: int, result: PassResult) -> None:
        if result.failed:
            raise CheckFailed(f"{self.name}: valid commands failed: {result.failed}")
        ratio, diff, test = (json.loads(text) for text in result.outputs)
        lo, hi = ratio["interval"]["lower"], ratio["interval"]["upper"]
        dlo, dhi = diff["interval"]["lower"], diff["interval"]["upper"]
        p = test["p_value"]
        # The published p-value sits 1.5 Monte Carlo standard errors below
        # the mean over seeds, so +-0.01 holds at the worked example's seed
        # and M; any other seed or M also allows 4 standard errors of p.
        p_tol = 0.01
        if rnd != 0 or self.m != 100_000:
            q = p / 2.0
            p_tol += 4.0 * 2.0 * math.sqrt(q * (1.0 - q) / self.m)
        problems = []
        if abs(lo - self.RATIO[0]) > 0.10 * self.RATIO[0] or abs(hi - self.RATIO[1]) > 0.10 * self.RATIO[1]:
            problems.append(f"ratio interval ({lo}, {hi})")
        if abs(dlo - self.DIFF[0]) > 0.08 or abs(dhi - self.DIFF[1]) > 0.08:
            problems.append(f"difference interval ({dlo}, {dhi})")
        if abs(p - self.P) > p_tol:
            problems.append(f"p-value {p} (tolerance {p_tol:.4f})")
        if problems:
            raise CheckFailed(f"{self.name} round {rnd}: criterion 3 fails: {problems}")


# Cells of the published coverage table, with their coverage (beta2 = 2).
SIM_CELLS = {(3, 3, 0.5): 0.946, (7, 7, 1.0): 0.951, (14, 14, 5.0): 0.953}
SIM_M = 2000
# Batch size is 2e6 // (M * k_max) replicates; N is four batches, so each
# cell spans 2 * nproc batches at nproc = 2 and threads have work to share.
SIM_BATCHES = 4
SMOKE_SIM = (200, 40)       # (M, N) for the smoke size


class SimSlice:
    """Three coverage cells through run_cell; an op is one outer replicate."""

    name = "sim-slice"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.m = SMOKE_SIM[0] if smoke else SIM_M
        self.reps = {}
        for n1, n2, _ in SIM_CELLS:
            batch = 2_000_000 // (self.m * (max(n1, n2) + 1))
            self.reps[(n1, n2)] = SMOKE_SIM[1] if smoke else SIM_BATCHES * batch

    def sizes(self) -> dict:
        return {"M": self.m, "cells": [list(c) + [2.0] for c in SIM_CELLS],
                "N": [self.reps[c[:2]] for c in SIM_CELLS],
                "batches_per_cell": 1 if self.smoke else SIM_BATCHES}

    def configs(self, rnd: int):
        seed = _seed_for(self.seed, rnd)
        return [simulate.SimConfig(n1=n1, n2=n2, beta1=b1, beta2=2.0, m=self.m,
                                   reps=self.reps[(n1, n2)], gamma=0.05, seed=seed)
                for (n1, n2, b1) in SIM_CELLS]

    def warmup(self):
        simulate.run_cell(simulate.SimConfig(n1=3, n2=3, beta1=1.0, beta2=2.0,
                                             m=100, reps=4, seed=1))

    def probe(self):
        return None

    def run_pass(self, rnd: int, threads: int) -> PassResult:
        latencies, outputs = [], []
        ops = 0
        start = time.perf_counter()
        for config in self.configs(rnd):
            t0 = time.perf_counter()
            outputs.append(simulate.run_cell(config, threads=threads))
            latencies.append((time.perf_counter() - t0) / config.reps)
            ops += config.reps
        return PassResult(ops, time.perf_counter() - start, latencies, [], outputs)

    def check(self, rnd: int, result: PassResult) -> None:
        for report, (cell, published) in zip(result.outputs, SIM_CELLS.items()):
            n = report.config.reps
            allowance = 0.015 + 4.0 * math.sqrt(published * (1.0 - published) / n)
            if abs(report.coverage - published) > allowance:
                raise CheckFailed(
                    f"{self.name} round {rnd}: cell {cell} coverage {report.coverage} "
                    f"is not within {allowance:.4f} of {published} (N = {n})")


class FitBatch:
    """Seeded mle / pooled-mle / extract commands on generated inputs.

    Timed passes run ``fitgen.timed``, on which no op may fail.  The full
    input set of ``fitgen.generate``, with the inputs that fail today,
    runs once per run as the defect probe; it is written only then, so
    that setup_s covers the timed inputs alone.
    """

    name = "fit-batch"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed, self.smoke, self.workdir = seed, smoke, workdir
        self.ops = fitgen.materialize(fitgen.timed(seed, smoke), workdir, "op")
        self.first = None

    def sizes(self) -> dict:
        def tally(ops, key):
            out = {}
            for op in ops:
                out[key(op)] = out.get(key(op), 0) + 1
            return out
        raw = [sum(len(v) for v in op.values) for op in self.ops if op.kind == "extract"]
        full = fitgen.generate(self.seed, self.smoke)
        return {"ops_per_pass": len(self.ops), "by_kind": tally(self.ops, lambda op: op.kind),
                "formats": list(fitgen.FORMATS),
                "raw_observations_min_max_total": [min(raw), max(raw), sum(raw)],
                "probe_ops": len(full), "probe_by_input": tally(full, lambda op: op.tag)}

    def warmup(self):
        _run_cli(["mle", "--records", "a:1,2,3;b:1,3"])

    def _pass(self, ops, threads: int) -> PassResult:
        # The fit commands take no thread option; the setting is passed the
        # way any command reads it, and nothing should change.
        with _env_threads(threads):
            result = _cli_pass([op.argv for op in ops])
        result.failed = [(i, rc, f"[{ops[i].tag}] {msg}") for i, rc, msg in result.failed]
        return result

    def run_pass(self, rnd: int, threads: int) -> PassResult:
        return self._pass(self.ops, threads)

    def probe(self) -> PassResult:
        full = fitgen.materialize(fitgen.generate(self.seed, self.smoke), self.workdir, "full")
        result = self._pass(full, 1)
        # Only the known defects may fail, and only as the CLI's documented
        # invalid-data exit; a crash, another exit code or a failure on any
        # other input is a wrong output.
        problems = [f"op {i} must not fail: {msg}" for i, rc, msg in result.failed
                    if rc != 2 or full[i].tag not in fitgen.KNOWN_DEFECTS]
        self._check_outputs("defect probe", full, result, problems)
        return result

    def check(self, rnd: int, result: PassResult) -> None:
        # Inputs are the same in every round, so later passes must print
        # exactly what the first, fully checked, pass printed.
        if self.first is not None:
            if (result.outputs, result.failed) != (self.first.outputs, self.first.failed):
                raise CheckFailed(f"{self.name}: outputs changed between passes")
            return
        problems = [f"op {i} must not fail: {msg}" for i, rc, msg in result.failed]
        self._check_outputs("timed pass", self.ops, result, problems)
        self.first = result

    def _check_outputs(self, what, ops, result, problems) -> None:
        for op, text in zip(ops, result.outputs):
            if text is not None:
                problems += fitgen.check(op, json.loads(text))
        if problems:
            raise CheckFailed(f"{self.name} {what}: {len(problems)} wrong outputs, "
                              f"first: {problems[:3]}")


@contextlib.contextmanager
def _env_threads(threads: int):
    saved = os.environ.get(cli.THREADS_ENV)
    os.environ[cli.THREADS_ENV] = str(threads)
    try:
        yield
    finally:
        if saved is None:
            del os.environ[cli.THREADS_ENV]
        else:
            os.environ[cli.THREADS_ENV] = saved


WORKLOADS = {w.name: w for w in (CiInsulating, SimSlice, FitBatch)}

