"""Seeded inputs for the fit-batch workload, and their reference answers.

Every input is valid: records are strictly increasing, positive and
finite, and raw sequences are positive and finite.  ``generate`` gives
the full input set, with the inputs that the program fails on today
(KNOWN_DEFECTS: near-tied records, fitted parameters below 1, fitted
shapes above 50); the run checks it once, untimed, and reports its
failures.  ``timed`` gives the ops of a timed pass: the same law and mix
without those input classes, so that no timed op fails.

Parameters are drawn by stratified sampling.  A parameter's range is cut
into as many equal strata as there are slots (log scale where the range
is log-uniform), each slot owns one stratum, and the seed places the
value inside it.  Which slot owns which stratum, and each op's kind and
format, are fixed, so a pass costs nearly the same for every seed while
its values still follow the asked-for law.  Raw sequence lengths are a
fixed log-spaced ladder over the asked-for range.

The reference answers are computed here in pure Python (``math.log``
and ``math.fsum``), independently of weibrec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

FORMATS = ("wide", "long", "json", "inline")
NEAR_TIE = 1.0 + 1e-7
# One records op in seven has a near-tied series: 7 is prime to the four
# formats, so near-tied inputs reach every format under both commands.
NEAR_TIE_EVERY = 7
K_RANGE = (2, 30)
SHAPE_RANGE = (0.3, 5.0)
SCALE_RANGE = (1e-3, 1e3)
# Equal time per command kind: when the benchmark was added, a records op
# took about 2.9 ms and a raw extract on the 2k-20k ladder about 28 ms on a
# 2-vCPU Xeon, so 40 + 40 + 4 ops give mle, pooled-mle and extract a third
# of a pass each.  cli and weibull (records ops) and dataio and records
# (extracts) each keep a share that their changes can move.
FULL_MIX = {"mle": 40, "pooled-mle": 40, "extract": 4}
FULL_RAW = (2_000, 20_000)
SMOKE_MIX = {"mle": 4, "pooled-mle": 4, "extract": 2}
SMOKE_RAW = (200, 2_000)
LABELS = ("a", "b")
EPS = 2.0 ** -52
# Input classes that fail today, as the CLI's invalid-data exit 2: near-tied
# records; inputs whose fitted alpha or beta is below 1, where the
# finite-difference step of the stationarity check is absolute; and
# inputs whose fitted beta is above STEEP_BETA, where that step is too
# coarse for the curvature in alpha, which grows as beta**2.  Any other
# failure is a wrong output.  Over seeds 0-799 of candidate inputs, every
# failure outside the first two classes had a fitted beta above 65; over
# seeds 0-1599, no fit outside the three classes failed.
STEEP_BETA = 50.0
KNOWN_DEFECTS = ("near-tied", "theta<1", "steep")


@dataclass(frozen=True)
class FitOp:
    """One CLI command with the populations it was built from."""

    kind: str                  # mle, pooled-mle or extract
    fmt: str                   # one of FORMATS
    values: tuple              # per population: records, or raw observations
    tag: str                   # one of KNOWN_DEFECTS, regular or raw
    argv: tuple = ()


def _strata(rng: np.random.Generator, n: int, tag: int, block: int = 0) -> np.ndarray:
    """n points in [0, 1): slot i lies in a fixed one of n equal strata."""
    owner = np.random.default_rng([0x57A7, tag, n, block]).permutation(n)
    return (owner + rng.random(n)) / n


def _log_uniform(rng, n, lo, hi, tag, block=0):
    return np.exp(math.log(lo) + _strata(rng, n, tag, block) * (math.log(hi) - math.log(lo)))


def _record_series(rng, k, alpha, beta, near_tied):
    """Weibull upper records r_0..r_{k-1}; exponential records are partial sums."""
    while True:
        if near_tied:
            r0 = alpha * rng.standard_exponential() ** (1.0 / beta)
            r = r0 * NEAR_TIE ** np.arange(k)
        else:
            r = alpha * np.cumsum(rng.standard_exponential(k)) ** (1.0 / beta)
        if np.all(np.isfinite(r)) and r[0] > 0.0 and np.all(np.diff(r) > 0.0):
            return tuple(float(v) for v in r)


def _raw_sequence(rng, n, alpha, beta):
    while True:
        x = alpha * rng.standard_exponential(n) ** (1.0 / beta)
        if np.all(np.isfinite(x)) and np.all(x > 0.0):
            return tuple(float(v) for v in x)


def _records_ops(rng, mix, block: int = 0) -> list[FitOp]:
    """One stratified block of mle and pooled-mle ops, tagged by input class.

    Each block has its own fixed assignment of strata to slots.
    """
    n_rec = mix["mle"] + mix["pooled-mle"]
    # Two series per records op, so the k, shape and scale ladders have 2 * n_rec rungs.
    ks = K_RANGE[0] + np.floor(_strata(rng, 2 * n_rec, 1, block) * (K_RANGE[1] - K_RANGE[0] + 1))
    shapes = _log_uniform(rng, 2 * n_rec, *SHAPE_RANGE, tag=2, block=block)
    scales = _log_uniform(rng, 2 * n_rec, *SCALE_RANGE, tag=3, block=block)
    ops = []
    kinds = ["mle"] * mix["mle"] + ["pooled-mle"] * mix["pooled-mle"]
    for i, kind in enumerate(kinds):
        near_tied = i % NEAR_TIE_EVERY == 0
        series = tuple(
            _record_series(rng, int(ks[2 * i + p]), scales[2 * i + p],
                           shapes[2 * i + p], near_tied=(p == 0 and near_tied))
            for p in range(2)
        )
        theta = fitted_theta(kind, series)
        if near_tied:
            tag = "near-tied"
        elif min(theta) < 1.0:
            tag = "theta<1"
        elif max(theta[:len(theta) // 2]) > STEEP_BETA:
            tag = "steep"
        else:
            tag = "regular"
        ops.append(FitOp(kind, FORMATS[i % len(FORMATS)], series, tag))
    return ops


def generate(seed: int, smoke: bool = False) -> list[FitOp]:
    """The full input set, known-defect inputs included, in the order they run."""
    rng = np.random.default_rng([seed, 0x5EED])
    mix = SMOKE_MIX if smoke else FULL_MIX
    raw_lo, raw_hi = SMOKE_RAW if smoke else FULL_RAW
    n_raw = mix["extract"]
    ops = _records_ops(rng, mix)

    # Sequence lengths and splits are a fixed log-spaced ladder: parsing
    # them is a third of a pass, so their total must not move with the seed.
    mid = (np.arange(n_raw) + 0.5) / n_raw
    sizes = np.exp(math.log(raw_lo) + mid * (math.log(raw_hi) - math.log(raw_lo)))
    splits = 0.3 + 0.4 * mid[::-1]
    shapes = _log_uniform(rng, 2 * n_raw, *SHAPE_RANGE, tag=5)
    scales = _log_uniform(rng, 2 * n_raw, *SCALE_RANGE, tag=6)
    for i in range(n_raw):
        n = int(round(sizes[i]))
        n1 = int(round(n * splits[i]))
        series = (_raw_sequence(rng, n1, scales[2 * i], shapes[2 * i]),
                  _raw_sequence(rng, n - n1, scales[2 * i + 1], shapes[2 * i + 1]))
        ops.append(FitOp("extract", FORMATS[i % len(FORMATS)], series, "raw"))

    order = rng.permutation(len(ops))
    return [ops[j] for j in order]


def timed(seed: int, smoke: bool = False) -> list[FitOp]:
    """The ops of one timed pass: the mix of ``generate`` without known defects.

    Records ops are drawn by the same law, block after block, and the
    first ones outside KNOWN_DEFECTS are kept until each command has its
    count; the extracts are those of ``generate``.  So a pass has the
    same size for every seed, and no op of it fails at the commit that
    added the benchmark.
    """
    rng = np.random.default_rng([seed, 0x71ED])
    mix = SMOKE_MIX if smoke else FULL_MIX
    kept = {"mle": [], "pooled-mle": []}
    block = 0
    while any(len(kept[kind]) < mix[kind] for kind in kept):
        block += 1
        for op in _records_ops(rng, mix, block):
            if op.tag not in KNOWN_DEFECTS and len(kept[op.kind]) < mix[op.kind]:
                kept[op.kind].append(op)
    # Formats cycle over the kept ops, so that every seed has the same mix.
    ops = [replace(op, fmt=FORMATS[j % len(FORMATS)])
           for kind in kept for j, op in enumerate(kept[kind])]
    ops += [op for op in generate(seed, smoke) if op.kind == "extract"]
    order = rng.permutation(len(ops))
    return [ops[j] for j in order]


def _wide_csv(values) -> str:
    lines = [",".join(LABELS[:len(values)])]
    for row in zip_longest(*values, fillvalue=None):
        lines.append(",".join("" if v is None else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def _long_csv(values, with_order: bool) -> str:
    lines = ["population,order,value" if with_order else "population,value"]
    for label, vals in zip(LABELS, values):
        for j, v in enumerate(vals, start=1):
            lines.append(f"{label},{j},{v!r}" if with_order else f"{label},{v!r}")
    return "\n".join(lines) + "\n"


def _json(values, index: int) -> str:
    if index % 2:
        doc = [{"label": label, "values": list(vals)}
               for label, vals in zip(LABELS, values)]
    else:
        doc = {label: list(vals) for label, vals in zip(LABELS, values)}
    return json.dumps(doc)


def _inline(values) -> str:
    return ";".join(f"{label}:" + ",".join(repr(v) for v in vals)
                    for label, vals in zip(LABELS, values))


def materialize(ops: list[FitOp], workdir: Path, prefix: str) -> list[FitOp]:
    """Write each op's input file and return the ops with their argv set."""
    out = []
    for i, op in enumerate(ops):
        raw = op.kind == "extract"
        if op.fmt == "inline":
            source = _inline(op.values)
        else:
            if op.fmt == "wide":
                text, suffix = _wide_csv(op.values), ".csv"
            elif op.fmt == "long":
                text, suffix = _long_csv(op.values, with_order=raw or i % 2 == 1), ".csv"
            else:
                text, suffix = _json(op.values, i), ".json"
            path = workdir / f"{prefix}{i:04d}{suffix}"
            path.write_text(text, encoding="utf-8")
            source = str(path)
        flag = "--data" if raw else "--records"
        out.append(FitOp(op.kind, op.fmt, op.values, op.tag,
                         argv=(op.kind, flag, source)))
    return out


def _log_ratio_sum(records) -> tuple[float, float]:
    """S = sum_j log(r_n / r_j), and the rounding bound of forming it from logs."""
    top = math.log(records[-1])
    logs = [math.log(v) for v in records[:-1]]
    return (math.fsum(top - lv for lv in logs),
            math.fsum(abs(top) + abs(lv) for lv in logs))


def fitted_theta(kind: str, values) -> list[float]:
    """Closed-form beta and alpha of each series (pooled-mle: one shared beta),
    the point where the program checks stationarity."""
    sums = [(len(v), _log_ratio_sum(v)[0], v[-1]) for v in values]
    if kind == "mle":
        betas = [n / s for n, s, _ in sums]
    else:
        betas = [sum(n for n, _, _ in sums) / math.fsum(s for _, s, _ in sums)] * len(sums)
    alphas = [top / n ** (1.0 / b) for (n, _, top), b in zip(sums, betas)]
    return betas + alphas


def _beta_close(got, n_plus, pairs) -> str | None:
    s = math.fsum(p[0] for p in pairs)
    bound = math.fsum(p[1] for p in pairs)
    want = n_plus / s
    # 1e-12 relative, widened only where rounding the logs allows more
    # (near-tied records, where S is tiny next to the logs it is formed from).
    tol = 1e-12 + 4.0 * EPS * bound / s
    if not isinstance(got, float) or abs(got - want) > tol * want:
        return f"beta {got!r} differs from (n+1)/S = {want!r} (tolerance {tol:.2g} relative)"
    return None


def _scan_records(raw):
    out, best = [], -math.inf
    for v in raw:
        if v > best:
            out.append(v)
            best = v
    return out


def check(op: FitOp, report: dict) -> list[str]:
    """Problems with one successful op's JSON report (empty when correct)."""
    problems = []
    pops = report.get("populations", [])
    if report.get("command") != op.kind or len(pops) != len(op.values):
        return [f"{op.kind}: report command or population count is wrong"]
    for label, vals, pop in zip(LABELS, op.values, pops):
        want = _scan_records(vals) if op.kind == "extract" else list(vals)
        if pop.get("label") != label or pop.get("records") != want:
            problems.append(f"{op.kind}: population {label} records differ")
        if op.kind == "extract" and pop.get("raw_count") != len(vals):
            problems.append(f"extract: population {label} raw_count is wrong")
        if op.kind == "mle":
            bad = _beta_close(pop.get("beta"), len(vals), [_log_ratio_sum(vals)])
            if bad:
                problems.append(f"mle: population {label}: {bad}")
    if op.kind == "pooled-mle":
        bad = _beta_close(report.get("beta"), sum(len(v) for v in op.values),
                          [_log_ratio_sum(v) for v in op.values])
        if bad:
            problems.append(f"pooled-mle: {bad}")
    return problems
