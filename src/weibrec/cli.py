"""Command line interface.

Subcommands: extract, mle, pooled-mle, ci-ratio, ci-diff, test,
simulate.  Reports embed the request (seed, draw count, data digest and
the record values themselves), so any run can be reproduced exactly;
JSON output is byte-identical for identical seed and inputs regardless
of thread count.

Exit codes: 0 success, 2 invalid input or request, 3 numerical failure
(for example a pivotal equation without a positive root).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
from dataclasses import dataclass

from . import __version__
from .dataio import (Populations, load_populations, populations_digest,
                     records_from_populations)
from .errors import (BracketError, InsufficientDrawsError, InvalidDataError,
                     SingularInformationError)
from .gpq import (p_value_one_sided, p_value_two_sided, percentile_interval,
                  sample_pivotal)
from .records import RecordSeries
from .simulate import (SimConfig, default_table_grid, render_table,
                       report_row, run_grid)
from .weibull import mle_records, pooled_mle, shape_mle

SCHEMA = "weibrec-report/1"
THREADS_ENV = "WEIBREC_THREADS"


@dataclass(frozen=True)
class AnalysisRequest:
    """A fully resolved analysis invocation."""

    source: str
    data_kind: str
    operation: str
    gamma: float | None = None
    pi0: float | None = None
    m: int | None = None
    seed: int | None = None
    sided: str = "two-sided"
    threads: int | None = None


def _resolve_threads(value: int | None) -> int | None:
    if value is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        if not env:
            return None
        try:
            value = int(env)
        except ValueError:
            raise InvalidDataError(
                f"{THREADS_ENV} must be an integer, got {env!r}"
            ) from None
    if value < 1:
        raise InvalidDataError("thread count must be at least 1")
    return value


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed} (generated; pass --seed to reproduce)",
              file=sys.stderr)
    elif not 0 <= seed < 2 ** 64:
        raise InvalidDataError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _load(request: AnalysisRequest) -> tuple[Populations, list[RecordSeries]]:
    populations = load_populations(request.source, kind=request.data_kind)
    series = records_from_populations(populations, request.data_kind)
    return populations, series


def _two_series(series: list[RecordSeries], operation: str) -> None:
    if len(series) != 2:
        raise InvalidDataError(
            f"{operation} needs exactly 2 populations, got {len(series)}"
        )


def _series_entry(series: RecordSeries) -> dict:
    return {"label": series.label, "n": series.n,
            "records": [float(v) for v in series.values]}


def _base_report(command: str, populations: Populations) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "data_digest": populations_digest(populations),
    }


def cmd_extract(request: AnalysisRequest) -> dict:
    """Extract upper record values from raw observation sequences."""
    populations = load_populations(request.source, kind="raw")
    report = _base_report("extract", populations)
    report["populations"] = []
    for (label, values), series in zip(
        populations, records_from_populations(populations, "raw")
    ):
        entry = _series_entry(series)
        entry["raw_count"] = int(values.size)
        report["populations"].append(entry)
    return report


def cmd_analyze(request: AnalysisRequest) -> dict:
    """Run one of: mle, pooled-mle, ci-ratio, ci-diff, test."""
    populations, series = _load(request)
    report = _base_report(request.operation, populations)
    report["data_kind"] = request.data_kind

    if request.operation == "mle":
        report["populations"] = []
        for s in series:
            fit = mle_records(s)
            entry = _series_entry(s)
            entry.update(alpha=fit.params.alpha, beta=fit.params.beta,
                         se_alpha=fit.se_alpha, se_beta=fit.se_beta,
                         loglik=fit.loglik)
            report["populations"].append(entry)
        return report

    if request.operation == "pooled-mle":
        _two_series(series, request.operation)
        fit = pooled_mle(series[0], series[1])
        report["populations"] = [_series_entry(s) for s in series]
        report.update(beta=fit.beta, se_beta=fit.se_beta,
                      alpha1=fit.alpha1, se_alpha1=fit.se_alpha1,
                      alpha2=fit.alpha2, se_alpha2=fit.se_alpha2,
                      loglik=fit.loglik)
        return report

    _two_series(series, request.operation)
    seed = _resolve_seed(request.seed)
    threads = _resolve_threads(request.threads)
    beta1, beta2 = shape_mle(series[0]), shape_mle(series[1])
    kind = "difference" if request.operation == "ci-diff" else "ratio"
    draws = sample_pivotal(series[0], series[1], kind, request.m, seed,
                           threads=threads)
    report["populations"] = [_series_entry(s) for s in series]
    report.update(m=request.m, seed=seed)

    if request.operation in ("ci-ratio", "ci-diff"):
        interval = percentile_interval(draws, request.gamma)
        report.update(
            gamma=request.gamma,
            level=interval.level,
            estimand=interval.estimand,
            interval={"lower": interval.lower, "upper": interval.upper},
            point_estimate=(beta1 / beta2 if kind == "ratio"
                            else beta1 - beta2),
        )
        return report

    # test
    if request.sided == "greater":
        result = p_value_one_sided(draws, request.pi0)
    else:
        result = p_value_two_sided(draws, request.pi0)
    decision = "reject" if result.p_value <= request.gamma else "fail to reject"
    report.update(
        pi0=request.pi0,
        gamma=request.gamma,
        sidedness=result.sidedness,
        p_value=result.p_value,
        point_estimate=beta1 / beta2,
        conclusion=f"{decision} at {request.gamma:g}",
    )
    return report


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text_report(report: dict) -> str:
    """Render any analysis report as aligned text, 6 significant digits."""
    command = report["command"]
    lines = []
    if command == "extract":
        for pop in report["populations"]:
            values = " ".join(_fmt(v) for v in pop["records"])
            lines.append(f"{pop['label']}: {values}")
    elif command == "mle":
        for pop in report["populations"]:
            lines.append(
                f"{pop['label']}: alpha = {_fmt(pop['alpha'])} "
                f"(se {_fmt(pop['se_alpha'])}), beta = {_fmt(pop['beta'])} "
                f"(se {_fmt(pop['se_beta'])}), loglik = {_fmt(pop['loglik'])}"
            )
    elif command == "pooled-mle":
        lines.append(
            f"pooled: beta = {_fmt(report['beta'])} "
            f"(se {_fmt(report['se_beta'])}), "
            f"alpha1 = {_fmt(report['alpha1'])} "
            f"(se {_fmt(report['se_alpha1'])}), "
            f"alpha2 = {_fmt(report['alpha2'])} "
            f"(se {_fmt(report['se_alpha2'])}), "
            f"loglik = {_fmt(report['loglik'])}"
        )
    elif command in ("ci-ratio", "ci-diff"):
        name = "shape ratio" if report["estimand"] == "pi" else "shape difference"
        lines.append(
            f"{_fmt(100 * report['level'])}% interval for {name}: "
            f"({_fmt(report['interval']['lower'])}, "
            f"{_fmt(report['interval']['upper'])})"
        )
        lines.append(
            f"point estimate {_fmt(report['point_estimate'])}, "
            f"m = {report['m']}, seed = {report['seed']}"
        )
    elif command == "test":
        lines.append(
            f"p-value = {_fmt(report['p_value'])} ({report['sidedness']}, "
            f"pi0 = {_fmt(report['pi0'])})"
        )
        lines.append(
            f"conclusion: {report['conclusion']} "
            f"(point estimate {_fmt(report['point_estimate'])}, "
            f"m = {report['m']}, seed = {report['seed']})"
        )
    return "\n".join(lines)


def _flatten(prefix: str, node, rows: list[tuple[str, object]]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _flatten(f"{prefix}[{i}]", value, rows)
    else:
        rows.append((prefix, node))


def _kv_csv(report: dict) -> str:
    rows: list[tuple[str, object]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _write_out(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit(report: dict, text: str, fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        payload = _kv_csv(report)
    else:
        payload = text + "\n"
    _write_out(payload, out)


def _parse_cell(text: str, defaults: dict) -> SimConfig:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (4, 6):
        raise InvalidDataError(
            f"--cell needs n1,n2,beta1,beta2[,alpha1,alpha2], got {text!r}"
        )
    try:
        n1, n2 = int(parts[0]), int(parts[1])
        floats = [float(p) for p in parts[2:]]
    except ValueError:
        raise InvalidDataError(f"--cell {text!r}: malformed number") from None
    alphas = floats[2:] if len(floats) == 4 else [1.0, 1.0]
    return SimConfig(n1=n1, n2=n2, beta1=floats[0], beta2=floats[1],
                     alpha1=alphas[0], alpha2=alphas[1], **defaults)


def _cells_from_config(path: str, defaults: dict) -> list[SimConfig]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidDataError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidDataError(f"{path!r}: invalid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = doc.get("cells")
    if not isinstance(doc, list) or not doc:
        raise InvalidDataError(
            f"{path!r}: expected a non-empty array of cells "
            f"(or an object with a 'cells' array)"
        )
    cells = []
    allowed = {"n1", "n2", "beta1", "beta2", "alpha1", "alpha2",
               "m", "reps", "gamma", "seed"}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise InvalidDataError(f"{path!r}: cells[{i}] must be an object")
        unknown = set(entry) - allowed
        if unknown:
            raise InvalidDataError(
                f"{path!r}: cells[{i}] has unknown keys {sorted(unknown)}"
            )
        merged = {**defaults, **entry}
        try:
            cells.append(SimConfig(**merged))
        except TypeError as exc:
            raise InvalidDataError(f"{path!r}: cells[{i}]: {exc}") from None
    return cells


def cmd_simulate(ns: argparse.Namespace) -> tuple[dict, str, bool]:
    """Build the grid, run it, and return (report, table text, all_ok)."""
    seed = _resolve_seed(ns.seed)
    threads = _resolve_threads(ns.threads)
    defaults = dict(m=ns.m, reps=ns.reps, gamma=ns.gamma, seed=seed)
    if ns.grid:
        cells = default_table_grid(**defaults)
    elif ns.cell:
        cells = [_parse_cell(text, defaults) for text in ns.cell]
    else:
        cells = _cells_from_config(ns.config, defaults)
    results = run_grid(cells, threads=threads)
    rows = [report_row(item) for item in results]
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "simulate",
        "seed": seed,
        "cells": rows,
    }
    all_ok = all(row["error"] == "" for row in rows)
    return report, render_table(results), all_ok


def _simulate_csv(report: dict) -> str:
    buf = io.StringIO()
    fields = list(report["cells"][0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in report["cells"]:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _run_simulate(ns: argparse.Namespace) -> int:
    report, table, all_ok = cmd_simulate(ns)
    if ns.fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif ns.fmt == "csv":
        payload = _simulate_csv(report)
    else:
        payload = table + "\n"
    _write_out(payload, ns.out)
    if ns.table and (ns.fmt != "text" or ns.out):
        print(table)
    return 0 if all_ok else 3


def _add_output_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                    default="json", help="report format (default json)")
    sp.add_argument("--out", help="write the report to this file")


def _add_data_options(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--data",
                       help="raw observation sequences (file path or inline)")
    group.add_argument("--records",
                       help="pre-extracted record values (file path or inline)")


def _add_mc_options(sp: argparse.ArgumentParser, default_m: int) -> None:
    sp.add_argument("--M", dest="m", type=int, default=default_m,
                    help=f"Monte Carlo pivotal draws (default {default_m})")
    sp.add_argument("--seed", type=int,
                    help="master seed (default: generated and printed)")
    sp.add_argument("--threads", type=int,
                    help=f"worker threads (default ${THREADS_ENV} or serial); "
                         f"does not affect results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weibrec",
        description="Inference for two Weibull shape parameters "
                    "observed through upper record values.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("extract",
                        help="extract upper record values from raw sequences")
    sp.add_argument("--data", required=True,
                    help="raw observation sequences (file path or inline)")
    _add_output_options(sp)

    sp = sub.add_parser("mle", help="per-population Weibull fit from records")
    _add_data_options(sp)
    _add_output_options(sp)

    sp = sub.add_parser("pooled-mle",
                        help="two-population fit with a common shape")
    _add_data_options(sp)
    _add_output_options(sp)

    for name, blurb in (("ci-ratio", "confidence interval for the shape ratio"),
                        ("ci-diff", "confidence interval for the shape difference")):
        sp = sub.add_parser(name, help=blurb)
        _add_data_options(sp)
        sp.add_argument("--gamma", type=float, required=True,
                        help="miscoverage, e.g. 0.05 for a 95%% interval")
        _add_mc_options(sp, default_m=100_000)
        _add_output_options(sp)

    sp = sub.add_parser("test", help="generalized p-value for the shape ratio")
    _add_data_options(sp)
    sp.add_argument("--pi0", type=float, required=True,
                    help="hypothesized shape ratio")
    sp.add_argument("--gamma", type=float, default=0.05,
                    help="significance level for the stated conclusion "
                         "(default 0.05)")
    sp.add_argument("--sided", choices=("two-sided", "greater"),
                    default="two-sided", help="alternative (default two-sided)")
    _add_mc_options(sp, default_m=100_000)
    _add_output_options(sp)

    sp = sub.add_parser("simulate", help="coverage study for the ratio interval")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--grid", action="store_true",
                       help="run the full 9 x 7 study grid")
    which.add_argument("--cell", action="append", metavar="N1,N2,B1,B2",
                       help="one cell n1,n2,beta1,beta2[,alpha1,alpha2]; "
                            "repeatable")
    which.add_argument("--config", help="JSON file with an array of cells")
    sp.add_argument("--M", dest="m", type=int, default=2000,
                    help="inner pivotal draws per replicate (default 2000)")
    sp.add_argument("--N", dest="reps", type=int, default=2000,
                    help="outer replicates per cell (default 2000)")
    sp.add_argument("--gamma", type=float, default=0.05,
                    help="interval miscoverage (default 0.05)")
    sp.add_argument("--seed", type=int,
                    help="master seed (default: generated and printed)")
    sp.add_argument("--threads", type=int,
                    help=f"worker threads (default ${THREADS_ENV} or serial)")
    sp.add_argument("--table", action="store_true",
                    help="also print the aligned two-block table")
    _add_output_options(sp)

    return parser


def _request_from(ns: argparse.Namespace) -> AnalysisRequest:
    if ns.command == "extract":
        return AnalysisRequest(source=ns.data, data_kind="raw",
                               operation="extract")
    source = ns.data if ns.data is not None else ns.records
    kind = "raw" if ns.data is not None else "records"
    return AnalysisRequest(
        source=source,
        data_kind=kind,
        operation=ns.command,
        gamma=getattr(ns, "gamma", None),
        pi0=getattr(ns, "pi0", None),
        m=getattr(ns, "m", None),
        seed=getattr(ns, "seed", None),
        sided=getattr(ns, "sided", "two-sided"),
        threads=getattr(ns, "threads", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "simulate":
            return _run_simulate(ns)
        if ns.command == "extract":
            report = cmd_extract(_request_from(ns))
        else:
            report = cmd_analyze(_request_from(ns))
        _emit(report, _text_report(report), ns.fmt, ns.out)
        return 0
    except (InvalidDataError, InsufficientDrawsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, SingularInformationError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
