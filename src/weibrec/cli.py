"""Command line interface.

Subcommands: extract, mle, pooled-mle, ci-ratio, ci-diff, test,
simulate.  Each subparser names its handler (``run``) and CSV writer
(``write_csv``) as parser defaults.  A handler returns the JSON report
and its text rendering side by side; :func:`main` alone dispatches,
maps errors to exit codes and writes the payload ``--format`` picks.
Reports embed the request (seed, draw count, data digest and
the record values themselves), so any run can be reproduced exactly;
JSON output is byte-identical for identical seed and inputs regardless
of thread count.

Exit codes: 0 success, 2 invalid input or request, 3 numerical failure
(a pivotal equation without a positive root, or a fitted scale or
standard error outside the float range) or a request too large for the
memory available.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import secrets
import sys

from . import __version__
from .dataio import (load_populations, parse_json, populations_digest,
                     read_text, records_from_populations)
from .errors import BracketError, FloatRangeError, InvalidDataError
from .gpq import (p_value_one_sided, p_value_two_sided, percentile_interval,
                  percentile_ranks, sample_pivotal)
from .records import RecordSeries
from .rng import check_seed
from .simulate import (CELL_SETTINGS, SimConfig, check_threads,
                       default_table_grid, render_table, report_row, run_grid)
from .weibull import mle_records, pooled_mle, shape_mle

SCHEMA = "weibrec-report/1"
THREADS_ENV = "WEIBREC_THREADS"


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
    return check_threads(value)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed: {seed} (generated; pass --seed to reproduce)",
              file=sys.stderr)
    return check_seed(seed)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _header(command: str, **fields) -> dict:
    """A report: the schema, version and command, then ``fields``."""
    return {"schema": SCHEMA, "version": __version__, "command": command,
            **fields}


def _series_entry(series: RecordSeries) -> dict:
    return {"label": series.label, "n": series.n,
            "records": [float(v) for v in series.values]}


def _load(ns: argparse.Namespace,
          pair: bool = False) -> tuple[dict, list[RecordSeries]]:
    """Load --data or --records; start the report with every series."""
    kind = "raw" if ns.data is not None else "records"
    populations = load_populations(ns.data if ns.data is not None
                                   else ns.records, kind=kind)
    series = records_from_populations(populations, kind)
    report = _header(ns.command, data_digest=populations_digest(populations))
    report["data_kind"] = kind
    if pair and len(series) != 2:
        raise InvalidDataError(
            f"{ns.command} needs exactly 2 populations, got {len(series)}"
        )
    report["populations"] = [_series_entry(s) for s in series]
    return report, series


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise InvalidDataError(f"--gamma must be in (0, 1), got {gamma}")


def _draw(ns: argparse.Namespace, kind: str):
    """Load two series and draw their pivotal sample.

    Returns the report (with ``m`` and ``seed``), the draws and the two
    shape MLEs.
    """
    report, series = _load(ns, pair=True)
    seed = _resolve_seed(ns.seed)
    # Checked as for simulate, though the draws run on one thread.
    _resolve_threads(ns.threads)
    betas = shape_mle(series[0]), shape_mle(series[1])
    draws = sample_pivotal(series[0], series[1], kind, ns.m, seed)
    report.update(m=ns.m, seed=seed)
    return report, draws, betas


def cmd_extract(ns: argparse.Namespace) -> tuple[dict, str]:
    """Extract upper record values from raw observation sequences."""
    populations = load_populations(ns.data, kind="raw")
    report = _header(ns.command, data_digest=populations_digest(populations))
    report["populations"] = []
    lines = []
    for (label, values), series in zip(
        populations, records_from_populations(populations, "raw")
    ):
        entry = _series_entry(series)
        entry["raw_count"] = int(values.size)
        report["populations"].append(entry)
        lines.append(f"{entry['label']}: "
                     + " ".join(_fmt(v) for v in entry["records"]))
    return report, "\n".join(lines)


def cmd_mle(ns: argparse.Namespace) -> tuple[dict, str]:
    """Fit each population's Weibull parameters from its records."""
    report, series = _load(ns)
    lines = []
    for entry, s in zip(report["populations"], series):
        fit = mle_records(s)
        entry.update(alpha=fit.params.alpha, beta=fit.params.beta,
                     se_alpha=fit.se_alpha, se_beta=fit.se_beta,
                     loglik=fit.loglik)
        lines.append(
            f"{entry['label']}: alpha = {_fmt(fit.params.alpha)} "
            f"(se {_fmt(fit.se_alpha)}), beta = {_fmt(fit.params.beta)} "
            f"(se {_fmt(fit.se_beta)}), loglik = {_fmt(fit.loglik)}"
        )
    return report, "\n".join(lines)


def cmd_pooled_mle(ns: argparse.Namespace) -> tuple[dict, str]:
    """Fit two populations with a common shape."""
    report, series = _load(ns, pair=True)
    fit = pooled_mle(series[0], series[1])
    report.update(beta=fit.beta, se_beta=fit.se_beta,
                  alpha1=fit.alpha1, se_alpha1=fit.se_alpha1,
                  alpha2=fit.alpha2, se_alpha2=fit.se_alpha2,
                  loglik=fit.loglik)
    return report, (
        f"pooled: beta = {_fmt(fit.beta)} (se {_fmt(fit.se_beta)}), "
        f"alpha1 = {_fmt(fit.alpha1)} (se {_fmt(fit.se_alpha1)}), "
        f"alpha2 = {_fmt(fit.alpha2)} (se {_fmt(fit.se_alpha2)}), "
        f"loglik = {_fmt(fit.loglik)}"
    )


def cmd_interval(ns: argparse.Namespace) -> tuple[dict, str]:
    """Percentile interval for the shape ratio or difference (``ns.kind``)."""
    _check_gamma(ns.gamma)
    percentile_ranks(ns.m, ns.gamma)  # too few draws: fail before drawing
    report, draws, (beta1, beta2) = _draw(ns, ns.kind)
    interval = percentile_interval(draws, ns.gamma)
    point = beta1 / beta2 if ns.kind == "ratio" else beta1 - beta2
    report.update(
        gamma=ns.gamma,
        level=interval.level,
        estimand=interval.estimand,
        interval={"lower": interval.lower, "upper": interval.upper},
        point_estimate=point,
    )
    name = "shape ratio" if interval.estimand == "pi" else "shape difference"
    return report, (
        f"{_fmt(100 * interval.level)}% interval for {name}: "
        f"({_fmt(interval.lower)}, {_fmt(interval.upper)})\n"
        f"point estimate {_fmt(point)}, m = {ns.m}, seed = {report['seed']}"
    )


def cmd_test(ns: argparse.Namespace) -> tuple[dict, str]:
    """Generalized p-value for H0: shape ratio = pi0."""
    if not 0.0 < ns.pi0 < math.inf:
        raise InvalidDataError(
            f"--pi0 must be a positive, finite shape ratio, got {ns.pi0}")
    _check_gamma(ns.gamma)
    report, draws, (beta1, beta2) = _draw(ns, "ratio")
    if ns.sided == "greater":
        result = p_value_one_sided(draws, ns.pi0)
    else:
        result = p_value_two_sided(draws, ns.pi0)
    decision = "reject" if result.p_value <= ns.gamma else "fail to reject"
    report.update(
        pi0=ns.pi0,
        gamma=ns.gamma,
        sidedness=result.sidedness,
        p_value=result.p_value,
        mc_se_p_value=result.mc_se,
        point_estimate=beta1 / beta2,
        conclusion=f"{decision} at {ns.gamma:g}",
    )
    return report, (
        f"p-value = {_fmt(result.p_value)} ({result.sidedness}, "
        f"pi0 = {_fmt(ns.pi0)})\n"
        f"conclusion: {report['conclusion']} "
        f"(point estimate {_fmt(beta1 / beta2)}, "
        f"m = {ns.m}, seed = {report['seed']})"
    )


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


def _cell(where: str, defaults: dict, entry: dict) -> SimConfig:
    """The cell ``entry`` over ``defaults``; its errors name it ``where``."""
    fields = dataclasses.fields(SimConfig)
    unknown = set(entry) - {f.name for f in fields}
    if unknown:
        raise InvalidDataError(f"{where} has unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING
               and f.name not in {**defaults, **entry}]
    if missing:
        raise InvalidDataError(f"{where} is missing keys {missing}")
    try:
        return SimConfig(**{**defaults, **entry})
    except InvalidDataError as exc:
        raise InvalidDataError(f"{where}: {exc}") from None


def _parse_cell(text: str, defaults: dict) -> SimConfig:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (4, 6):
        raise InvalidDataError(
            f"--cell needs n1,n2,beta1,beta2[,alpha1,alpha2], got {text!r}"
        )
    try:
        values = [int(p) for p in parts[:2]] + [float(p) for p in parts[2:]]
    except ValueError:
        raise InvalidDataError(f"--cell {text!r}: malformed number") from None
    return _cell(f"--cell {text!r}", defaults,
                 dict(zip(CELL_SETTINGS, values)))


def _cells_from_config(path: str, defaults: dict) -> list[SimConfig]:
    doc = parse_json(read_text(path), repr(path))
    if isinstance(doc, dict):
        doc.check_unique(repr(path))
        extra = sorted(set(doc) - {"cells"})
        if extra:
            raise InvalidDataError(f"{path!r}: unknown keys {extra} (a config "
                                   f"object has only a 'cells' array)")
        doc = doc.get("cells")
    if not isinstance(doc, list) or not doc:
        raise InvalidDataError(
            f"{path!r}: expected a non-empty array of cells "
            f"(or an object with a 'cells' array)"
        )
    cells = []
    for i, entry in enumerate(doc):
        where = f"{path!r}: cells[{i}]"
        if not isinstance(entry, dict):
            raise InvalidDataError(f"{where} must be an object")
        entry.check_unique(where)
        cells.append(_cell(where, defaults, entry))
    return cells


def cmd_simulate(ns: argparse.Namespace) -> tuple[dict, str]:
    """Build the grid and run it; the text is the two-block table."""
    seed = _resolve_seed(ns.seed)
    threads = _resolve_threads(ns.threads)
    defaults = dict(m=ns.m, reps=ns.reps, gamma=ns.gamma, seed=seed)
    # The flags are checked once, before any cell, so their errors name none.
    SimConfig(1, 1, 1.0, 1.0, **defaults)
    if ns.grid:
        cells = default_table_grid(**defaults)
    elif ns.cell:
        cells = [_parse_cell(text, defaults) for text in ns.cell]
    else:
        cells = _cells_from_config(ns.config, defaults)
    results = run_grid(cells, threads=threads)
    report = _header(ns.command, seed=seed,
                     cells=[report_row(item) for item in results])
    return report, render_table(results)


def _simulate_csv(report: dict) -> str:
    buf = io.StringIO()
    fields = list(report["cells"][0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in report["cells"]:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def _add_output_options(sp: argparse.ArgumentParser,
                        write_csv=_kv_csv) -> None:
    sp.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                    default="json", help="report format (default json)")
    sp.add_argument("--out", help="write the report to this file")
    sp.set_defaults(write_csv=write_csv)


def _add_data_options(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--data",
                       help="raw observation sequences (file path or inline)")
    group.add_argument("--records",
                       help="pre-extracted record values (file path or inline)")


def _add_mc_options(sp: argparse.ArgumentParser, default_m: int,
                    m_help: str = "Monte Carlo pivotal draws") -> None:
    sp.add_argument("--M", dest="m", type=int, default=default_m,
                    help=f"{m_help} (default {default_m})")
    sp.add_argument("--seed", type=int,
                    help="master seed (default: generated and printed)")
    sp.add_argument("--threads", type=int,
                    help=f"worker threads of simulate (default "
                         f"${THREADS_ENV} or serial); ci-ratio, ci-diff "
                         f"and test run on one thread; never affects "
                         f"results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weibrec",
        description="Inference for two Weibull shape parameters "
                    "observed through upper record values.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.set_defaults(table=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("extract",
                        help="extract upper record values from raw sequences")
    sp.set_defaults(run=cmd_extract)
    sp.add_argument("--data", required=True,
                    help="raw observation sequences (file path or inline)")
    _add_output_options(sp)

    for name, run, text in (
            ("mle", cmd_mle, "per-population Weibull fit from records"),
            ("pooled-mle", cmd_pooled_mle,
             "two-population fit with a common shape")):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(run=run)
        _add_data_options(sp)
        _add_output_options(sp)

    for name, kind in (("ci-ratio", "ratio"), ("ci-diff", "difference")):
        sp = sub.add_parser(
            name, help=f"confidence interval for the shape {kind}")
        sp.set_defaults(run=cmd_interval, kind=kind)
        _add_data_options(sp)
        sp.add_argument("--gamma", type=float, required=True,
                        help="miscoverage, e.g. 0.05 for a 95%% interval")
        _add_mc_options(sp, default_m=100_000)
        _add_output_options(sp)

    sp = sub.add_parser("test", help="generalized p-value for the shape ratio")
    sp.set_defaults(run=cmd_test)
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
    sp.set_defaults(run=cmd_simulate)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--grid", action="store_true",
                       help="run the full 9 x 7 study grid")
    which.add_argument("--cell", action="append", metavar="N1,N2,B1,B2",
                       help="one cell n1,n2,beta1,beta2[,alpha1,alpha2]; "
                            "repeatable")
    which.add_argument("--config", help="JSON file with an array of cells")
    _add_mc_options(sp, default_m=SimConfig.m,
                    m_help="inner pivotal draws per replicate")
    sp.add_argument("--N", dest="reps", type=int, default=SimConfig.reps,
                    help=f"outer replicates per cell (default {SimConfig.reps})")
    sp.add_argument("--gamma", type=float, default=SimConfig.gamma,
                    help=f"interval miscoverage (default {SimConfig.gamma})")
    sp.add_argument("--table", action="store_true",
                    help="also print the aligned two-block table")
    _add_output_options(sp, write_csv=_simulate_csv)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        report, text = ns.run(ns)
        if ns.fmt == "json":
            payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        elif ns.fmt == "csv":
            payload = ns.write_csv(report)
        else:
            payload = text + "\n"
        if ns.out:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        if ns.table and (ns.fmt != "text" or ns.out):
            print(text)
    except (InvalidDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, FloatRangeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # A simulate cell that failed is reported in its row and exits 3.
    return 3 if any(row["error"] for row in report.get("cells", ())) else 0


if __name__ == "__main__":
    sys.exit(main())
