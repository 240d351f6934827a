"""Spans around weibrec's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function at the place it is
imported and called from (for example ``weibrec.cli.sample_pivotal``,
not ``weibrec.gpq.sample_pivotal``), so the program's own code is never
edited.  Each call records a span: layer, function, start, end, parent
span and op id.  A new op starts at every span with no parent.  Spans
stay in memory until the run writes them out.

Spans are kept on one stack, so a traced pass must run on one thread.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from weibrec import cli, dataio, gpq, simulate


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = 0
    error: str = ""
    counts: dict = field(default_factory=dict)


def _source_bytes(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if os.path.exists(source):
        return {"dataio.bytes_in": os.path.getsize(source)}
    return {"dataio.bytes_in": len(source.encode())}


def _extract_counts(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"records.values_in": len(data), "records.records_out": len(result)}


def _fit_counts(args, kwargs, result):
    return {"weibull.fits": 1}


def _pivotal_roots(args, kwargs, result):
    m = args[3] if len(args) > 3 else kwargs["m"]
    return {"gpq.roots": 2 * m}


def _cell_roots(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"simulate.roots": 2 * config.reps * config.m}


def _words(args, kwargs, result):
    return {"rng.words": int(result.size)}


# (module, attribute, layer, counter).  Each module is the import site the
# program calls the function through.
SITES = (
    (cli, "main", "cli", None),
    (cli, "load_populations", "dataio", _source_bytes),
    (cli, "records_from_populations", "dataio", None),
    (cli, "populations_digest", "dataio", None),
    (dataio, "extract_upper_records", "records", _extract_counts),
    (cli, "mle_records", "weibull", _fit_counts),
    (cli, "pooled_mle", "weibull", _fit_counts),
    (cli, "shape_mle", "weibull", _fit_counts),
    (cli, "sample_pivotal", "gpq", _pivotal_roots),
    (cli, "percentile_interval", "gpq.order", None),
    (cli, "p_value_one_sided", "gpq.order", None),
    (cli, "p_value_two_sided", "gpq.order", None),
    (gpq, "exp_record_matrix", "rng", _words),
    (simulate, "run_cell", "simulate", _cell_roots),
    (simulate, "exp_record_matrix", "rng", _words),
    (simulate, "derive_seed_array", "rng", _words),
)

LAYERS = ("cli", "dataio", "records", "weibull", "gpq", "gpq.order",
          "simulate", "rng")


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    def _wrap(self, fn, layer, counter):
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self._ops += 1
            span = Span(layer, name, 0.0, parent=parent, op=self._ops)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if counter is not None:
                    span.counts = counter(args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced site for the duration of the block."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in SITES]
        try:
            for module, attr, layer, counter in SITES:
                setattr(module, attr,
                        self._wrap(getattr(module, attr), layer, counter))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> tuple[dict, dict]:
    """Self time per layer and summed counts over a list of spans.

    A span's self time is its duration minus that of its direct
    children; spans of one thread nest, so the children never overlap.
    Parent indices refer to positions in ``spans``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, int] = {}
    failed = 0
    for span, kids in zip(spans, child_time):
        self_s[span.layer] += (span.end - span.start) - kids
        for key, n in span.counts.items():
            counts[key] = counts.get(key, 0) + n
        if span.layer == "weibull" and span.error:
            failed += 1
    counts["weibull.fit_failed"] = failed
    return self_s, counts


def failed_ops_by_layer(spans: list[Span], failed_ops: list[int]) -> dict:
    """For each failed op (1-based op id), the layers whose spans raised."""
    out: dict[str, int] = {}
    for op in failed_ops:
        layers = sorted({s.layer for s in spans if s.op == op and s.error})
        key = "+".join(layers) if layers else "none (error exit)"
        out[key] = out.get(key, 0) + 1
    return out
