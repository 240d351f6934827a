"""Input parsing and data fingerprinting for the command line.

Accepted population data, either raw observation sequences or
pre-extracted record values:

* wide CSV: header row of population labels, one column per population
  (columns may have different lengths; blank cells are skipped);
* long CSV: columns ``population`` and ``value``, plus ``order`` giving
  the observation position (required for raw sequences, where record
  extraction depends on observation order);
* JSON: an object mapping labels to arrays, an array of objects with
  ``label`` and ``values`` (or ``records``), or a report emitted by the
  ``extract`` command (its ``populations`` list round-trips as input).
  No key is dropped: a key given twice in one object, a top-level key
  that an ``extract`` report does not carry, or an entry with both
  ``values`` and ``records`` is an error;
* inline: ``label:v1,v2,...;label2:...`` directly on the command line.

A file named ``*.json`` is JSON.  Any other file is CSV, unless its text
starts with a bracket: it is then read as JSON, and as CSV where it is
not valid JSON, since a wide CSV's first label may start with one.

Every population's label is a non-empty string, stripped of surrounding
whitespace in every format, and a CSV row has no more cells than its
header.  Parse failures carry row/column (or label/index) diagnostics; a
CSV row is named by the file line it ends on.

:func:`read_text` is the one reader of input files, these and the
``simulate --config`` cells alike: it decodes UTF-8 and drops a leading
byte-order mark.  :func:`parse_json` is the one JSON parser of input; its
objects keep their pairs, so that a repeated key can be refused, and its
errors name the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidDataError
from .records import RecordSeries, extract_upper_records

Populations = list[tuple[str, NDArray[np.float64]]]


def _parse_number(text: str, positive: bool, where: str, *args) -> float:
    """``text`` as a finite float, and above zero if ``positive``.

    An error names its place, ``where.format(*args)``, which is built
    only then: labels go in ``args``, so a brace in one is never read as
    a field.
    """
    try:
        value = float(text)
    except ValueError:
        raise InvalidDataError(
            f"{where.format(*args)}: not a number: {text!r}") from None
    if not np.isfinite(value):
        raise InvalidDataError(
            f"{where.format(*args)}: value must be finite, got {text!r}")
    if positive and value <= 0.0:
        raise InvalidDataError(f"{where.format(*args)}: observations must "
                               f"be positive, got {text!r}")
    return value


def _finish(pops: Populations) -> Populations:
    if not pops:
        raise InvalidDataError("no populations found in input")
    seen = set()
    for i, (label, values) in enumerate(pops, start=1):
        if not isinstance(label, str) or not label:
            raise InvalidDataError(f"population {i}: label must be a "
                                   f"non-empty string, got {label!r}")
        if label in seen:
            raise InvalidDataError(f"population label {label!r} is repeated")
        seen.add(label)
        if values.size == 0:
            raise InvalidDataError(f"population {label!r} has no values")
    return pops


def _check_width(i: int, row: list[str], header: list[str]) -> None:
    """Refuse row ``i`` if it has more cells than ``header``, even blank ones."""
    if len(row) > len(header):
        raise InvalidDataError(
            f"row {i}: {len(row)} cells but only {len(header)} columns"
        )


def _parse_wide_csv(header: list[str], rows) -> Populations:
    header = [cell.strip() for cell in header]
    if any(not cell for cell in header):
        raise InvalidDataError(
            f"row {rows.line_num}: wide CSV header has an empty label")
    columns: list[list[float]] = [[] for _ in header]
    for row in rows:
        i = rows.line_num
        _check_width(i, row, header)
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            columns[j].append(_parse_number(cell, True, "row {}, column {!r}",
                                            i, header[j]))
    return _finish([
        (label, np.asarray(col, dtype=np.float64))
        for label, col in zip(header, columns)
    ])


def _parse_long_csv(header: list[str], rows, kind: str) -> Populations:
    header = [cell.strip().lower() for cell in header]
    idx: dict[str, int] = {}
    for i, name in enumerate(header):
        if name and name in idx:
            raise InvalidDataError(f"header: column {name!r} is repeated")
        idx[name] = i
    has_order = "order" in idx
    if kind == "raw" and not has_order:
        raise InvalidDataError(
            "long-format raw sequences need an 'order' column: record "
            "extraction depends on observation order"
        )
    by_label: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if not any(cell.strip() for cell in row):
            continue
        i = rows.line_num
        if len(row) < len(header):
            raise InvalidDataError(f"row {i}: expected {len(header)} cells")
        _check_width(i, row, header)
        label = row[idx["population"]].strip()
        if not label:
            raise InvalidDataError(f"row {i}, column 'population': empty label")
        value = _parse_number(row[idx["value"]].strip(), True,
                              "row {}, column 'value'", i)
        order = _parse_number(row[idx["order"]].strip(), False,
                              "row {}, column 'order'", i) if has_order \
            else float(len(by_label.get(label, [])))
        by_label.setdefault(label, []).append((order, value))
    pops: Populations = []
    for label, pairs in by_label.items():
        orders = [o for o, _ in pairs]
        if len(set(orders)) != len(orders):
            raise InvalidDataError(
                f"population {label!r}: duplicate 'order' values"
            )
        pairs.sort(key=lambda p: p[0])
        pops.append((label, np.asarray([v for _, v in pairs],
                                       dtype=np.float64)))
    return _finish(pops)


def _parse_csv(text: str, kind: str) -> Populations:
    """Parse CSV ``text``, whose lines end in ``\\n`` alone (see
    :func:`read_text`).  The parsers take the header and the reader past
    it, and name a row by the reader's ``line_num``, the file line the
    row ends on."""
    rows = csv.reader(text.split("\n"))
    header = next(filter(None, rows), None)
    if header is None:
        raise InvalidDataError("empty CSV input")
    if {"population", "value"} <= {cell.strip().lower() for cell in header}:
        return _parse_long_csv(header, rows, kind)
    return _parse_wide_csv(header, rows)


def _values_from_json(label, values) -> tuple[object, NDArray[np.float64]]:
    """``label``, stripped if a string (``_finish`` checks it), and its
    values as floats."""
    if isinstance(label, str):
        label = label.strip()
    if not isinstance(values, (list, tuple)):
        raise InvalidDataError(f"population {label!r}: values must be an array")
    out = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InvalidDataError(
                f"population {label!r}, index {i}: not a number: {v!r}"
            )
        try:
            x = float(v)
        except OverflowError:
            raise InvalidDataError(
                f"population {label!r}, index {i}: integer is outside "
                f"the float range"
            ) from None
        if not np.isfinite(x) or x <= 0.0:
            raise InvalidDataError(
                f"population {label!r}, index {i}: value must be "
                f"positive and finite, got {v!r}"
            )
        out.append(x)
    return label, np.asarray(out, dtype=np.float64)


class _Object(dict):
    """A JSON object that also keeps its pairs, a repeated key included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def check_unique(self, where: str) -> None:
        """Reject a key given twice, which would keep only its last value."""
        if len(self) != len(self.pairs):
            seen = set()
            for key, _ in self.pairs:
                if key in seen:
                    raise InvalidDataError(f"{where}: key {key!r} is repeated")
                seen.add(key)


# The top-level keys of an ``extract`` report, which round-trips as input.
_REPORT_KEYS = frozenset(("schema", "version", "command", "data_digest",
                          "populations"))


def read_text(path: str) -> str:
    """The text of the input file at ``path``, decoded as UTF-8, with every
    line end read as ``\\n``."""
    try:
        with open(path, encoding="utf-8") as fh:
            # A spreadsheet's byte-order mark is not part of the data.
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InvalidDataError(
            f"{path!r} is not UTF-8 text: byte {exc.start} "
            f"({exc.object[exc.start:exc.start + 1]!r}) cannot be decoded"
        ) from None
    except OSError as exc:
        raise InvalidDataError(f"cannot read {path!r}: {exc}") from None


def parse_json(text: str, where: str):
    """The JSON document in ``text``, each object an ``_Object``.

    Errors name ``where``, the file the text came from.
    """
    try:
        return json.loads(text, object_pairs_hook=_Object)
    except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
        raise InvalidDataError(f"{where}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InvalidDataError(f"{where}: invalid JSON: arrays or objects "
                               f"are nested too deeply") from None


def _json_populations(doc) -> Populations:
    if isinstance(doc, dict) and "populations" in doc:
        doc.check_unique("JSON report")
        for key in doc:
            if key not in _REPORT_KEYS:
                raise InvalidDataError(
                    f"JSON report: unexpected key {key!r} beside "
                    f"'populations' (an extract report has only "
                    f"{', '.join(sorted(_REPORT_KEYS))})")
        doc = doc["populations"]
    pops: Populations = []
    if isinstance(doc, dict):
        for label, values in doc.pairs:
            pops.append(_values_from_json(label, values))
    elif isinstance(doc, list):
        for i, entry in enumerate(doc):
            if not isinstance(entry, dict) or "label" not in entry:
                raise InvalidDataError(
                    f"populations[{i}]: expected an object with a 'label'"
                )
            entry.check_unique(f"populations[{i}]")
            if "values" in entry and "records" in entry:
                raise InvalidDataError(
                    f"populations[{i}]: has both a 'values' and a 'records' "
                    f"key; give one")
            values = entry.get("values", entry.get("records"))
            if values is None:
                raise InvalidDataError(
                    f"populations[{i}]: needs a 'values' or 'records' array"
                )
            pops.append(_values_from_json(entry["label"], values))
    else:
        raise InvalidDataError("JSON input must be an object or an array")
    return _finish(pops)


def _parse_inline(text: str) -> Populations:
    pops: Populations = []
    for i, part in enumerate(filter(None, text.split(";")), start=1):
        label, sep, body = part.partition(":")
        if not sep:
            label, body = f"pop{i}", part
        label = label.strip()
        values = [
            _parse_number(tok.strip(), True, "inline population {!r}", label)
            for tok in body.split(",") if tok.strip()
        ]
        pops.append((label, np.asarray(values, dtype=np.float64)))
    return _finish(pops)


def load_populations(source: str, kind: str = "raw") -> Populations:
    """Read labeled population sequences from a file or inline text.

    ``kind`` is ``raw`` for observation sequences or ``records`` for
    pre-extracted record values; it only affects format requirements
    (raw long-format CSV must carry an ``order`` column).
    """
    if kind not in ("raw", "records"):
        raise InvalidDataError(f"unknown data kind {kind!r}")
    if os.path.exists(source):
        text = read_text(source)
        if source.lower().endswith(".json"):
            return _json_populations(parse_json(text, repr(source)))
        if not text.lstrip().startswith(("{", "[")):
            return _parse_csv(text, kind)
        # A wide CSV's first label may start with a bracket too.
        try:
            doc = parse_json(text, repr(source))
        except InvalidDataError as exc:
            try:
                return _parse_csv(text, kind)
            except InvalidDataError as csv_exc:
                raise InvalidDataError(f"{exc}, and as CSV: {csv_exc}") from None
        return _json_populations(doc)
    if any(ch in source for ch in ":;,"):
        try:
            return _parse_inline(source)
        except InvalidDataError as exc:
            raise InvalidDataError(
                f"{source!r} is not an existing file, and as inline data: {exc}"
            ) from None
    raise InvalidDataError(
        f"{source!r} is neither an existing file nor inline data "
        f"(label:v1,v2,...;...)"
    )


def records_from_populations(populations: Populations,
                             kind: str) -> list[RecordSeries]:
    """Convert parsed populations to validated record series."""
    out = []
    for label, values in populations:
        try:
            if kind == "raw":
                out.append(extract_upper_records(values, label=label))
            else:
                out.append(RecordSeries(values, label=label))
        except InvalidDataError as exc:
            raise InvalidDataError(f"population {label!r}: {exc}") from None
    return out


def populations_digest(populations: Populations) -> str:
    """Order-sensitive SHA-256 fingerprint of the parsed input."""
    h = hashlib.sha256()
    for label, values in populations:
        line = label + ":" + ",".join(repr(float(v)) for v in values) + "\n"
        h.update(line.encode())
    return h.hexdigest()
