"""Input parsing: every text gives populations or a typed error."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weibrec import InvalidDataError, cli
from weibrec.dataio import load_populations, populations_digest


def _check(source: str) -> None:
    try:
        pops = load_populations(source)
    except InvalidDataError:
        return
    assert pops
    assert len({label for label, _ in pops}) == len(pops)
    for label, values in pops:
        assert isinstance(label, str)
        assert values.dtype == np.float64 and values.size > 0
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)


class TestTypedErrors:
    def test_integer_past_the_conversion_limit(self, tmp_path):
        path = tmp_path / "huger.json"
        path.write_text('{"a": [1, 1' + "0" * 5000 + '], "b": [1, 2]}')
        with pytest.raises(InvalidDataError, match="invalid JSON"):
            load_populations(str(path))

    def test_bad_byte_deep_in_a_file_gets_its_file_offset(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"1,\xff\n")
        with pytest.raises(InvalidDataError, match="byte 20006 "):
            load_populations(str(path))

    def test_directory_is_not_data(self, tmp_path):
        with pytest.raises(InvalidDataError, match="cannot read"):
            load_populations(str(tmp_path))

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InvalidDataError):
            load_populations(str(path))


class TestRepeatedLabels:
    """A label given twice is an error, never a population dropped."""

    @pytest.mark.parametrize("name, text", [
        ("dup.json", '{"a": [1, 2, 3], "a": [1, 5, 9], "b": [1, 2]}'),
        ("dup.json", '[{"label": "a", "values": [1, 2]}, '
                     '{"label": "b", "values": [1, 3]}, '
                     '{"label": "a", "records": [1, 4]}]'),
        ("dup.json", '{"populations": [{"label": "a", "records": [1, 2]}, '
                     '{"label": "a", "records": [1, 3]}]}'),
        ("dup.csv", "a,b,a\n1,2,3\n4,5,6\n"),
    ])
    def test_file(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InvalidDataError, match="label 'a'"):
            load_populations(str(path))

    def test_inline(self):
        with pytest.raises(InvalidDataError, match="label 'a'"):
            load_populations("a:1,2,3;b:1,2;a:1,5,9")

    def test_mle_exits_2_naming_the_label(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"a": [1, 2, 3], "a": [1, 5, 9], "b": [1, 2]}')
        assert cli.main(["mle", "--records", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'a'" in captured.err


class TestRepeatedColumns:
    """A long-CSV header names each column once, never a column dropped."""

    @pytest.mark.parametrize("text, column", [
        ("population,value,order,order\na,1,0,5\na,2,1,4\n", "order"),
        ("population,value,value\na,1,9\na,2,8\n", "value"),
        ("Population,value,POPULATION\na,1,b\na,2,b\n", "population"),
        ("population,value,note,Note\na,1,x,y\na,2,x,y\n", "note"),
    ])
    def test_rejected_naming_the_column(self, tmp_path, text, column):
        path = tmp_path / "long.csv"
        path.write_text(text)
        with pytest.raises(InvalidDataError,
                           match=f"column '{column}' is repeated"):
            load_populations(str(path))

    def test_blank_header_cells_name_no_column(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("population,value,,\na,1,,\na,2,,\n")
        [(label, values)] = load_populations(str(path), kind="records")
        assert label == "a" and values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("command, flag, text, column", [
        ("extract", "--data",
         "population,value,order,order\na,1,0,5\na,2,1,4\nb,1,0,0\nb,3,1,1\n",
         "order"),
        ("mle", "--records",
         "population,value,value\na,1,9\na,2,8\nb,1,1\nb,3,3\n", "value"),
    ])
    def test_command_exits_2_naming_the_column(self, tmp_path, capsys,
                                               command, flag, text, column):
        path = tmp_path / "long.csv"
        path.write_text(text)
        assert cli.main([command, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"column '{column}' is repeated" in captured.err


class TestNoKeyDropped:
    """Every key of a JSON input is read or rejected, never dropped."""

    POPS = ('[{"label": "a", "records": [1, 2, 3]}, '
            '{"label": "c", "records": [1, 4]}]')

    @pytest.mark.parametrize("text, key", [
        ('{"populations": %s, "b": [1, 5, 9]}' % POPS, "'b'"),
        ('{"schema": "weibrec-report/1", "populations": %s, "extra": 1}'
         % POPS, "'extra'"),
        ('[{"label": "a", "label": "b", "records": [1, 2, 3]}, '
         '{"label": "c", "records": [1, 4]}]', "'label'"),
        ('{"populations": [{"label": "a", "records": [1, 2], '
         '"records": [1, 3]}, {"label": "c", "records": [1, 4]}]}',
         "'records'"),
        ('{"populations": %s, "populations": []}' % POPS, "'populations'"),
        ('[{"label": "a", "values": [1, 2], "records": [1, 3]}, '
         '{"label": "c", "records": [1, 4]}]', "'records'"),
    ], ids=["beside-populations", "beside-report-keys", "entry-label-twice",
            "entry-records-twice", "populations-twice", "values-and-records"])
    def test_rejected_naming_the_key(self, tmp_path, text, key):
        path = tmp_path / "pops.json"
        path.write_text(text)
        with pytest.raises(InvalidDataError, match=key):
            load_populations(str(path))

    def test_mle_exits_2_on_a_key_beside_populations(self, tmp_path, capsys):
        path = tmp_path / "pops.json"
        path.write_text('{"populations": %s, "b": [1, 5, 9]}' % self.POPS)
        assert cli.main(["mle", "--records", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'b'" in captured.err

    def test_extract_report_round_trips(self, tmp_path, capsys):
        data = tmp_path / "raw.csv"
        data.write_text("a,b\n1,2\n3,1\n2,5\n7,6\n")
        report = tmp_path / "report.json"
        assert cli.main(["extract", "--data", str(data),
                         "--out", str(report)]) == 0
        pops = load_populations(str(report), kind="records")
        assert [label for label, _ in pops] == ["a", "b"]
        assert [list(v) for _, v in pops] == [[1.0, 3.0, 7.0], [2.0, 5.0, 6.0]]

    @pytest.mark.parametrize("doc", [
        {"p1": [1.0, 2.0], "p2": [3.0, 4.0]},
        [{"label": "p1", "values": [1.0, 2.0]},
         {"label": "p2", "values": [3.0, 4.0]}],
    ])
    def test_benchmark_json_forms_parse(self, tmp_path, doc):
        path = tmp_path / "pops.json"
        path.write_text(json.dumps(doc))
        pops = load_populations(str(path))
        assert [label for label, _ in pops] == ["p1", "p2"]


# Text built from the characters the parsers split on, after a wide or
# long CSV header, so that examples reach the CSV, JSON and inline
# grammars rather than stopping at the first character.
_GRAMMAR = st.builds(
    str.__add__,
    st.sampled_from(["", "a,b\n", "population,value\n",
                     "population,value,order\n"]),
    st.text(alphabet=st.sampled_from(list('0123456789.eE+-,:;{}[]"\n \tabnlt')),
            max_size=60),
)
_NUMBERS = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.integers(min_value=-10 ** 400, max_value=10 ** 400)),
    max_size=5,
)
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestAnyTextParses:
    @_PROPERTY
    @given(text=st.one_of(st.text(max_size=60), _GRAMMAR))
    def test_inline_text(self, text):
        _check(text)

    @_PROPERTY
    @given(data=st.one_of(st.binary(max_size=80),
                          _GRAMMAR.map(str.encode),
                          st.text(max_size=60).map(str.encode)),
           suffix=st.sampled_from([".csv", ".json", ".txt"]))
    def test_file_bytes(self, tmp_path, data, suffix):
        path = tmp_path / f"input{suffix}"
        path.write_bytes(data)
        _check(str(path))

    @_PROPERTY
    @given(pops=st.dictionaries(st.text(max_size=5), _NUMBERS, max_size=3))
    def test_json_documents(self, tmp_path, pops):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(pops))
        _check(str(path))


class TestRejectedInputs:
    """Each malformed input raises InvalidDataError with this message."""

    @pytest.mark.parametrize("name, text, message", [
        ("wide.csv", "a,b\n1,2\n3,4,5\n", "row 3: 3 cells but only 2 columns"),
        ("inf.csv", "a,b\n1,2\ninf,4\n",
         "row 3, column 'a': value must be finite, got 'inf'"),
        ("long.csv", "population,value,order\na,1,1\n ,2,2\n",
         "row 3, column 'population': empty label"),
        ("values.json", '{"a": 5, "b": [1, 2]}',
         "population 'a': values must be an array"),
        ("element.json", '{"a": [1, "x"], "b": [1, 2]}',
         "population 'a', index 1: not a number: 'x'"),
        ("neither.json", '[{"label": "a"}]',
         "populations[0]: needs a 'values' or 'records' array"),
        ("scalar.json", "5", "JSON input must be an object or an array"),
    ], ids=lambda v: v if v.endswith((".csv", ".json")) else "")
    def test_file(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InvalidDataError) as err:
            load_populations(str(path))
        assert str(err.value) == message

    def test_blank_long_csv_row_is_skipped(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("population,value,order\na,1,1\n,,\nb,2,1\na,3,2\n"
                        "b,5,2\n")
        pops = load_populations(str(path))
        assert [label for label, _ in pops] == ["a", "b"]
        assert [values.tolist() for _, values in pops] == [[1.0, 3.0],
                                                           [2.0, 5.0]]

    def test_unknown_kind(self):
        with pytest.raises(InvalidDataError) as err:
            load_populations("a:1,2", kind="bogus")
        assert str(err.value) == "unknown data kind 'bogus'"


def _mle_error(source: str, capsys) -> str:
    """The stderr of ``mle --records source``, which exits 2 and prints
    no report."""
    assert cli.main(["mle", "--records", source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestCommandErrors:
    """Inputs that exit 2 with this error line."""

    def test_duplicate_order_values(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("population,value,order\na,1,1\na,2,1\n")
        assert _mle_error(str(path), capsys) == (
            "error: population 'a': duplicate 'order' values\n")

    def test_json_entry_without_a_label(self, tmp_path, capsys):
        path = tmp_path / "pops.json"
        path.write_text('[{"values": [1, 2]}]')
        assert _mle_error(str(path), capsys) == (
            "error: populations[0]: expected an object with a 'label'\n")

    def test_records_that_decrease(self, capsys):
        assert _mle_error("a:3,2,1", capsys) == (
            "error: population 'a': record values must be strictly "
            "increasing\n")


def _no_label(i: int, label: str) -> str:
    return f"population {i}: label must be a non-empty string, got {label}"


class TestLabels:
    """Every population's label is a non-empty string, in every format."""

    @pytest.mark.parametrize("source, i", [
        (":1,2,3", 1), (" :1,2,3", 1), ("a:1,2,3;:1,5", 2),
    ], ids=["empty", "blank", "second-empty"])
    def test_inline(self, source, i, capsys):
        assert _mle_error(source, capsys) == (
            f"error: {source!r} is not an existing file, and as inline "
            f"data: {_no_label(i, repr(''))}\n")

    @pytest.mark.parametrize("text, i, label", [
        ('{"": [1, 2, 3]}', 1, "''"),
        ('{"a": [1, 2], "": [1, 2, 3]}', 2, "''"),
        ('[{"label": "", "values": [1, 2, 3]}]', 1, "''"),
        ('[{"label": null, "values": [1, 2, 3]}, '
         '{"label": 5, "values": [1, 2, 4]}]', 1, "None"),
        ('[{"label": "a", "values": [1, 2, 3]}, '
         '{"label": 5, "values": [1, 2, 4]}]', 2, "5"),
        ('{"populations": [{"label": ["a"], "records": [1, 2]}]}', 1,
         "['a']"),
    ], ids=["object-empty", "object-second-empty", "array-empty",
            "array-null", "array-number", "report-array"])
    def test_json(self, text, i, label, tmp_path, capsys):
        path = tmp_path / "pops.json"
        path.write_text(text)
        assert _mle_error(str(path), capsys) == f"error: {_no_label(i, label)}\n"


class TestLongCsvRowWidth:
    """A long-CSV row wider than its header is refused, as in wide CSV."""

    @pytest.mark.parametrize("text, message", [
        ("population,value\na,1\na,2,zzz\n",
         "row 3: 3 cells but only 2 columns"),
        ("population,value\na,1\na,2,\n", "row 3: 3 cells but only 2 columns"),
        ("population,value,order\na,1,1\na,2,2,9,9\n",
         "row 3: 5 cells but only 3 columns"),
    ], ids=["extra-cell", "blank-extra-cell", "two-extra-cells"])
    def test_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "long.csv"
        path.write_text(text)
        with pytest.raises(InvalidDataError) as err:
            load_populations(str(path), kind="records")
        assert str(err.value) == message
        assert _mle_error(str(path), capsys) == f"error: {message}\n"


class TestCsvLineNumbers:
    """A CSV error names the file line its row ends on, blank lines
    counted."""

    @pytest.mark.parametrize("text, message", [
        ("population,value\n\na,1\na,x\n",
         "row 4, column 'value': not a number: 'x'"),
        ("a,b\n\n1,2\n3,x\n", "row 4, column 'b': not a number: 'x'"),
        ("\n\n,b\n1,2\n", "row 3: wide CSV header has an empty label"),
        ("a,b\n1,2\n\n\n3,4,5\n", "row 5: 3 cells but only 2 columns"),
        ("a,b\r\n1,2\x0c\r\n3,x\r\n", "row 3, column 'b': not a number: 'x'"),
        ('a,b\n"1\n",2\n3,x\n', "row 4, column 'b': not a number: 'x'"),
    ], ids=["long", "wide", "wide-header", "wide-width", "form-feed",
            "quoted-line-break"])
    def test_error_names_the_file_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "pops.csv"
        path.write_text(text)
        with pytest.raises(InvalidDataError) as err:
            load_populations(str(path), kind="records")
        assert str(err.value) == message
        assert _mle_error(str(path), capsys) == f"error: {message}\n"


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark parses as the same
    file without it."""

    @pytest.mark.parametrize("name, text", [
        ("long.csv", "population,value\na,1\na,2\nb,1\nb,3\n"),
        ("wide.csv", "a,b\n1,1\n2,3\n"),
        ("pops.json", '{"a": [1, 2], "b": [1, 3]}'),
        ("pops.csv", '[{"label": "a", "records": [1, 2]}, '
                     '{"label": "b", "records": [1, 3]}]'),
    ], ids=["long-csv", "wide-csv", "json", "json-by-content"])
    def test_parses_as_written(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        pops = load_populations(str(path), kind="records")
        assert [label for label, _ in pops] == ["a", "b"]
        assert [v.tolist() for _, v in pops] == [[1.0, 2.0], [1.0, 3.0]]

    def test_bad_byte_keeps_its_file_offset(self, tmp_path):
        # The mark's three bytes count: this is byte 7 of the file.
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n\xff,2\n")
        with pytest.raises(InvalidDataError, match=r"byte 7 \(b'\\xff'\)"):
            load_populations(str(path))


class TestJsonLabelsStripped:
    """JSON labels are stripped, as CSV and inline labels are."""

    @pytest.mark.parametrize("text, message", [
        ('{" a": [1, 2, 3], "a": [1, 2, 4]}',
         "population label 'a' is repeated"),
        ('{" ": [1, 2, 3]}',
         "population 1: label must be a non-empty string, got ''"),
        ('[{"label": "a", "values": [1, 2]}, '
         '{"label": "a\\t", "values": [1, 3]}]',
         "population label 'a' is repeated"),
    ], ids=["padded-twin", "blank", "array-tab"])
    def test_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "pops.json"
        path.write_text(text)
        assert _mle_error(str(path), capsys) == f"error: {message}\n"

    def test_padded_label_is_the_csv_label(self, tmp_path):
        json_path, csv_path = tmp_path / "pops.json", tmp_path / "pops.csv"
        json_path.write_text('{" a ": [1, 2], "b": [1, 3]}')
        csv_path.write_text(" a ,b\n1,1\n2,3\n")
        from_json = load_populations(str(json_path), kind="records")
        from_csv = load_populations(str(csv_path), kind="records")
        assert [label for label, _ in from_json] == ["a", "b"]
        assert populations_digest(from_json) == populations_digest(from_csv)


class TestJsonErrorsNameTheFile:
    @pytest.mark.parametrize("text, reason", [
        ("[{", "Expecting property name enclosed in double quotes: line 1 "
               "column 3 (char 2)"),
        ("[" * 100_000 + "]" * 100_000,
         "arrays or objects are nested too deeply"),
    ], ids=["syntax", "nested"])
    def test_data_file(self, tmp_path, capsys, text, reason):
        path = tmp_path / "pops.json"
        path.write_text(text)
        assert _mle_error(str(path), capsys) == (
            f"error: {str(path)!r}: invalid JSON: {reason}\n")


class TestBracketedCsvHeader:
    """A file not named ``.json`` that starts with a bracket is read as
    JSON, and as CSV where it is not JSON, so a wide CSV's first label
    may start with a bracket."""

    @pytest.mark.parametrize("text, pops", [
        ("[34kV],[36kV]\n0.96,1.97\n4.15,0.59\n8.01,2.58\n",
         [("[34kV]", [0.96, 4.15, 8.01]), ("[36kV]", [1.97, 0.59, 2.58])]),
        ("{a},b\n1,2\n3,1\n", [("{a}", [1.0, 3.0]), ("b", [2.0, 1.0])]),
    ], ids=["square", "brace"])
    def test_loads_as_wide_csv(self, tmp_path, text, pops):
        path = tmp_path / "fluid.csv"
        path.write_text(text)
        got = load_populations(str(path))
        assert [(label, v.tolist()) for label, v in got] == pops

    def test_error_names_both_readings(self, tmp_path, capsys):
        path = tmp_path / "pops.csv"
        path.write_text("[a],b\n1,x\n")
        assert _mle_error(str(path), capsys) == (
            f"error: {str(path)!r}: invalid JSON: Expecting value: line 1 "
            f"column 2 (char 1), and as CSV: row 2, column 'b': not a "
            f"number: 'x'\n")


@pytest.mark.parametrize("source, message", [
    ("population,value,order\na,1,x\n",
     "row 2, column 'order': not a number: 'x'"),
    ("population,value,order\na,1,inf\n",
     "row 2, column 'order': value must be finite, got 'inf'"),
    ("a,b\n1,-2\n", "row 2, column 'b': observations must be positive, "
                     "got '-2'"),
    ("a,{0}\n1,x\n", "row 2, column '{0}': not a number: 'x'"),
    ("{x}:1,-2;b:1,2", "'{x}:1,-2;b:1,2' is not an existing file, and as "
                       "inline data: inline population '{x}': observations "
                       "must be positive, got '-2'"),
], ids=["order-not-a-number", "order-infinite", "wide-negative",
        "braced-label", "braced-inline-label"])
def test_number_errors_name_their_place(tmp_path, source, message):
    if "\n" in source:
        path = tmp_path / "pops.csv"
        path.write_text(source)
        source = str(path)
    with pytest.raises(InvalidDataError) as info:
        load_populations(source)
    assert str(info.value) == message


def _simulate(path, capsys) -> tuple[int, str, str]:
    """``simulate --config path`` on tiny cells: its exit code, stdout and
    stderr."""
    code = cli.main(["simulate", "--config", str(path), "--M", "40",
                     "--N", "2", "--seed", "1"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CELL = '{"n1": 3, "n2": 3, "beta1": 1.0, "beta2": 2.0}'


class TestConfigFiles:
    """A config file is read and checked as a data file is."""

    @pytest.mark.parametrize("data, message", [
        (b'[{"n1": 3, \xff}]', "{path} is not UTF-8 text: byte 11 "
                               "(b'\\xff') cannot be decoded"),
        (b"[" * 100_000 + b"]" * 100_000,
         "{path}: invalid JSON: arrays or objects are nested too deeply"),
        (b'[{"n1": 1' + b"0" * 5000 + b"}]",
         "{path}: invalid JSON: Exceeds the limit (4300 digits) for integer "
         "string conversion: value has 5001 digits; use "
         "sys.set_int_max_str_digits() to increase the limit"),
        (b'[{"n1": 3, "n1": 5, "n2": 3, "beta1": 1.0, "beta2": 2.0}]',
         "{path}: cells[0]: key 'n1' is repeated"),
        (b'{"cells": [%s], "m": 5}' % _CELL.encode(),
         "{path}: unknown keys ['m'] (a config object has only a 'cells' "
         "array)"),
        (b'{"cells": [%s], "cells": [%s]}' % (_CELL.encode(), _CELL.encode()),
         "{path}: key 'cells' is repeated"),
    ], ids=["not-utf8", "nested", "huge-integer", "repeated-key",
            "key-beside-cells", "cells-twice"])
    def test_rejected(self, tmp_path, capsys, data, message):
        path = tmp_path / "cells.json"
        path.write_bytes(data)
        code, out, err = _simulate(path, capsys)
        assert (code, out) == (2, "")
        assert err == "error: " + message.format(path=repr(str(path))) + "\n"

    def test_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "cells.json"
        path.write_bytes(b"\xef\xbb\xbf[%s]" % _CELL.encode())
        code, out, _ = _simulate(path, capsys)
        assert code == 0
        [row] = json.loads(out)["cells"]
        assert (row["n1"], row["m"], row["reps"]) == (3, 40, 2)


# Config-like text: a cell's opening keys or none, then JSON tokens, then
# a closing; and config documents whose cells are the small cell with
# other keys set.  Neither sets a size key (n1, n2, m, reps) beyond the
# small cell's n1 = n2 = 3, so that no example asks for more than two
# small cells.
_CONFIG_TEXT = st.builds(
    lambda head, body, tail: head + "".join(body) + tail,
    st.sampled_from(["", "[", '{"cells": [', "[" + _CELL[:-1],
                     '{"cells": [' + _CELL[:-1]]),
    st.lists(st.sampled_from([
        ", ", ": ", "{", "}", "[", "]", '"', '"beta1"', '"alpha2"',
        '"gamma"', '"seed"', '"cells"', '"x"', "1", "0.3", "-1", "1e400",
        "2" * 30, "true", "null", "\\u00ff", "\ufeff", "\x00", " ",
    ]), max_size=12),
    st.sampled_from(["", "}", "}]", "]", "}]}", "]}"]),
)
_VALUE = st.one_of(st.floats(min_value=0.05, max_value=0.95),
                   st.integers(min_value=0, max_value=5), st.floats(),
                   st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                   st.none(), st.booleans(), st.text(max_size=3))
_KEYS = st.sampled_from(["beta1", "beta2", "alpha1", "alpha2", "gamma",
                         "seed", "x"])
_ENTRY = st.dictionaries(_KEYS, _VALUE, max_size=2).map(
    lambda keys: {**json.loads(_CELL), **keys})
# Two cells in three are objects.
_CELLS = st.lists(st.one_of(_ENTRY, _ENTRY, _VALUE), max_size=2)
_CONFIG_DOC = st.one_of(
    _CELLS, st.builds(lambda cells: {"cells": cells}, _CELLS),
    st.dictionaries(st.sampled_from(["cells", "x"]), _CELLS, max_size=2),
).map(json.dumps)


class TestAnyConfigRuns:
    """Every config file runs, or exits 2 with one error line."""

    @_PROPERTY
    @given(data=st.one_of(st.binary(max_size=80),
                          _CONFIG_TEXT.map(str.encode),
                          _CONFIG_DOC.map(str.encode)))
    def test_file_bytes(self, tmp_path, capsys, data):
        path = tmp_path / "cells.json"
        path.write_bytes(data)
        code, _, err = _simulate(path, capsys)
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
