"""Two SHA-256 digests of weibrec outputs, to check a change moves no bit.

Usage: PYTHONPATH=src python3 tools/report_digest.py

It takes no options.  It imports whichever ``weibrec`` is on
``PYTHONPATH`` and prints that package's path, then the numpy version and
the fingerprint of its transcendental kernels (see
:func:`kernel_fingerprint`), then the digests, one a line, so
``PYTHONPATH=<other checkout>/src`` hashes another tree's outputs with
the same inputs.  Every output is run in this process, and a caller
that loads this file, as the tests do, reads the digests from
:func:`digests`, which leaves the process's environment as it was.
The digests
hold for one fingerprint: on x86-64 with numpy 2.4.6 the default AVX-512
path prints ``a4bac923...`` and
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` gives the
AVX2 path, ``cb35a43d...``, with other digests.

The first digest covers 165 outputs of the Monte Carlo paths:

- 120 command lines, each hashed as its argument list, with the data
  file as ``data/insulating_fluid.csv`` wherever the checkout lives, and
  its stdout, stderr and exit code:
  ``ci-ratio``, ``ci-diff``, ``test --pi0 1`` and ``test --pi0 1
  --sided greater`` on the insulating fluid at M = 1e5 and on three
  inline series at M = 20,000, and ``simulate --cell`` 3,3 / 7,7 /
  14,14 / 1,9 at M = 2000, N = 70; each at seeds 3, 42 and 2**63 + 5
  and ``--threads`` 1 and 2.
- 45 ``run_cell`` reports, as ``float.hex`` strings: cells (3, 3, 0.5),
  (7, 7, 1), (14, 14, 5), (1, 9, 1) and (40, 2, 1) (n1, n2, beta2, with
  beta1 = 1) at M = 2000, N = 70, seed 42, with a batch budget of 8,000,
  2**16 and 2**18 elements, on 1, 2 and 3 threads.

The second covers 284 outputs of the other commands, each hashed as the
first digest's command lines are, with the input files written to a
temporary directory whose path is hashed as ``TMP``:

- ``weibrec --help`` and each subcommand's ``--help``, at 80 columns;
- ``extract --data``, and ``mle`` and ``pooled-mle`` with ``--data`` and
  with ``--records``, each in JSON, CSV and text, on the insulating
  fluid, inline series, and wide CSV, long CSV and JSON files, some of
  them invalid, so that their error messages are hashed too;
- ``simulate`` text and CSV tables: the ``--grid`` at M = 40, N = 2, and
  ``--cell`` sets that vary only beta1, at M = 200, N = 20.

It runs for about six seconds on a 2-vCPU Xeon, the second digest's
outputs for under one of them.
"""

import contextlib
import hashlib
import io
import itertools
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import weibrec
from weibrec import cli, simulate

DATA = "data/insulating_fluid.csv"
FLUID = str(Path(__file__).resolve().parent.parent / DATA)
SERIES = [(FLUID, 100_000)] + [(inline, 20_000) for inline in (
    "a:1,1.0000000000000002,1.0000000000000004;b:1,2,3",
    "a:1e-300,1e300;b:1,2",
    "a:1e-320,1e-319;b:1,2,3",
)]
CI_COMMANDS = (["ci-ratio", "--gamma", "0.05"], ["ci-diff", "--gamma", "0.05"],
               ["test", "--pi0", "1"], ["test", "--pi0", "1", "--sided", "greater"])
CELLS = ("3,3,1.0,0.5", "7,7,1.0,1.0", "14,14,1.0,5.0", "1,9,1.0,1.0")
SEEDS = (3, 42, 2 ** 63 + 5)
RUN_CELLS = ((3, 3, 0.5), (7, 7, 1.0), (14, 14, 5.0), (1, 9, 1.0), (40, 2, 1.0))

SUBCOMMANDS = ("extract", "mle", "pooled-mle", "ci-ratio", "ci-diff", "test",
               "simulate")
# Input files of the second digest, by name: each is valid raw data, valid
# record data, both or neither.
FILES = {
    "wide.csv": "a,b\n1.5,0.4\n0.7,2.2\n3.1,\n2.9,5.0\n4.4,\n",
    "wide-records.csv": "x,y\n0.5,1.0\n1.1,1.8\n2.4,\n",
    "long.csv": ("population,value,order\na,1.5,1\nb,0.4,1\na,0.7,2\n"
                 "b,2.2,2\na,3.1,3\nb,5.0,3\n"),
    "long-unordered.csv": "population,value\na,1.0\na,2.0\nb,0.5\nb,3.0\n",
    "pops.json": '{"a": [1.5, 0.7, 3.1, 2.9], "b": [0.4, 2.2, 5.0]}',
    "list.json": ('[{"label": "a", "records": [0.5, 1.1, 2.4]},'
                  ' {"label": "b", "records": [1.0, 1.8]}]'),
    "one.json": '{"only": [1.0, 2.0, 4.0]}',
    "bad-number.csv": "a,b\n1.0,2.0\nx,3.0\n",
    "wide-row.csv": "a,b\n1.0,2.0,\n",
    "repeated.json": '{"a": [1.0, 2.0], "a": [3.0, 4.0]}',
    "nonpositive.json": '{"a": [1.0, -2.0], "b": [1.0, 2.0]}',
    "not-utf8.csv": "a,b\n1.0,2.0\n\udcff\n",
}
INLINE = ("a:1,3,2,5;b:2,1,4", "a:0.5,1.5,4.5;b:1,2,3;c:2,4,8",
          "a:1,-2;b:1,2", "a:")
TABLE_CELLS = (("3,3,0.5,2.0", "3,3,1.0,2.0", "7,7,0.5,2.0", "7,7,1.0,2.0"),
               ("3,7,1.0,2.0,1.5,0.5", "3,7,3.0,2.0,1.5,0.5",
                "14,3,2.0,2.0,1.5,0.5"))


def kernel_fingerprint():
    """SHA-256 of ``np.log``, ``np.log1p``, ``np.expm1`` and ``np.exp`` on
    a fixed probe, 4096 points in (0, 1], as little-endian float64.

    numpy picks these kernels by CPU when it is imported, and
    ``NPY_DISABLE_CPU_FEATURES`` can switch the faster ones off.  The
    kernels of two paths differ in the last bit of some results, and so
    do the reports built on them, so two trees' digests compare only
    under one fingerprint.
    """
    probe = np.arange(1, 4097) / 4096.0
    digest = hashlib.sha256()
    for kernel in (np.log, np.log1p, np.expm1, np.exp):
        digest.update(kernel(probe).astype("<f8").tobytes())
    return digest.hexdigest()


def command_lines():
    for seed in SEEDS:
        for threads in (1, 2):
            tail = ["--seed", str(seed), "--threads", str(threads)]
            for data, m in SERIES:
                for command in CI_COMMANDS:
                    yield command + ["--data", data, "--M", str(m)] + tail
            for cell in CELLS:
                yield ["simulate", "--cell", cell, "--M", "2000", "--N", "70"] + tail


def other_command_lines(tmp):
    yield ["--help"]
    for command in SUBCOMMANDS:
        yield [command, "--help"]
    sources = [FLUID, *INLINE, *(os.path.join(tmp, name) for name in FILES),
               os.path.join(tmp, "missing.csv")]
    for source in sources:
        for fmt in ("json", "csv", "text"):
            tail = [source, "--format", fmt]
            yield ["extract", "--data", *tail]
            for command in ("mle", "pooled-mle"):
                yield [command, "--data", *tail]
                yield [command, "--records", *tail]
    for fmt in ("text", "csv"):
        yield ["simulate", "--grid", "--M", "40", "--N", "2", "--seed", "7",
               "--format", fmt]
        for cells in TABLE_CELLS:
            yield ["simulate", *itertools.chain.from_iterable(
                       ("--cell", cell) for cell in cells),
                   "--M", "200", "--N", "20", "--seed", "11", "--format", fmt]


def run(argv, tmp=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help, and argparse's own errors
            code = exc.code
    # The command reads the absolute path but is hashed with the relative
    # one, so every checkout of a tree prints one digest.
    shown = [DATA if arg == FLUID else arg for arg in argv]
    output = f"{shown}\n{out.getvalue()}\n{err.getvalue()}\n{code}\n"
    return output if tmp is None else output.replace(tmp, "TMP")


def cell_reports():
    default = simulate._ELEMENT_BUDGET
    try:
        for budget in (8_000, 2 ** 16, 2 ** 18):
            simulate._ELEMENT_BUDGET = budget
            for n1, n2, beta2 in RUN_CELLS:
                config = simulate.SimConfig(n1=n1, n2=n2, beta1=1.0, beta2=beta2,
                                            m=2000, reps=70, seed=42)
                for threads in (1, 2, 3):
                    report = simulate.run_cell(config, threads=threads)
                    yield (f"{config} {budget} {threads} {report.coverage.hex()} "
                           f"{report.expected_length.hex()} "
                           f"{report.mc_se_coverage.hex()}\n")
    finally:
        simulate._ELEMENT_BUDGET = default


def other_outputs():
    # Help text wraps at the terminal's width, which COLUMNS overrides; the
    # caller's environment is restored once the outputs are read.
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8",
                      errors="surrogateescape") as fh:
                fh.write(text)
        for argv in other_command_lines(tmp):
            yield run(argv, tmp)


def digests():
    """Each digest, with the number of outputs it covers."""
    first = itertools.chain(map(run, command_lines()), cell_reports())
    for outputs in (first, other_outputs()):
        digest = hashlib.sha256()
        count = 0
        for count, output in enumerate(outputs, 1):
            digest.update(output.encode())
        yield digest.hexdigest(), count


def main():
    print(weibrec.__file__)
    print(f"numpy {np.__version__}, kernel fingerprint {kernel_fingerprint()}")
    for digest, count in digests():
        print(f"{digest}  ({count} outputs)")


if __name__ == "__main__":
    main()
