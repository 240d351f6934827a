"""One SHA-256 over 165 weibrec outputs, to check that a change moves no bit.

Usage: PYTHONPATH=src python3 tools/report_digest.py

It takes no options.  It imports whichever ``weibrec`` is on
``PYTHONPATH`` and prints that package's path, then the digest, so
``PYTHONPATH=<other checkout>/src`` hashes another tree's outputs with
the same inputs.  The outputs, each run in this process:

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

It runs for about ten seconds on a 2-vCPU Xeon.
"""

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

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


def command_lines():
    for seed in SEEDS:
        for threads in (1, 2):
            tail = ["--seed", str(seed), "--threads", str(threads)]
            for data, m in SERIES:
                for command in CI_COMMANDS:
                    yield command + ["--data", data, "--M", str(m)] + tail
            for cell in CELLS:
                yield ["simulate", "--cell", cell, "--M", "2000", "--N", "70"] + tail


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # The command reads the absolute path but is hashed with the relative
    # one, so every checkout of a tree prints one digest.
    shown = [DATA if arg == FLUID else arg for arg in argv]
    return f"{shown}\n{out.getvalue()}\n{err.getvalue()}\n{code}\n"


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


def main():
    print(weibrec.__file__)
    digest = hashlib.sha256()
    count = 0
    for count, output in enumerate(
            itertools.chain(map(run, command_lines()), cell_reports()), 1):
        digest.update(output.encode())
    print(f"{digest.hexdigest()}  ({count} outputs)")


if __name__ == "__main__":
    main()
