"""Reports pinned to the bit.

Each value below is a ``float.hex`` literal or a SHA-256 of float64
bytes, and every refactor of the pivot path has to reproduce it exactly.
A change that moves roots on purpose updates these literals and lists the
reports that moved.  The interval, p-value and ``run_cell`` literals were
recorded when the pivot targets came to be drawn from k - 1 uniforms; the
simulated-record digests when those records came to be drawn through
``rng.uniforms``; the others date from before the record-major solver
layout.

The bits also depend on the numpy build and on the SIMD kernels it picks
for ``log``, ``log1p``, ``expm1`` and ``exp``, which differ in the last
bit between paths.  The literals in the tests are those of numpy 2.4.6's
AVX-512 path on x86-64; ``_PATHS`` holds, for each kernel fingerprint
that ``tools/report_digest.py`` computes, the literals that differ on that
path.  A process whose fingerprint is not in ``_PATHS`` fails every test
here, naming its fingerprint.  The last tests run
``tools/report_digest.py`` in this process and hold both of its digests,
which cover every report, error and help text it runs, to their
literals.
"""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from weibrec import cli, gpq, records, rng, simulate
from weibrec.datasets import INSULATING_FLUID

ROOT = Path(__file__).resolve().parent.parent
DATA = str(ROOT / "data" / "insulating_fluid.csv")


def _load_report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


REPORT_DIGEST = _load_report_digest()
KERNELS = REPORT_DIGEST.kernel_fingerprint()
# numpy 2.4.6 on x86-64: the default AVX-512 path, and the AVX2 path that
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" selects.
AVX512 = "a4bac923656e06d1a5baf010f6f111cb449dc0fd44d1a82b0fddce69179a9245"
AVX2 = "cb35a43d26b3a2687e6ba74c40df8674270a7280268c0262857fba7e016f88f5"
# Each path's literals that differ from the AVX-512 ones in the tests.
_PATHS = {
    AVX512: {},
    AVX2: {
        "0x1.0454464938d7cp-2": "0x1.0454464938d7dp-2",
        "0x1.36258ed6cb48cp+2": "0x1.36258ed6cb48ap+2",
        "-0x1.5876678bbd6f4p-1": "-0x1.5876678bbd6f2p-1",
        "0x1.37451af26afecp-1": "0x1.37451af26afeap-1",
        "0x1.8255c899cd66ep+7": "0x1.8255c899cd66cp+7",
        "0x1.47ab4a50cc777p+1": "0x1.47ab4a50cc775p+1",
        "0x1.19e66eb288032p+3": "0x1.19e66eb288030p+3",
        "0x1.5f93907840002p-1": "0x1.5f9390783fffep-1",
        "65f9d3073ec7535c6c53e546cb70985ab9efaa1a528fa48281753915d5a18515":
            "7c5ae33bb55128105918caca88bf33fae003c036e7d17ca067a4119a8aa4f8f2",
        "553f9fe60974b379e40ee52be0033a768d06d412f82e11be8456ef215b6a9eeb":
            "1332d7bf36c13d0e93dc55f250f59a534384c4cc863e56da0586344076f5fbd1",
        "d8e79380a2826fca62c9b6449b8c51f90fd91196f362227b693744fc2faa5129":
            "69629467fa482e1700cd9c90b54528dca8f3ef7fbb53a225d9b905e57124b43d",
        "62acd9c8d022566ba03926d3bcb6f07eff2b94e6ec39d15b906a57413309e6b3":
            "96347685c037df2ab8a6909657ca41ad57cace6b0e55beee49387f5dfb754c3a",
        "967c726787324eb0edee518896f30e507afa0ec04bb1fa4ac67e3d0b96bd0abf":
            "3092cdbf1cd91b6e53cb13715127da59b73a0045418317de4f4b5ad18d5b6b1a",
        "ba5fce623fa9c98b5e5de91e02c3dabf0273879d649df26a967ac8c02c994bc4":
            "0fa5f5a67556c6cd23d4cfa47f2518ec53a7b1dc49f806850567f10df60ad0df",
        "f48d541902f615e6e20ec6055b6a199452d95e269185dbaaa609a229e27565b0":
            "4cd7d1590d009e501eed5f351c7959ad8e16032a623e4efc9dc217bf87e85355",
    },
}


def _pinned(literal):
    """``literal``, recorded on the AVX-512 path, as this path records it."""
    assert KERNELS in _PATHS, (
        f"no literals are recorded for numpy kernel fingerprint {KERNELS}")
    return _PATHS[KERNELS].get(literal, literal)


def _report(args, capsys):
    assert cli.main(args + ["--data", DATA, "--M", "4000", "--seed", "20141"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("args, lower, upper", [
    (["ci-ratio", "--gamma", "0.05"],
     "0x1.0454464938d7cp-2", "0x1.36258ed6cb48cp+2"),
    (["ci-diff", "--gamma", "0.1"],
     "-0x1.5876678bbd6f4p-1", "0x1.37451af26afecp-1"),
], ids=["ci-ratio", "ci-diff"])
def test_interval_endpoints(args, lower, upper, capsys):
    interval = _report(args, capsys)["interval"]
    for got, literal in ((interval["lower"], lower), (interval["upper"], upper)):
        assert float(got).hex() == float.fromhex(_pinned(literal)).hex()


def test_p_value(capsys):
    report = _report(["test", "--pi0", "2.5"], capsys)
    assert float(report["p_value"]).hex() == _pinned("0x1.d810624dd2f1bp-3")


@pytest.mark.parametrize("n1, n2, coverage, length", [
    (1, 1, "0x1.ddddddddddddep-1", "0x1.8255c899cd66ep+7"),
    (7, 7, "0x1.bbbbbbbbbbbbcp-1", "0x1.47ab4a50cc777p+1"),
    (15, 15, "0x1.eeeeeeeeeeeefp-1", "0x1.55f03ea5de47bp+0"),
    (1, 15, "0x1.0000000000000p+0", "0x1.19e66eb288032p+3"),
], ids=["1-1", "7-7", "15-15", "1-15"])
def test_run_cell(n1, n2, coverage, length):
    report = simulate.run_cell(simulate.SimConfig(
        n1=n1, n2=n2, beta1=1.5, beta2=2.0, m=400, reps=30, seed=77))
    assert report.coverage.hex() == _pinned(coverage)
    assert report.expected_length.hex() == _pinned(length)


def test_solve_shape_pivot_k10():
    observed = records.exponential_records(9, 20141, 0)
    target = records.exponential_records(9, 20141, 1)
    assert (gpq.solve_shape_pivot(observed, target).hex()
            == _pinned("0x1.5f93907840002p-1"))


@pytest.mark.parametrize("beta, ratio", [
    (1e-5, "0x1.000000006e880p+0"),
    (1.0, "0x1.f5cec64417079p+0"),
    (30.0, "0x1.5d1557c535d83p+69"),
])
def test_am_gm_ratio_kv34(beta, ratio):
    # Recorded once am_gm_ratio evaluated log W as the root solve does.
    series = records.extract_upper_records(INSULATING_FLUID["kv34"])
    assert gpq.am_gm_ratio(series, beta).hex() == _pinned(ratio)


_SEEDS = rng.derive_seed_array(5, np.arange(3))
_SHAPES = {
    "scalar": (20141, 3),
    "vector": (20141, np.arange(64, dtype=np.uint64)),
    "outer": (_SEEDS[:, None], np.arange(5, dtype=np.uint64)[None, :]),
}


@pytest.mark.parametrize("k, shape, digest", [
    (2, "scalar", "c8ebefa4bd68da3f0c009bd78ac571a9476b55423aceff3cafc325602a2b76aa"),
    (2, "vector", "65f9d3073ec7535c6c53e546cb70985ab9efaa1a528fa48281753915d5a18515"),
    (2, "outer", "040adac3b7ad4aa5cd06c984b508504de33c7506b2d2ee44f5bee8e9530f4989"),
    (7, "scalar", "d59297e60a36a01e0420cfd47241de1f9a534d1c0b786912eaff75b016fff247"),
    (7, "vector", "553f9fe60974b379e40ee52be0033a768d06d412f82e11be8456ef215b6a9eeb"),
    (7, "outer", "d8e79380a2826fca62c9b6449b8c51f90fd91196f362227b693744fc2faa5129"),
    (16, "scalar", "a3a772838adb51066937f6c4a489b2916f8c3979f3871050c5c594efb5b2c7bb"),
    (16, "vector", "62acd9c8d022566ba03926d3bcb6f07eff2b94e6ec39d15b906a57413309e6b3"),
    (16, "outer", "967c726787324eb0edee518896f30e507afa0ec04bb1fa4ac67e3d0b96bd0abf"),
])
def test_exp_record_matrix(k, shape, digest):
    # The simulated data series of every replicate; little-endian float64.
    seed, ids = _SHAPES[shape]
    rows = rng.exp_record_matrix(seed, ids, k)
    assert rows.shape == (k,) + np.broadcast(seed, np.atleast_1d(ids)).shape
    assert (hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
            == _pinned(digest))


def test_exp_record_matrix_at_the_word_that_maps_to_one(monkeypatch):
    # Every word 2**64 - 1 maps to 1.0; its record is clamped to 53 log 2.
    def saturated(z, scratch=None):
        z = z.copy() if scratch is None else z
        z[...] = np.uint64(2 ** 64 - 1)
        return z

    monkeypatch.setattr(rng, "mix64", saturated)
    rows = rng.exp_record_matrix(3, np.arange(4, dtype=np.uint64), 3)
    want = ["0x1.25e4f7b2737fap+5", "0x1.25e4f7b2737fap+6", "0x1.b8d7738bad3f7p+6"]
    assert [[float(v).hex() for v in row] for row in rows] == [
        [_pinned(w)] * 4 for w in want]


def test_report_digests():
    # Every output of tools/report_digest.py, byte for byte: the Monte
    # Carlo reports, then the other commands' reports, errors and help.
    pinned = [
        (_pinned("ba5fce623fa9c98b5e5de91e02c3dabf0273879d649df26a967ac8c02c994bc4"),
         165),
        (_pinned("f48d541902f615e6e20ec6055b6a199452d95e269185dbaaa609a229e27565b0"),
         284),
    ]
    assert list(REPORT_DIGEST.digests()) == pinned


def test_report_digest_leaves_columns_as_it_was(monkeypatch):
    # The help text is hashed at 80 columns, and no later test's help text
    # may read that width.
    monkeypatch.delenv("COLUMNS", raising=False)
    monkeypatch.setattr(REPORT_DIGEST, "other_command_lines",
                        lambda tmp: [["--help"]])
    assert len(list(REPORT_DIGEST.other_outputs())) == 1
    assert "COLUMNS" not in os.environ
