"""Check the benchmark itself at its smoke size (about a minute).

    python3 perfbench/selftest.py

For every workload, runs ``run.py --smoke`` untraced and twice traced,
and checks that the last line has exactly the keys and metrics that
BENCHMARK.json declares, with their units, that the outputs were
correct, and that the traced counts repeat exactly.  Then checks that
a directory holding only BENCHMARK.json and the benchmark fails
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int, proc) -> dict:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise SystemExit(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise SystemExit(f"{where}: metrics {got} differ from BENCHMARK.json {units}")
    return result


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, run(ROOT, workload, 0))
        first, second = (check_result(workload, 1, run(ROOT, workload, 1)) for _ in range(2))
        for name, metric in first["metrics"].items():
            if metric["unit"] in ("count", "B") and metric["value"] != second["metrics"][name]["value"]:
                raise SystemExit(f"{workload}: count {name} differs between identical runs")
        print(f"ok {workload}")

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            raise SystemExit("a directory without the program must fail without a result")
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
