"""Self-test of the benchmark at tiny problem sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--tiny`` and asserts that:
the last line is the result object with exactly its four keys; every
metric BENCHMARK.json names for that mode is printed by name with its
unit and is in the result; no item fails (error_rate 0); every spinlab
module gets calls on some workload; and the runs leave no file behind in
the checkout except their records under ``.bench_out/``.  Finally it runs
the benchmark in a directory that holds only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("spinspace", "states", "dynamics", "metrology", "estimation", "tomography", "reference", "cli")


def _tree() -> dict[str, int]:
    """Size of every file in the checkout outside .git and the run records."""
    skip = (".git", ".bench_out")
    return {
        str(p.relative_to(ROOT)): p.stat().st_size
        for p in ROOT.rglob("*")
        if p.is_file() and p.relative_to(ROOT).parts[0] not in skip
    }


def _run(cwd: Path, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace),
    ]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_run(proc: subprocess.CompletedProcess, trace: int) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, [ln for ln in lines if ln.lstrip().startswith("FAIL")]
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, name
        pattern = rf"^\s+{re.escape(name)}: \S+ {re.escape(unit)}$"
        assert any(re.match(pattern, ln) for ln in lines), f"{name} not printed with {unit}"
    assert any(re.match(r"^\s+error_rate: 0\.0 ratio \(0 of \d+ items failed\)$", ln) for ln in lines)
    return result


def main() -> int:
    before = _tree()
    calls: dict[str, float] = {m: 0.0 for m in MODULES}
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            result = _check_run(_run(ROOT, workload, trace), trace)
            if trace:
                for name, metric in result["metrics"].items():
                    if name.endswith(".calls"):
                        calls[name.split(".")[0]] += metric["value"]
            print(f"ok {workload} trace={trace}: {result['attempted']} items")
    assert all(calls.values()), calls
    assert _tree() == before, "a run left files in the checkout"
    leftovers = [p.name for p in (ROOT / ".bench_out").iterdir() if p.is_dir()]
    assert not leftovers, f"temporary directories left behind: {leftovers}"
    print("ok every module called; no output outside .bench_out")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = _run(bare, BENCH["workloads"][0]["name"], 0, tiny=False)
        assert proc.returncode != 0, "benchmark ran without the program"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare)
    print("ok fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
