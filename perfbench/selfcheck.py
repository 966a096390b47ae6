"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It

1. runs each workload for one pass (`--seconds 0`) in both modes through
   run.py and asserts that the last line of stdout is a correct result
   naming every metric BENCHMARK.json lists for that mode, with its unit;
2. asserts that the correctness gate fires on deliberately wrong labels,
   for an in-memory call and for a CLI call, and counts each as failed;
3. asserts that run.py exits non-zero without printing a result in a
   directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        for w in BENCH["workloads"]:
            proc = run_bench(w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected, (w["name"], trace, got)
            print(f"ok  {w['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} calls")


def check_gate():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run  # sets the BLAS thread count before numpy loads

    import numpy as np
    from workloads import ENTANGLED, FACTORIZED, Item, dense_text

    ec = run.import_entcheck()
    product = np.outer(np.arange(1.0, 9.0), np.arange(2.0, 10.0))
    product /= np.linalg.norm(product)
    items = [Item("right", "analyze", FACTORIZED, product),
             Item("wrong", "analyze", ENTANGLED, product)]
    workdir = run.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        path = workdir / "product.txt"
        path.write_text(dense_text(product), encoding="utf-8")
        items += [Item("cli-right", "read", FACTORIZED, product, path=str(path)),
                  Item("cli-wrong", "read", ENTANGLED, product, path=str(path))]
        for item in items:
            item.tensor = ec.CoeffTensor(item.array)
        loop = run.Loop(ec, items)
        loop.one_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert loop.attempted == 4, loop.attempted
    assert [name for name, _ in loop.failures] == ["wrong", "cli-wrong"], loop.failures
    print(f"ok  gate fires on wrong labels: {loop.failures}")


def check_bare_directory():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("multiparty", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert "{" not in proc.stdout, proc.stdout
    print(f"ok  without sources: exit {proc.returncode}, {proc.stderr.strip()}")


if __name__ == "__main__":
    check_gate()
    check_bare_directory()
    check_workloads()
    print("selfcheck passed")
