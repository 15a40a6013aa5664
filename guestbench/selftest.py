"""Quick self-test of the benchmark, run from the root of a ghub checkout:

    python3 guestbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that each
run is correct, fails no operation, and names every metric of BENCHMARK.json
with its unit. Then copies only BENCHMARK.json and the benchmark's files into
an empty directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            before = len(errors)
            proc = run(spec, ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct {result['correct']}, failed {result['failed']}: {proc.stderr.strip()[-500:]}")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in wanted}
            if set(metrics) != set(want):
                errors.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(want))}")
            for name, unit in want.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{where}: {name} is {got}, want a number in {unit}")
            print(f"{where}: {'ok' if len(errors) == before else 'FAILED'}")

    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")
    else:
        print(f"without the program: exit {proc.returncode}: ok")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
