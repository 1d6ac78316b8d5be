"""Append one record of the end-to-end benchmark to ``BENCH_e2e.json``.

Runs the frozen command (``BENCHMARK.json``; three repeats, traced) and
copies from the ``result-1.json`` it writes: commit and dirty flag, the
harness's environment block and, per workload, ``attempted`` /
``failed``, the six end-to-end medians (spread, values and the
un-normalised median beside each) and every per-layer metric, the two
``sim.*`` invariants among them.  A run in which a workload failed, hung
or broke its invariant is not evidence and is not recorded.  The file is
a JSON array, one record per line.  No options: one way to measure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND = ["python3", "benchmarks/e2e/run.py",
           "--seed", "1", "--repeats", "3", "--traced"]
RESULT = ROOT / "benchmarks" / "e2e" / "out" / "result-1.json"
BENCH = ROOT / "BENCH_e2e.json"


def build_record(result: dict, commit: str, dirty: bool) -> dict:
    """One trajectory record; ``ValueError`` says what disqualifies it."""
    workloads, problems = {}, []
    for name, res in result["sets"][0].items():
        problems += res["invariants"]
        if res["failed"] or res["hung"]:
            problems.append(f"{name}: {res['failed']} failed"
                            + (", hung" if res["hung"] else ""))
        workloads[name] = {key: res[key] for key in (
            "attempted", "failed", "end_to_end", "layers")}
    if problems:
        raise ValueError("; ".join(problems))
    return {"commit": commit, "dirty": dirty, "command": " ".join(COMMAND),
            "environment": result["environment"], "workloads": workloads}


def append_record(path: pathlib.Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    # The comma leads the next line, so an append rewrites no line.
    lines = "\n,".join(json.dumps(r) for r in records + [record])
    path.write_text(f"[\n{lines}\n]\n")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                          capture_output=True, check=True).stdout.strip()


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    RESULT.unlink(missing_ok=True)  # never record an earlier run's file
    subprocess.run(COMMAND, cwd=ROOT)  # exits 1 on a failed or hung run
    try:
        record = build_record(
            json.loads(RESULT.read_text()), _git("rev-parse", "HEAD"),
            bool(_git("status", "--porcelain", "--", ".", f":!{BENCH.name}")))
    except (ValueError, OSError, KeyError) as exc:  # or no usable result
        print(f"not recorded: {exc}", file=sys.stderr)
        return 1
    append_record(BENCH, record)
    print(f"appended to {BENCH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
