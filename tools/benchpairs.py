"""Alternating before/after runs of the benchmark, summarized as one record.

    python tools/benchpairs.py --base REV [--change REV] --out BENCH_<n>.json

Each side is exported to its own temporary directory: a git revision with
``git archive``, or, without ``--change``, the src/ and perfbench/ trees of
the working directory.  For every workload BENCHMARK.json names and each of
the seeds 100 to 109, both sides run ``perfbench/run.py --trace 0`` once with
that seed, for the run length BENCHMARK.json sets, one at a time, base first
in even pairs and change first in odd ones, so that a drift of the machine's
speed falls on both sides alike.
Run it from anywhere, with the standard library only.

The record gives, per workload and side, the median and quartiles
(``statistics.quantiles``, n=4) of every end-to-end metric and every run's
value, and the same for ``wall_s_raw`` and ``cold_s_raw``, each run's
unscaled wall_s and cold_s medians read from its perfbench report file (the
scaling by speed-kernel samples moves from process to process on its own);
per metric, the number of pairs in which the change reads lower;
and the seeds, the number of pairs, both revisions, the Python version,
``nproc`` and whether bytecode writing was off.  A run whose output checks
fail counts in ``incorrect_runs``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")
SEEDS = list(range(100, 110))  # 10 pairs, the fewest a claimed gain may rest on
RAW = ("wall_s", "cold_s")  # also recorded unscaled, as <name>_raw


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str | None, dest: Path) -> str:
    """Write src/ and perfbench/ of ``rev`` (None: the working directory)
    to ``dest``; returns the revision as recorded."""
    if rev is None:
        for tree in TREES:
            shutil.copytree(ROOT / tree, dest / tree,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        return f"{git('rev-parse', 'HEAD')} with working-directory changes"
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *TREES],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", f"{rev}^{{commit}}")


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one perfbench run: correct, attempted, failed and
    the metrics, with the unscaled median of each RAW metric from the
    report file the line before it names."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, check=True, capture_output=True, text=True,
    )
    *_, head, last = proc.stdout.splitlines()
    out = json.loads(last)
    report = json.loads((side / json.loads(head)["report"]).read_text())
    for name in RAW:
        out["metrics"][f"{name}_raw"] = {"value": report[name]["raw"]["median"], "unit": "s"}
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--change", help="git revision of the change side (default: working directory)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record: dict = {
        "pairs": len(SEEDS),
        "seeds": SEEDS,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        record["revisions"] = {
            "base": export(args.base, sides["base"]),
            "change": export(args.change, sides["change"]),
        }
        for workload in [w["name"] for w in bench["workloads"]]:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i, seed in enumerate(SEEDS):
                for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    runs[name].append(run(sides[name], workload, seed, seconds))
                    print(f"{workload} seed {seed} {name}: wall_s "
                          f"{runs[name][-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            metrics = list(runs["base"][0]["metrics"])
            values = {name: {m: [r["metrics"][m]["value"] for r in rs] for m in metrics}
                      for name, rs in runs.items()}
            record["workloads"][workload] = {
                **{name: {m: summary(vs) for m, vs in by_metric.items()}
                   for name, by_metric in values.items()},
                "change_lower_in_pairs": {
                    m: sum(c < b for b, c in zip(values["base"][m], values["change"][m]))
                    for m in metrics
                },
                "incorrect_runs": {name: sum(not r["correct"] for r in rs)
                                   for name, rs in runs.items()},
            }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
