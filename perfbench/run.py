"""fkdv benchmark harness (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, closed loop: each pass starts when the
previous one ends.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.  A report with the environment, pass
counts, per-operation medians and layer shares is written to
``perfbench/out/``, and a traced run also writes its spans there.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import NEIGHBOURS, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("reproduce", "projective-deep", "large-lambda", "derive-sweep")

SETUP_SAMPLES = 7        # fresh interpreters timed per run for setup_s
COLD_MIN_SAMPLES = 2     # cold passes per run, each in a fresh process ...
COLD_TARGET_S = 3.0      # ... and more while they add up to less than this
COLD_MAX_SAMPLES = 7
MIN_WARM_PASSES = 2
MIN_TRACED_PASSES = 2    # a traced run makes at least this many traced and untraced passes
CHILD_TIMEOUT_S = 170

# name -> (unit, better); the per-layer metrics of a traced run.
PER_LAYER = {
    "poly.self_s": ("s", "lower"),
    "poly.mul_calls": ("count", "lower"),
    "poly.mul_s": ("s", "lower"),
    "poly.substitute_calls": ("count", "lower"),
    "poly.substitute_s": ("s", "lower"),
    "poly.normalize_calls": ("count", "lower"),
    "poly.eval_rat_s": ("s", "lower"),
    "poly.ascii_calls": ("count", "lower"),
    "poly.rational_roots_calls": ("count", "lower"),
    "poly.rational_roots_s": ("s", "lower"),
    "tanh.derive_s": ("s", "lower"),
    "tanh.self_s": ("s", "lower"),
    "tanh.equations": ("count", "lower"),
    "tanh.terms": ("count", "lower"),
    "pre.derive_s": ("s", "lower"),
    "pre.self_s": ("s", "lower"),
    "pre.equations": ("count", "lower"),
    "pre.terms": ("count", "lower"),
    "fixtures.compare_s": ("s", "lower"),
    "fixtures.self_s": ("s", "lower"),
    "fixtures.diffs": ("count", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.verify_s": ("s", "lower"),
    "solver.leaves": ("count", "lower"),
    "solver.distinct_leaves": ("count", "lower"),
    "solver.leaf_yield": ("fraction", "higher"),
    "solver.leaves.solved": ("count", "lower"),
    "solver.leaves.free": ("count", "lower"),
    "solver.leaves.contradiction": ("count", "lower"),
    "solver.leaves.stuck": ("count", "lower"),
    "closedform.sample_s": ("s", "lower"),
    "closedform.self_s": ("s", "lower"),
    "closedform.samples_accepted": ("count", "higher"),
    "closedform.samples_rejected": ("count", "lower"),
    "closedform.sample_yield": ("fraction", "higher"),
    "closedform.compare_s": ("s", "lower"),
    "reproduce.run_s": ("s", "lower"),
    "reproduce.self_s": ("s", "lower"),
    "reproduce.substitute_s": ("s", "lower"),
    "reproduce.catalog_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Derivation time is the layer's time outside nested spans of the same layer.
_SUMMARY_KEY = {"tanh.derive_s": "tanh.wall_s", "pre.derive_s": "pre.wall_s"}


class State:
    """Operation counts, failures and output fingerprints of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.op_times: dict[str, list[float]] = defaultdict(list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def merge(self, rec: dict) -> None:
        """Add the counts of a pass run in another process."""
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.failures.extend(rec["failures"][: max(0, 20 - len(self.failures))])
        for label, fingerprint in rec["fingerprints"].items():
            self.agree(label, fingerprint)

    def agree(self, label: str, fingerprint: str) -> bool:
        first = self.fingerprints.setdefault(label, fingerprint)
        if first != fingerprint:
            self.fail(f"{label}: output differs from the first pass")
            return False
        return True


def run_pass(ops, state: State, sampler: SpeedSampler, tracer=None) -> tuple[float, float, int]:
    """Run every operation once; returns (raw seconds, scaled seconds,
    distinct solutions).

    Only the calls into fkdv are timed (and traced); checks run after them.
    An untraced pass samples the machine speed periodically.  A traced pass
    samples it between operations only, so that no sample lands in a span.
    """
    stretches: list[tuple[float, float, float]] = []
    solutions = 0
    sampler.sample()
    with sampler.periodic() if tracer is None else contextlib.nullcontext():
        for op in ops:
            state.attempted += 1
            try:
                if tracer is not None:
                    tracer.install()
                paused = sampler.paused
                t0 = time.perf_counter()
                try:
                    out = op.run()
                finally:
                    t1 = time.perf_counter()
                    dt = t1 - t0 - (sampler.paused - paused)
                    if tracer is not None:
                        tracer.uninstall()
                        sampler.sample()
                    stretches.append((t0, t1, dt))
                    state.op_times[op.label].append(dt)
                checked = op.check(out)
            except Exception as exc:  # a failed operation is counted, the run goes on
                state.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            if state.agree(op.label, checked.fingerprint):
                solutions += checked.solutions
    sampler.sample()
    raw = sum(dt for _, _, dt in stretches)
    return raw, sum(sampler.scale(*stretch) for stretch in stretches), solutions


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup(state: State, samples: int, sampler: SpeedSampler) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from spawning a fresh interpreter until
    ``import fkdv.cli`` returns in it.  The first spawn is untimed: it fills
    the bytecode cache.

    Both ends read CLOCK_MONOTONIC, which is shared by every process on the
    machine.
    """
    code = "import fkdv.cli, time; print(time.monotonic())"
    out = []
    for _ in range(NEIGHBOURS):
        sampler.sample()
    for i in range(samples + 1):
        state.attempted += 1
        t0, start = time.perf_counter(), time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        t1 = time.perf_counter()
        for _ in range(NEIGHBOURS):
            sampler.sample()
        if proc.returncode != 0:
            state.fail(f"setup: import fkdv.cli exited {proc.returncode}: {proc.stderr[-300:]}")
            continue
        seconds = float(proc.stdout.split()[-1]) - start
        if i:
            out.append((seconds, sampler.scale(t0, t1, seconds)))
    return out


def cold_child(args) -> None:
    """One cold pass in this fresh process, reported as a JSON line."""
    import workloads  # imports fkdv, so only after main() put src/ on sys.path

    ops = workloads.build(args.workload, args.seed, OUT)
    state = State()
    raw, scaled, solutions = run_pass(ops, state, SpeedSampler())
    print(json.dumps({
        "raw": raw, "scaled": scaled, "solutions": solutions, "attempted": state.attempted,
        "failed": state.failed, "failures": state.failures,
        "fingerprints": state.fingerprints,
    }))


def measure_cold_children(args, state: State, have: float) -> list[tuple[float, float, int]]:
    """Further cold passes in fresh processes, ``have`` seconds of them
    being done; returns (raw seconds, scaled seconds, distinct solutions)
    per pass."""
    out: list[tuple[float, float, int]] = []
    while 1 + len(out) < COLD_MIN_SAMPLES or (
        have + sum(t for t, _, _ in out) < COLD_TARGET_S and 1 + len(out) < COLD_MAX_SAMPLES
    ):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--cold-child"]
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        try:
            rec = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            state.attempted += 1
            state.fail(f"cold pass process exited {proc.returncode}: {proc.stderr[-300:]}")
            break
        state.merge(rec)
        out.append((rec["raw"], rec["scaled"], rec["solutions"]))
    return out


def git_revision() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    env = {**os.environ, "GIT_OPTIONAL_LOCKS": "0"}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if rev.returncode != 0:
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def environment(args) -> dict:
    rev, dirty = git_revision()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(args, state: State, report: dict) -> dict:
    import workloads

    sampler = SpeedSampler()
    setup = measure_setup(state, SETUP_SAMPLES, sampler)
    ops = workloads.build(args.workload, args.seed, OUT)
    cold = [run_pass(ops, state, sampler)]
    cold += measure_cold_children(args, state, cold[0][0])
    pass_solutions = [solutions for _, _, solutions in cold]
    warm: list[tuple[float, float]] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds or len(warm) < MIN_WARM_PASSES:
        raw, scaled, solutions = run_pass(ops, state, sampler)
        warm.append((raw, scaled))
        pass_solutions.append(solutions)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(set(pass_solutions)) != 1:
        state.fail(f"distinct solutions differ between passes: {sorted(set(pass_solutions))}")
    report["passes"] = {"setup": len(setup), "cold": len(cold), "warm": len(warm)}
    report["speed_kernel_s"] = quartiles(sampler.costs)
    report["samples"] = {"setup": setup, "cold": cold, "warm": warm, "speed_kernel": sampler.costs}
    for name, samples in (("setup_s", setup), ("cold_s", cold), ("wall_s", warm)):
        report[name] = {"scaled": quartiles([x[1] for x in samples]),
                        "raw": quartiles([x[0] for x in samples])} if samples else None
    return {
        "setup_s": (statistics.median(x[1] for x in setup) if setup else 0.0, "s"),
        "cold_s": (statistics.median(x[1] for x in cold), "s"),
        "wall_s": (statistics.median(x[1] for x in warm), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "distinct_solutions": (statistics.median(pass_solutions), "count"),
        "ok_ratio": (1 - state.failed / max(state.attempted, 1), "fraction"),
    }


def pass_metrics(summary: dict, counters) -> dict[str, float]:
    values = {}
    for name in PER_LAYER:
        key = _SUMMARY_KEY.get(name, name)
        values[name] = float(summary.get(key, counters.get(name, 0)))
    leaves = counters.get("solver.leaves", 0)
    values["solver.leaf_yield"] = counters.get("solver.distinct_leaves", 0) / leaves if leaves else 0.0
    drawn = counters.get("closedform.samples_accepted", 0) + counters.get("closedform.samples_rejected", 0)
    values["closedform.sample_yield"] = (
        counters.get("closedform.samples_accepted", 0) / drawn if drawn else 0.0
    )
    return values


def per_layer(args, state: State, report: dict) -> dict:
    import workloads
    from spans import LAYERS, Tracer

    ops = workloads.build(args.workload, args.seed, OUT)
    sampler = SpeedSampler()
    run_pass(ops, state, sampler)  # warm-up: fill lazy caches before comparing passes
    tracer = Tracer()
    t_origin = time.perf_counter()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    spans: list[tuple[int, int, int]] = []
    while time.perf_counter() - t_origin < args.seconds or len(traced) < MIN_TRACED_PASSES:
        plain.append(run_pass(ops, state, sampler)[1])
        tracer.counters.clear()
        lo = tracer.mark()
        raw, scaled, _ = run_pass(ops, state, sampler, tracer)
        hi = tracer.mark()
        traced.append(scaled)
        spans.append((len(traced), lo, hi))
        f = scaled / raw if raw > 0 else 1.0
        summary = {key: value * f if key.endswith("_s") else value
                   for key, value in tracer.summarize(lo, hi, raw).items()}
        per_pass.append({"summary": summary, "metrics": pass_metrics(summary, tracer.counters)})
    span_path = OUT / f"spans-{args.workload}.tsv"
    tracer.write(span_path, spans, t_origin)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {
        name: (statistics.median(p["metrics"][name] for p in per_pass), PER_LAYER[name][0])
        for name in PER_LAYER if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (overhead, "s")
    report["passes"] = {"untraced": len(plain), "traced": len(traced), "spans": tracer.mark()}
    report["untraced_wall_s"] = quartiles(plain)
    report["traced_wall_s"] = quartiles(traced)
    report["spans_file"] = str(span_path.relative_to(ROOT))
    report["layers"] = {
        layer: {
            "self_s": statistics.median(p["summary"][f"{layer}.self_s"] for p in per_pass),
            "share": statistics.median(p["summary"][f"{layer}.share"] for p in per_pass),
            "wall_s": statistics.median(p["summary"][f"{layer}.wall_s"] for p in per_pass),
        }
        for layer in LAYERS
    }
    report["layers"]["other"] = {
        "share": statistics.median(p["summary"]["other.share"] for p in per_pass)
    }
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fkdv" / "__init__.py").is_file():
        print(f"perfbench: no fkdv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.cold_child:
        cold_child(args)
        return 0
    state = State()
    report: dict = {"env": environment(args)}
    if args.trace:
        metrics = per_layer(args, state, report)
    else:
        metrics = end_to_end(args, state, report)
    report["attempted"] = state.attempted
    report["failed"] = state.failed
    report["fail_ratio"] = state.failed / max(state.attempted, 1)
    report["failures"] = state.failures
    report["fingerprints"] = state.fingerprints
    report["operations"] = {label: quartiles(times) for label, times in state.op_times.items()}
    report["metrics"] = {name: value for name, (value, _) in metrics.items()}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": str(path.relative_to(ROOT)), "env": report["env"],
                      "passes": report["passes"], "fail_ratio": report["fail_ratio"]}))
    print(json.dumps({
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
