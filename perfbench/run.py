"""Benchmark for gelfand: end-to-end and per-layer figures of four workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Every pass of a workload is a fresh single-threaded
interpreter (child.py), so library caches start cold.  Passes repeat for
about ``--seconds`` (at least two untraced passes, or one untraced and one
traced pass with ``--trace 1``) and the figures are medians over passes.
Set-up is timed in every pass and in set-up-only interpreters between
passes.  Times are scaled to a reference host speed measured inside each
pass (pace.py); the raw times are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  With
``--workload all`` every workload runs in turn, each end-to-end metric is
printed with its unit, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import metric_names  # noqa: E402

WORKLOADS = ("weyl-weights", "row-ladders", "sphere-ladders", "flat-models")
RUN_LIMIT_S = 170  # no pass starts that could end a run past this
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PINNING = ("CPU frequency and core placement could not be pinned; times are "
           "scaled to a reference host speed probed inside each pass, then "
           "medians over passes in fresh processes")


def _child_env():
    env = dict(os.environ)
    # one BLAS thread: the workloads are single-threaded by design
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _child(workload, seed, mode, timeout):
    """One fresh-interpreter pass; returns its record, or None if it crashed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} pass timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {mode} pass crashed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Run:
    """Every pass of one workload run, and the figures drawn from them."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.setups, self.plain, self.traced = [], [], []
        self.attempted = self.failed = 0
        self.failures = []
        self.versions = {}
        began = time.monotonic()

        def left():
            return RUN_LIMIT_S - (time.monotonic() - began)

        _child(workload, seed, "setup", left())  # writes bytecode caches; untimed
        self._add(_child(workload, seed, "setup", left()))
        start = time.monotonic()
        modes = ("run", "trace") if trace else ("run", "run")
        i, longest = 0, 0.0
        # stop at the pass boundary nearest to the requested duration
        while i < len(modes) or time.monotonic() - start + longest / 2 < seconds:
            if i and left() < 1.5 * longest:
                break
            t0 = time.monotonic()
            self._add(_child(workload, seed, modes[i % len(modes)], left()), modes[i % len(modes)])
            longest = max(longest, time.monotonic() - t0)
            # the machine's speed drifts over seconds, so set-up samples are
            # spread over the run like the passes instead of taken in a burst
            self._add(_child(workload, seed, "setup", left()))
            i += 1

    def _add(self, rec, mode=None):
        if rec is None:  # a crashed pass is one failed check
            self.attempted += 1
            self.failed += 1
            return
        self.setups.append(rec["setup_s"])
        self.versions = rec["versions"]
        if mode is None:
            return
        (self.traced if mode == "trace" else self.plain).append(rec)
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.failures += rec["failures"][: 10 - len(self.failures)]

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0

    def figures(self, trace):
        """End-to-end or per-layer figures; None when no pass completed."""
        if not self.plain or (trace and not self.traced):
            return None
        return self.per_layer() if trace else self.end_to_end()

    def end_to_end(self):
        return {
            "wall_s": statistics.median(r["wall_s"] for r in self.plain),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.plain),
        }

    def per_layer(self):
        layers = [r["layers"] for r in self.traced]
        out = {name: statistics.median(l[name] for l in layers) for name in metric_names()}
        out["numerics.worst_tol_ratio"] = max(
            r["worst_tol_ratio"] for r in self.plain + self.traced)
        traced = statistics.median(r["wall_s"] for r in self.traced)
        out["trace.overhead_ratio"] = traced / statistics.median(r["wall_s"] for r in self.plain) - 1
        out["wall_raw_s"] = statistics.median(r["wall_raw_s"] for r in self.plain)
        return out

    def provenance(self):
        return {
            "workload": self.workload, "seed": self.seed,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **self.versions,
            "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
            "setup_samples": len(self.setups), "traced_passes": len(self.traced),
            "pass_wall_s": [round(r["wall_s"], 4) for r in self.plain],
            "pass_wall_raw_s": [round(r["wall_raw_s"], 4) for r in self.plain],
            "pass_slowdown": [round(r["slowdown"], 3) for r in self.plain],
            "pinning": PINNING,
        }


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _metrics(values):
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def _print_run(run, values):
    """Human-readable lines for one run; returns its fail ratio."""
    print("provenance " + json.dumps(run.provenance(), sort_keys=True))
    for failure in run.failures:
        print(f"FAILED {failure}")
    if values is None:
        print(f"{run.workload}: no pass of the workload completed")
        return 1.0
    ratio = run.failed / run.attempted
    print(f"{run.workload}: fail_ratio {ratio:.4g} ({run.failed}/{run.attempted} checks)")
    for name, value in values.items():
        print(f"{run.workload}: {name} {value:.6g} {_unit(name)}")
    self_times = {k[:-len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    if self_times:
        print(f"{run.workload}: top self-time entry point {max(self_times, key=self_times.get)}")
    return ratio


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "gelfand" / "__init__.py").is_file():
        print(f"error: no gelfand sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        worst = 0.0
        for name in WORKLOADS:
            run = Run(name, args.seed, args.seconds, args.trace)
            worst = max(worst, _print_run(run, run.figures(args.trace)))
        return 1 if worst > 0 else 0

    run = Run(args.workload, args.seed, args.seconds, args.trace)
    values = run.figures(args.trace)
    _print_run(run, values)
    if values is None:
        return 1
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": _metrics(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
