"""fluxbound's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc_qubit --seed 1 --seconds 10 --trace 0

runs from the root of a checkout; --workload all runs every workload in
turn.  This process imports neither numpy nor fluxbound: the work happens
in child processes, one at a time, with BLAS threads pinned to 1.

* set-up: a fresh interpreter imports fluxbound and finishes one warm-up
  item (worker.py --setup-started).  After one untimed launch, which fills
  the bytecode cache, this is timed SETUP_RUNS times, from the launch to the
  end of the warm-up item; setup_s is the median of these times, each
  normalised by a reference loop the launch runs next (see worker.py).
* passes: one child (worker.py) runs passes of a fixed size for --seconds
  seconds, timing a fixed reference loop between passes, then reruns the
  first pass.  norm_wall_s is the median pass wall time normalised by the
  reference loop around it to a fixed machine speed (see worker.py), and
  peak_rss_mb the child's peak resident memory.  This process
  stays small, so that the child's peak, which on Linux starts from its
  parent's resident size, is the workload's own.
* oracle: a third child (oracle.py) checks every pass's output and counts
  the failed items.

With --trace 1 the worker traces every second pair of passes and the
metrics are the per-layer ones; the spans are written to
.perfbench/trace-<workload>.csv.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  If the
checkout has no src/fluxbound, the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure, so it prints no result."""


def _child(script: str, args: list, timeout: float) -> None:
    done = subprocess.run([sys.executable, str(HERE / script)] + args,
                          timeout=timeout, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} exited with "
                         f"{done.returncode}:\n{done.stderr[-3000:]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> tuple:
    """(worker result, oracle tally, metrics, set-up samples) of one workload."""
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    common += ["--tiny"] if tiny else []
    try:
        setup = []
        for launch in range(0 if trace else SETUP_RUNS + 1):
            _child("worker.py", common + ["--setup-started", repr(monotonic())],
                   timeout=60)
            if launch:
                setup.append(json.loads((workdir / "setup-time.json").read_text()))
        _child("worker.py", common + ["--seconds", str(seconds),
                                      "--trace", str(int(trace))],
               timeout=seconds + 100)
        _child("oracle.py", common, timeout=60)
        result = json.loads((workdir / "result.json").read_text())
        tally = json.loads((workdir / "tally.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result.get("layers") or {
        "norm_wall_s": median(result["normalised_pass_s"]),
        "setup_s": median(t["normalised_setup_s"] for t in setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, tally, metrics, setup


def summary(name: str, result: dict, tally: dict, metrics: dict,
            setup: list) -> str:
    items = (f"fail_frac {tally['failed'] / tally['attempted']:.4g} "
             f"({tally['failed']} of {tally['attempted']} items)")
    if "layers" in result:
        top = sorted((k for k in metrics if k.endswith(".self_s")),
                     key=metrics.get, reverse=True)[:4]
        return (f"{name}: {len(result['traced_pass_s'])} traced and "
                f"{len(result['pass_s'])} untraced passes, "
                f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}, "
                f"{items}; most self time: "
                + ", ".join(f"{k} {metrics[k]:.4f} s" for k in top))
    return (f"{name}: norm_wall_s {metrics['norm_wall_s']:.4f} s (median of "
            f"{len(result['pass_s'])} passes; raw wall {median(result['pass_s']):.4f} s, "
            f"reference loop {median(result['reference_s']):.4f} s), "
            f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)}; "
            f"raw {median(t['setup_s'] for t in setup):.4f} s), peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
            f"{items}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (ROOT / "src" / "fluxbound" / "__init__.py").is_file():
        print(f"perfbench: no src/fluxbound under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result, tally, values, setup = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.tiny)
            for note in tally["notes"]:
                print(f"{name}: FAIL {note}", file=sys.stderr)
            print(summary(name, result, tally, values, setup), flush=True)
            attempted += tally["attempted"]
            failed += tally["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": values[k], "unit": units[k]}
                            for k in units})
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    print(f"perfbench: python {platform.python_version()}, numpy "
          f"{result['numpy']}, nproc {os.cpu_count()}, machine "
          f"{platform.machine()}, src_lines {src_lines}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
