"""One workload in a fresh interpreter: the timed passes, or one set-up item.

run.py starts this script as a child process, so that the child's peak
memory and its set-up time belong to the workload alone.  Each pass calls
fluxbound from outside, through the CLI entry point `fluxbound.cli.main`
or through public library functions, and writes its rows to files in
--workdir for the oracle.  Pass k uses inputs made from inputs.pass_seed
(seed, k).  After the timed passes the first pass runs again with the
same seed, untimed, so the oracle can compare the two byte for byte.

Between passes the worker times a fixed reference loop of Python and
small numpy calls that uses nothing of fluxbound.  The host's speed drifts
by tens of percent over seconds to minutes, and the loop slows and speeds
up with it, so each untraced pass's wall time divided by the mean of the
two reference times around it, times REFERENCE_S, is its wall time at a
fixed machine speed.  A change to fluxbound moves the pass but not the loop.
A set-up launch times the loop once after its warm-up item in the same way.

With --trace 1 every second pair of passes runs traced (untraced, traced,
traced, untraced, ...), which gives the per-layer self times and, from the
untraced passes of the same run, the overhead of tracing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter
from types import SimpleNamespace

import numpy as np

from inputs import (FULL, TINY, WORKLOADS, Sizes, curve_params, dense_triple,
                    pass_seed)

SRC = Path(__file__).resolve().parents[1] / "src"
MIN_PASSES = 3  # in a traced run, at least one untraced and one traced pass
ONE_ITEM = Sizes(mc_draws=1, verify_draws=1, curve_steps=1, dense=((8, 1),))
DENSE_HEADERS = ("n", "index", "flux_ratio_sq", "trace_norm", "s_tilde",
                 "main_rhs", "strengthened_rhs", "pinsker_rhs", "epsilon",
                 "holds_all")

# (module, function) pairs traced as spans, named <module>.<function>;
# linalg.eigh is named per dimension, linalg.eigh.n<dim>
SPANS = (
    ("cli", "main"),
    ("verify", "run_verify"),
    ("montecarlo", "run_montecarlo"),
    ("montecarlo", "substream"),
    ("montecarlo", "triple_from_uniforms"),
    ("linalg", "require_hermitian"),
    ("states", "validate_state"),
    ("states", "directed_entropy_pair"),
    ("states", "relative_entropy"),
    ("flux", "make_observable"),
    ("flux", "sign_decomposition"),
    ("flux", "evaluate_bounds"),
    ("bounds", "gap_from_divergence"),
    ("thermo", "evolve"),
    ("thermo", "spin_pair_timeseries"),
    ("thermo", "saturating_family"),
    ("io", "write_table"),
)
EIGH_DIMS = (2, 3, 4, 8, 16)
# median time of reference_loop() on the 2-core Xeon the benchmark was
# defined on; it only scales the normalised pass time to read in seconds
REFERENCE_S = 0.045


def load_fluxbound() -> SimpleNamespace:
    """fluxbound's modules, from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    # importlib, because the attribute fluxbound.flux is the function flux
    fb = SimpleNamespace(**{name: importlib.import_module(f"fluxbound.{name}")
                            for name in ("bounds", "cli", "config", "flux",
                                         "io", "linalg", "montecarlo",
                                         "states", "thermo", "verify")})
    if not Path(fb.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fluxbound was imported from {fb.cli.__file__}, "
                         f"not from {SRC}")
    return fb


def reference_loop(reps: int = 200) -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls,
    the kind of work every workload does, without fluxbound."""
    rng = np.random.default_rng(0)
    mats = []
    for dim in (2, 3, 4, 4, 8):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(a + a.conj().T)
    t0 = perf_counter()
    acc = 0.0
    for _ in range(reps):
        for m in mats:
            w, v = np.linalg.eigh(m)
            acc += float(np.sum(np.abs(w) * np.log(np.abs(w) + 1.0)))
            acc += float(np.trace((v * w) @ v.conj().T).real)
        for i in range(100):
            acc += i * 0.5
    return perf_counter() - t0


def _dense_pass(fb, triples, path: str) -> int:
    rows = []
    for dim, index, (theta, rho, sigma) in triples:
        report = fb.flux.evaluate_bounds(fb.flux.make_observable(theta),
                                         fb.states.validate_state(rho),
                                         fb.states.validate_state(sigma))
        rows.append((dim, index, report.flux_ratio_sq, report.trace_norm,
                     report.s_tilde.as_float(), report.main_rhs,
                     report.strengthened_rhs, report.pinsker_rhs,
                     report.epsilon, report.all_hold()))
    with open(path, "w", encoding="ascii", newline="") as stream:
        fb.io.write_table(stream, DENSE_HEADERS, rows)
    return 0


def prepare(workload: str, fb, sizes: Sizes, seed: int):
    """Make one pass's inputs from its seed, untimed; return the call that
    runs the pass, writing files named <stem>.*, and returns its status."""
    # fb.cli.main is looked up at call time, so a traced pass sees the wrapper
    if workload == "mc_qubit":
        argv = ["montecarlo", "--seed", str(seed), "--draws", str(sizes.mc_draws)]
        return lambda stem: fb.cli.main(argv + ["--out", f"{stem}.montecarlo.csv"])
    if workload == "verify_mixed":
        argv = ["verify", "--seed", str(seed), "--draws", str(sizes.verify_draws)]
        return lambda stem: fb.cli.main(argv + ["--out", f"{stem}.verify.csv"])
    if workload == "curves_fine":
        c = curve_params(seed)
        spin = ["spinpair", "--format", "jsonl", "--p", repr(c.p),
                "--q", repr(c.q), "--omega", repr(c.omega), "--g", repr(c.g),
                "--omega0", repr(c.phase), "--t-max", repr(c.t_max),
                "--t-steps", str(sizes.curve_steps)]
        sat = ["saturation", "--a-max", repr(c.a_max),
               "--a-steps", str(sizes.curve_steps)]
        return lambda stem: (
            fb.cli.main(spin + ["--out", f"{stem}.spinpair.jsonl"])
            or fb.cli.main(sat + ["--out", f"{stem}.saturation.csv"]))
    if workload == "dense_spectra":
        triples = [(dim, j, dense_triple(seed, dim, j))
                   for dim, count in sizes.dense for j in range(count)]
        return lambda stem: _dense_pass(fb, triples, f"{stem}.dense.csv")
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, fb, seed: int, stem: str) -> int:
    """One item of the workload, as the first work of a fresh interpreter."""
    if workload == "verify_mixed":
        # `verify --draws 1` still runs every fixed-size suite; one suite
        # at one draw is the item
        config = fb.verify.VerifyConfig(master_seed=seed, draws=1)
        suite = fb.verify.suite_capacity(config, fb.config.DEFAULT_TOLERANCES)
        return 0 if suite.checks == 1 and suite.violations == 0 else 2
    return prepare(workload, fb, ONE_ITEM, seed)(stem)


def _run(call, stem: str):
    """Status of one pass: the CLI's exit code, or None if it raised."""
    try:
        return call(stem)
    except (Exception, SystemExit):  # a failing pass is counted, not fatal
        traceback.print_exc()
        return None


def _eigh_name(matrix, *args, **kwargs) -> str:
    # by the last axis, so that a stack of matrices is named by their dimension
    return f"linalg.eigh.n{np.shape(matrix)[-1]}"


def _tracer(fb):
    from tracer import Tracer

    tracer = Tracer()
    for module, function in SPANS:
        tracer.span(getattr(getattr(fb, module), function),
                    f"{module}.{function}")
    tracer.span(fb.linalg.eigh, "linalg.eigh", name_of=_eigh_name)
    tracer.count(fb.bounds.divergence_from_gap,
                 "bounds.divergence_from_gap", inside="bounds.gap_from_divergence")
    return tracer


def layer_metrics(tracer, passes: list, bytes_per_pass: list,
                  overhead: float) -> dict:
    """Per-layer metrics: medians over traced passes of each layer's calls
    and self time per pass, plus ratios counted over the whole run."""
    totals = [tracer.layer_totals(lo, hi) for lo, hi in passes]

    def per_pass(name, which):
        return median(t.get(name, (0, 0.0))[which] for t in totals)

    metrics = {}
    for module, function in SPANS:
        metrics[f"{module}.{function}.calls"] = per_pass(f"{module}.{function}", 0)
        metrics[f"{module}.{function}.self_s"] = per_pass(f"{module}.{function}", 1)
    for dim in EIGH_DIMS:
        metrics[f"linalg.eigh.calls.n{dim}"] = per_pass(f"linalg.eigh.n{dim}", 0)
        metrics[f"linalg.eigh.self_s.n{dim}"] = per_pass(f"linalg.eigh.n{dim}", 1)
    for which, suffix in ((0, "calls"), (1, "self_s")):
        metrics[f"linalg.eigh.{suffix}"] = median(
            sum(v[which] for k, v in t.items() if k.startswith("linalg.eigh.n"))
            for t in totals)
    roots = sum(t.get("bounds.gap_from_divergence", (0, 0.0))[0] for t in totals)
    inner = tracer.counts[("bounds.divergence_from_gap",
                           "bounds.gap_from_divergence")]
    metrics["bounds.divergence_from_gap.calls_per_root"] = inner / roots if roots else 0.0
    draws = tracer.calls_under("montecarlo.substream", "montecarlo.run_montecarlo")
    samples = tracer.calls_under("montecarlo.triple_from_uniforms",
                                 "montecarlo.run_montecarlo")
    metrics["montecarlo.redraw_ratio"] = (samples - draws) / draws if draws else 0.0
    metrics["io.bytes"] = median(bytes_per_pass)
    metrics["trace.overhead_frac"] = overhead
    return metrics


def run_passes(workload: str, fb, sizes: Sizes, seed: int, seconds: float,
               workdir: Path, traced_run: bool) -> dict:
    tracer = _tracer(fb) if traced_run else None
    untraced_s, traced_s, status = [], [], []
    normalised_s, reference_s = [], []
    traced_spans, traced_bytes = [], []
    reference_loop(reps=20)  # warm-up
    before = reference_loop()
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or perf_counter() < deadline:
        call = prepare(workload, fb, sizes, pass_seed(seed, k))
        stem = str(workdir / str(k))
        traced = traced_run and k % 4 in (1, 2)
        if traced:
            patched = tracer.install()
            lo = len(tracer.name)
            t0 = perf_counter()
            root = tracer.open(tracer.name_id("bench.pass"))
            status.append(_run(call, stem))
            tracer.close(root)
            t1 = perf_counter()
            tracer.uninstall(patched)
            traced_s.append(t1 - t0)
            traced_spans.append((lo, len(tracer.name)))
            traced_bytes.append(sum(p.stat().st_size
                                    for p in workdir.glob(f"{k}.*")))
        else:
            t0 = perf_counter()
            status.append(_run(call, stem))
            untraced_s.append(perf_counter() - t0)
        after = reference_loop()
        reference_s.append(after)
        if not traced:
            normalised_s.append(untraced_s[-1] * REFERENCE_S
                                / (0.5 * (before + after)))
        before = after
        k += 1
    rerun = _run(prepare(workload, fb, sizes, pass_seed(seed, 0)),
                 str(workdir / "again"))
    result = {
        "numpy": np.__version__,
        "pass_s": untraced_s,
        "normalised_pass_s": normalised_s,
        "reference_s": reference_s,
        "status": status,
        "rerun_status": rerun,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced_run:
        overhead = median(traced_s) / median(untraced_s) - 1.0
        result["traced_pass_s"] = traced_s
        result["layers"] = layer_metrics(tracer, traced_spans, traced_bytes,
                                         overhead)
        tracer.write(workdir.parent / f"trace-{workload}.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-started", type=float, metavar="T",
                        help="run one warm-up item, write the time since "
                             "time.monotonic() read T to setup-time.json, "
                             "and exit")
    args = parser.parse_args(argv)
    fb = load_fluxbound()
    if args.setup_started is not None:
        status = warm_up(args.workload, fb, args.seed, str(args.workdir / "setup"))
        setup_s = monotonic() - args.setup_started
        reference_loop(reps=20)  # warm-up
        reference_s = reference_loop()
        (args.workdir / "setup-time.json").write_text(json.dumps({
            "setup_s": setup_s,
            "reference_s": reference_s,
            "normalised_setup_s": setup_s * REFERENCE_S / reference_s}))
        return 0 if status == 0 else 1
    result = run_passes(args.workload, fb, TINY if args.tiny else FULL,
                        args.seed, args.seconds, args.workdir, bool(args.trace))
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
