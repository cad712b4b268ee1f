"""Independent check of every workload's outputs.

The oracle never imports fluxbound, and runs as its own child process
after the worker's, reading the worker's files in --workdir and writing
its tally there as tally.json.  From the same seeded inputs it
recomputes a subsample of each pass's rows with numpy.linalg (LAPACK) and
scipy: flux ratio, trace norm, symmetric relative entropy S_tilde and the
curve B(S_tilde), whose inverse it finds by a bracketed root.  It checks
the bound chain on every row, the verify suites' counts, and that a rerun
of the first pass is byte-identical to it.

An item is one draw, suite, curve point or triple.  It fails if its pass
raised or exited non-zero, if it is missing, if it reports a violated
bound, or if it disagrees with the recomputation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from inputs import (FULL, TINY, VERIFY_SUITES, WORKLOADS, Sizes, curve_params,
                    dense_triple, items_per_pass, pass_seed)

SLACK = 1e-9       # the CLI's default --tolerance for every inequality
AGREE = 1e-9       # relative agreement with the LAPACK recomputation
SATURATION = 1e-8  # largest |tn^2/4 - B(S_tilde)| on the extremal family
SUBSAMPLE = 16     # rows recomputed per pass and output file


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# recomputation with LAPACK and scipy


def _logm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.log(w)) @ v.conj().T


def s_tilde(rho: np.ndarray, sigma: np.ndarray) -> float:
    """[S(rho||sigma) + S(sigma||rho)] / 2 = tr((rho - sigma)(ln rho - ln sigma)) / 2."""
    return 0.5 * float(np.trace((rho - sigma) @ (_logm(rho) - _logm(sigma))).real)


def trace_norm(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def curve_b(s: float) -> float:
    """B(S) = tanh(y/2)^2 where y tanh(y/2) = S.

    y tanh(y/2) >= y - 1 for y >= 0, so the root lies in [0, S + 2].
    """
    if s == 0.0:
        return 0.0
    y = brentq(lambda y: y * math.tanh(0.5 * y) - s, 0.0, s + 2.0,
               xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    return math.tanh(0.5 * y) ** 2


def _agrees(value: float, expected: float) -> bool:
    return abs(value - expected) <= AGREE * max(1.0, abs(expected))


def qubit_triple(seed: int, draw: int):
    """The montecarlo protocol's draw: seven uniforms from the Philox
    substream keyed (seed, draw), mapped as fluxbound.montecarlo documents."""
    key = np.array([seed, draw], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(7)
    rho = np.diag([1.0 - u[0], u[0]]).astype(complex)
    q = u[1]
    c = math.sqrt(u[2] * q * (1.0 - q)) * np.exp(2j * math.pi * u[3])
    sigma = np.array([[1.0 - q, c], [np.conj(c), q]])
    w = 4.0 * u[4]
    d = math.sqrt(u[5]) * np.exp(2j * math.pi * u[6])
    theta = np.array([[-w, d], [np.conj(d), w]])
    return theta, rho, sigma


def triple_mismatch(theta, rho, sigma, row: dict) -> str | None:
    """Recompute one triple; name the first column that disagrees, or the
    first link of the chain that the recomputed values break."""
    w = np.linalg.eigvalsh(theta)
    capacity = w[-1] - w[0]
    phi = float(np.trace(theta @ (rho - sigma)).real)
    ratio_sq = (phi / capacity) ** 2
    tn = trace_norm(rho, sigma)
    s = s_tilde(rho, sigma)
    b = curve_b(s)
    expected = {"flux_ratio_sq": ratio_sq, "trace_norm": tn, "s_tilde": s,
                "main_rhs": b, "pinsker_rhs": 0.5 * s}
    for column, value in expected.items():
        if column in row and not _agrees(row[column], value):
            return f"{column} {row[column]!r} != {value!r}"
    quarter = 0.25 * tn * tn
    if not (ratio_sq <= quarter + SLACK and quarter <= b + SLACK
            and b <= 0.5 * s + SLACK):
        return f"recomputed chain broken: {ratio_sq!r}, {quarter!r}, {b!r}, {0.5 * s!r}"
    return None


def chain_violation(row: dict) -> str | None:
    """The chain as the row itself reports it:
    ratio^2 <= (1 - eps) B <= B <= min(1, S_tilde / 2)."""
    if not (row["flux_ratio_sq"] <= row["strengthened_rhs"] + 2 * SLACK
            and row["strengthened_rhs"] <= row["main_rhs"] + SLACK
            and row["main_rhs"] <= min(1.0, row["pinsker_rhs"]) + SLACK
            and 0.0 <= row["epsilon"] <= 1.0):
        return "reported chain broken"
    if not _agrees(row["pinsker_rhs"], 0.5 * row["s_tilde"]):
        return "pinsker_rhs != s_tilde / 2"
    return None


# ---------------------------------------------------------------------------
# reading output files


def _number(text):
    return float(text) if text not in ("true", "false") else text == "true"


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="ascii", newline="") as stream:
        return [{k: (v if k == "suite" else _number(v)) for k, v in row.items()}
                for row in csv.DictReader(stream)]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as stream:
        return [{k: float(v) for k, v in json.loads(line).items()}
                for line in stream]


def _subsample(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, count])
    return sorted(rng.choice(count, size=min(SUBSAMPLE, count), replace=False))


# ---------------------------------------------------------------------------
# per-workload checks of one pass; each returns (row index, reason) pairs


def check_montecarlo(path: Path, seed: int, sizes: Sizes):
    rows = read_csv(path)
    bad = [(i, "wrong draw index or a redraw") for i, row in enumerate(rows)
           if row["draw"] != i or row["redraws"] != 0]
    bad += [(i, why) for i, row in enumerate(rows)
            if (why := chain_violation(row))]
    for i in _subsample(seed, len(rows)):
        why = triple_mismatch(*qubit_triple(seed, i), rows[i])
        if why:
            bad.append((i, why))
    return len(rows), bad


def expected_checks(draws: int) -> dict:
    """Checks each verify suite makes at `draws` draws: fixed grids, and
    per-draw checks on full-rank random states, where no verdict is trivial."""
    half = max(draws // 2, 20)
    return {"bound_functions": 484, "capacity": draws, "bound_chain": 9 * draws,
            "sign_identities": 3 * draws, "uncertainty": draws + 30,
            "optimal_shift": 3 * half, "thermo_chain": 4 * half,
            "local_bound": 122 + 2 * half, "correlation": 4 * half,
            "saturation": 300}


def check_verify(path: Path, seed: int, sizes: Sizes):
    rows = read_csv(path)
    checks = expected_checks(sizes.verify_draws)
    bad = []
    for i, row in enumerate(rows):
        name = VERIFY_SUITES[i] if i < len(VERIFY_SUITES) else None
        if row["suite"] != name or row["checks"] != checks[name]:
            bad.append((i, f"suite {row['suite']} made {row['checks']} checks"))
        elif row["violations"] != 0 or row["min_slack"] < -SLACK:
            bad.append((i, f"suite {row['suite']} reports a violation"))
    return len(rows), bad


def _spin_marginal(c, t: float) -> np.ndarray:
    gen = np.zeros((4, 4), dtype=complex)
    gen[1, 2] = c.g * np.exp(1j * c.phase)
    gen[2, 1] = np.conj(gen[1, 2])
    u = expm(-1j * t * gen)
    joint0 = np.kron(np.diag([1.0 - c.p, c.p]), np.diag([1.0 - c.q, c.q]))
    joint = u @ joint0 @ u.conj().T
    return np.einsum("ikjk->ij", joint.reshape(2, 2, 2, 2))


def check_spinpair(path: Path, seed: int, sizes: Sizes):
    c = curve_params(seed)
    rows = read_jsonl(path)
    grid = np.linspace(0.0, c.t_max, sizes.curve_steps)
    bad = []
    for i, row in enumerate(rows):
        if i >= len(grid) or row["t"] != grid[i]:
            bad.append((i, "time grid"))
        elif not _agrees(row["flux"], row["flux_analytic"]):
            bad.append((i, f"flux {row['flux']!r} != analytic {row['flux_analytic']!r}"))
        elif not (row["s_tilde"] >= row["onsager"] - SLACK
                  and row["onsager"] >= row["two_phi_sq"] - SLACK):
            bad.append((i, "reported chain broken"))
    rho0 = np.diag([1.0 - c.p, c.p]).astype(complex)
    for i in _subsample(seed, len(rows)):
        rho_t = _spin_marginal(c, rows[i]["t"])
        flux = abs(c.omega * float((rho_t - rho0)[1, 1].real))
        s = s_tilde(rho_t, rho0)
        if not (_agrees(rows[i]["flux"], flux) and _agrees(rows[i]["s_tilde"], s)):
            bad.append((i, f"flux or s_tilde disagrees at t={rows[i]['t']!r}"))
    return len(rows), bad


def check_saturation(path: Path, seed: int, sizes: Sizes):
    c = curve_params(seed)
    rows = read_csv(path)
    grid = np.linspace(0.0, c.a_max, sizes.curve_steps)
    bad = [(i, f"abs_diff {row['abs_diff']!r} at a={row['a']!r}")
           for i, row in enumerate(rows)
           if i >= len(grid) or row["a"] != grid[i] or row["abs_diff"] > SATURATION]
    for i in _subsample(seed, len(rows)):
        a = rows[i]["a"]
        z = 2.0 * math.cosh(0.5 * a)
        rho = np.diag([math.exp(-0.5 * a) / z, math.exp(0.5 * a) / z]).astype(complex)
        sigma = rho[::-1, ::-1].copy()
        tn = trace_norm(rho, sigma)
        b = curve_b(s_tilde(rho, sigma))
        if not (_agrees(rows[i]["tn_sq_over_4"], 0.25 * tn * tn)
                and _agrees(rows[i]["B_of_s_tilde"], b)):
            bad.append((i, f"tn^2/4 or B disagrees at a={a!r}"))
    return len(rows), bad


def check_dense(path: Path, seed: int, sizes: Sizes):
    rows = read_csv(path)
    wanted = [(dim, j) for dim, count in sizes.dense for j in range(count)]
    bad = []
    for i, row in enumerate(rows):
        if i >= len(wanted) or (row["n"], row["index"]) != wanted[i]:
            bad.append((i, "wrong triple"))
        elif not row["holds_all"] or (why := chain_violation(row)):
            bad.append((i, "reported a violated bound"))
    for i in _subsample(seed, min(len(rows), len(wanted))):
        why = triple_mismatch(*dense_triple(seed, *wanted[i]), rows[i])
        if why:
            bad.append((i, f"n={wanted[i][0]}: {why}"))
    return len(rows), bad


# output file suffix and its check, per workload
OUTPUTS = {
    "mc_qubit": (("montecarlo.csv", check_montecarlo),),
    "verify_mixed": (("verify.csv", check_verify),),
    "curves_fine": (("spinpair.jsonl", check_spinpair),
                    ("saturation.csv", check_saturation)),
    "dense_spectra": (("dense.csv", check_dense),),
}


def _rerun_mismatch(workload: str, workdir: Path) -> int:
    """Lines of the rerun of pass 0 that differ from pass 0's."""
    differing = 0
    for suffix, _ in OUTPUTS[workload]:
        first = (workdir / f"0.{suffix}").read_bytes().splitlines()
        again = (workdir / f"again.{suffix}").read_bytes().splitlines()
        differing += sum(a != b for a, b in zip(first, again))
        differing += abs(len(first) - len(again))
    return differing


def check(workload: str, sizes: Sizes, seed: int, workdir: Path,
          status: list, rerun_status) -> Tally:
    """Tally the items of every pass the worker ran in `workdir`."""
    tally = Tally()
    per_pass = items_per_pass(workload, sizes)
    for k, code in enumerate(status):
        tally.attempted += per_pass
        if code != 0:
            tally.fail(per_pass, f"pass {k} failed with status {code}")
            continue
        seed_k = pass_seed(seed, k)
        failed_rows, notes, produced = set(), [], 0
        try:
            for suffix, check_file in OUTPUTS[workload]:
                count, bad = check_file(workdir / f"{k}.{suffix}", seed_k, sizes)
                produced += count
                failed_rows |= {(suffix, i) for i, _ in bad}
                notes += [f"pass {k} {suffix} row {i}: {why}" for i, why in bad[:1]]
        except (OSError, KeyError, ValueError) as exc:
            tally.fail(per_pass, f"pass {k} output unreadable: {exc!r}")
            continue
        failed = min(per_pass, len(failed_rows) + abs(per_pass - produced))
        if failed:
            tally.fail(failed, "; ".join(notes)
                       or f"pass {k} produced {produced} of {per_pass} items")
    if rerun_status != 0:
        tally.fail(1, f"rerun of pass 0 failed with status {rerun_status}")
    else:
        try:
            differing = _rerun_mismatch(workload, workdir)
        except OSError as exc:
            differing = 1
            tally.notes.append(f"rerun of pass 0 unreadable: {exc!r}")
        if differing:
            tally.fail(differing, f"rerun of pass 0 differs in {differing} lines")
    tally.failed = min(tally.failed, tally.attempted)
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = json.loads((args.workdir / "result.json").read_text())
    tally = check(args.workload, TINY if args.tiny else FULL, args.seed,
                  args.workdir, result["status"], result["rerun_status"])
    (args.workdir / "tally.json").write_text(json.dumps(asdict(tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
