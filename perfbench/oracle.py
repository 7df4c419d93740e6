"""Independent checks of what the avgfusion CLI wrote.

Each sweep check parses the CSV, recomputes every trial's metrics from its
recorded reflectivities by a route that avoids the code path under test, and
returns the set of trials that fail. A trial fails when a metric is
non-finite or out of range, or disagrees with the recomputation by more than
``TOL``. The checks run after the timed region.

- fusion: evolution under the mean matrix M_N (+) I_4 with ``apply_transfer``
  and ``fusion_outcomes`` on the 8-mode input, with no DFT network and no
  ancilla modes; the trace distance with plain numpy.
- bsm: the simulated columns against the closed-form columns, and the
  closed-form columns against root sums recomputed here.
- trace-distance: the copy average and its singular values with plain numpy.
- verify: every suite reports PASS.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

#: Largest tolerated disagreement between a metric and its oracle.
TOL = 1e-10
#: Conditional fidelities may exceed 1 by float rounding up to this margin
#: (the clamp threshold of ``normalized_fidelity``).
FNORM_SLACK = 1e-9
#: Probabilities may leave [0, 1] by float rounding up to this margin.
PROB_SLACK = 1e-12

_PROBABILITIES = {"F_HH", "P_HH", "P_single", "F", "P_success", "F_closed", "P_success_closed"}
_CONDITIONAL = {"F_HH_norm", "F_norm", "F_norm_closed"}


@dataclass
class Verdict:
    """Outcome of one check: work items attempted and those that failed."""

    attempted: int
    failed: set = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def fail(self, key, note: str) -> None:
        self.failed.add(key)
        if len(self.notes) < 20:
            self.notes.append(note)


_TEXT_COLUMNS = ("experiment", "trial", "eta")


def read_csv(path):
    """Trial rows and aggregate rows of a sweep CSV, numbers parsed."""
    trials, aggregates = [], []
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            kind = row.pop("row_kind")
            parsed = {k: v if k in _TEXT_COLUMNS else float(v) for k, v in row.items()}
            parsed["N"] = int(row["N"])
            if kind == "trial":
                parsed["trial"] = int(row["trial"])
                parsed["etas"] = [float(e) for e in row["eta"].split(";")]
                trials.append(parsed)
            else:
                parsed["kind"] = kind
                aggregates.append(parsed)
    return trials, aggregates


def _range_errors(row, columns) -> list[str]:
    errors = []
    for col in columns:
        x = row[col]
        if not math.isfinite(x):
            errors.append(f"{col}={x} is not finite")
        elif col in _PROBABILITIES and not -PROB_SLACK <= x <= 1.0 + PROB_SLACK:
            errors.append(f"{col}={x!r} outside [0, 1]")
        elif col in _CONDITIONAL and not 0.0 <= x <= 1.0 + FNORM_SLACK:
            errors.append(f"{col}={x!r} outside [0, 1 + {FNORM_SLACK:g}]")
        elif col == "trace_distance" and x < 0.0:
            errors.append(f"{col}={x!r} is negative")
    return errors


def _compare(verdict, key, row, expected: dict[str, float]) -> None:
    for col, want in expected.items():
        got = row[col]
        if math.isnan(want):
            verdict.fail(key, f"trial {key}: {col}={got!r} reported where the oracle finds it undefined")
        elif not abs(got - want) <= TOL:
            verdict.fail(key, f"trial {key}: {col}={got!r}, oracle {want!r}")


def _check_sweep(path, expected_trials: int, columns, oracle) -> Verdict:
    verdict = Verdict(attempted=expected_trials)
    trials, aggregates = read_csv(path)
    if len(trials) != expected_trials:
        verdict.fail("row-count", f"{len(trials)} trial rows, expected {expected_trials}")
    cells: dict[tuple, list] = {}
    for row in trials:
        key = (row["N"], row["m"], row["trial"])
        cells.setdefault((row["N"], row["m"]), []).append(row)
        for error in _range_errors(row, columns):
            verdict.fail(key, f"trial {key}: {error}")
        _compare(verdict, key, row, oracle(row))
    for agg in aggregates:
        chunk = cells.get((agg["N"], agg["m"]), [])
        for col in columns:
            values = np.array([r[col] for r in chunk])
            if agg["kind"] == "mean":
                want = values.mean()
            else:
                want = values.std(ddof=1) if len(values) > 1 else 0.0
            if not abs(agg[col] - want) <= TOL:
                note = f"cell {agg['N']},{agg['m']}: {agg['kind']} {col}={agg[col]!r}, oracle {want!r}"
                for r in chunk:
                    verdict.fail((r["N"], r["m"], r["trial"]), note)
    return verdict


# -- plain-numpy gate algebra -------------------------------------------------

def _bs(eta: np.ndarray) -> np.ndarray:
    c, s = np.sqrt(eta), np.sqrt(1.0 - eta)
    block = np.zeros(eta.shape + (2, 2), dtype=complex)
    block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1] = c, s, -s, c
    return block


def fusion_gates(eta_x, eta_y) -> np.ndarray:
    """Fusion gates B·SWAP·B on (H1, V1, H2, V2), one per (eta_x, eta_y) pair."""
    eta_x, eta_y = np.asarray(eta_x, dtype=float), np.asarray(eta_y, dtype=float)
    b = np.zeros(eta_x.shape + (4, 4), dtype=complex)
    b[..., :2, :2] = _bs(eta_x)
    b[..., 2:, 2:] = _bs(eta_y)
    swap = np.eye(4)[:, [0, 3, 2, 1]]
    return b @ swap @ b


_BALANCED = fusion_gates(0.5, 0.5)


def trace_distance_to_balanced(etas) -> float:
    """Half the nuclear norm of (mean of the copies - balanced fusion gate)."""
    n = len(etas) // 2
    mean = fusion_gates(etas[:n], etas[n:]).mean(axis=0)
    return float(0.5 * np.linalg.svd(mean - _BALANCED, compute_uv=False).sum())


# -- per-experiment oracles ---------------------------------------------------

def _fusion_input(avgfusion):
    """phi+ (x) phi+ reordered to (H2, V2, H3, V3 | H1, V1, H4, V4), fused rails first.

    Each pair is (|1010> + |0101>)/sqrt(2): both its qubits take the same
    term q, so the kets are q1 + q2 + q1 + q2 in the reordered modes.
    """
    terms = ((1, 0), (0, 1))
    return avgfusion.StateVec(8, {q1 + q2 + q1 + q2: 0.5 for q1 in terms for q2 in terms})


def fusion_oracle(avgfusion):
    """Per-trial fusion metrics under the mean matrix, without the N-copy network."""
    state = _fusion_input(avgfusion)
    identity = avgfusion.TransferMatrix(np.eye(4))
    phi_plus = {(1, 0, 1, 0): 1 / math.sqrt(2.0), (0, 1, 0, 1): 1 / math.sqrt(2.0)}

    def oracle(row):
        etas = row["etas"]
        n = len(etas) // 2
        copies = [avgfusion.fusion_gate(ex, ey) for ex, ey in zip(etas[:n], etas[n:])]
        total = avgfusion.direct_sum([avgfusion.effective_average(copies), identity])
        outcomes = avgfusion.fusion_outcomes(avgfusion.apply_transfer(total, state), (0, 1, 2, 3))
        hh = outcomes["HH"]
        overlap = sum(np.conj(a) * hh.residual.amplitude(k) for k, a in phi_plus.items())
        f_hh = float(abs(overlap) ** 2)
        p_hh = hh.probability
        return {
            "F_HH": f_hh,
            "P_HH": p_hh,
            "F_HH_norm": f_hh / p_hh if p_hh > 0 else math.nan,
            "P_single": sum(o.probability for o in outcomes.values()),
            "trace_distance": trace_distance_to_balanced(etas),
        }

    return oracle


def bsm_oracle(row):
    """Closed forms from root sums of the recorded reflectivities."""
    etas = row["etas"]
    n = len(etas) // 2
    sh = sum(math.sqrt(e) for e in etas[:n])
    shc = sum(math.sqrt(1.0 - e) for e in etas[:n])
    sv = sum(math.sqrt(e) for e in etas[n:])
    svc = sum(math.sqrt(1.0 - e) for e in etas[n:])
    num = (sh * svc + shc * sv) ** 2
    den = (sh**2 + shc**2) * (sv**2 + svc**2)
    closed = {"F_closed": num / n**4, "P_success_closed": den / n**4, "F_norm_closed": num / den}
    return closed | {
        "F": closed["F_closed"],
        "P_success": closed["P_success_closed"],
        "F_norm": closed["F_norm_closed"],
    }


def trace_oracle(row):
    return {"trace_distance": trace_distance_to_balanced(row["etas"])}


FUSION_COLUMNS = ("F_HH", "P_HH", "F_HH_norm", "P_single", "trace_distance")
BSM_COLUMNS = ("F", "P_success", "F_norm", "F_closed", "P_success_closed", "F_norm_closed")


def check_fusion(path, expected_trials: int, avgfusion) -> Verdict:
    return _check_sweep(path, expected_trials, FUSION_COLUMNS, fusion_oracle(avgfusion))


def check_bsm(path, expected_trials: int, avgfusion=None) -> Verdict:
    return _check_sweep(path, expected_trials, BSM_COLUMNS, bsm_oracle)


def check_trace_distance(path, expected_trials: int, avgfusion=None) -> Verdict:
    return _check_sweep(path, expected_trials, ("trace_distance",), trace_oracle)


#: Sweep check per experiment: ``check(csv_path, expected_trials, avgfusion)``.
SWEEP_CHECKS = {
    "fusion": check_fusion,
    "bsm": check_bsm,
    "trace-distance": check_trace_distance,
}


def check_verify(stdout: str) -> Verdict:
    """Every self-check suite printed by ``avgfusion verify`` must PASS.

    The suites are counted from the report, so adding one needs no change
    here; a report with no suite at all is one failure.
    """
    lines = [line for line in stdout.splitlines() if ": PASS" in line or ": FAIL" in line]
    verdict = Verdict(attempted=max(1, len(lines)))
    if not lines:
        verdict.fail("no-suites", "verify reported no suite")
    for line in lines:
        if ": PASS" not in line:
            verdict.fail(line.split(":")[0], line)
    return verdict
