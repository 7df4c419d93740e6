"""Bell-state discrimination by two-photon click patterns.

A pair of beam splitters — one pairing the H rails, one pairing the V rails —
turns the four two-qubit Bell states into distinct photon-counting patterns
on the four detector ports (a, b, c, d). With balanced splitters the psi
states land on disjoint two-detector coincidences and the phi states on
double clicks, so psi+ and psi- are unambiguously identified. Detuned
splitters leak probability into extra patterns, shrinking the unambiguous
region; psi- alone is immune for any common reflectivity.

This demo prints the click-pattern probabilities per Bell state at a few
reflectivities and compares the analyzer's success probability and fidelity
against their closed-form expressions.
"""

import numpy as np

from avgfusion import (
    BELL_LABELS,
    BSM_PATTERNS,
    StateVec,
    bell_state,
    bsm_closed_forms,
    bsm_matrix,
    build_averaged_network,
    fidelity,
    norm_sq,
    pattern_probabilities,
    run_averaged,
)
from avgfusion.detection import BSM_MAP_TARGETS

print(__doc__)

for eta in (0.5, 0.3):
    print(f"--- click-pattern probabilities at reflectivity {eta} ---")
    header = f"{'state':<7}" + "".join(f"{p:>8}" for p in BSM_PATTERNS)
    print(header)
    for label in BELL_LABELS:
        probs = pattern_probabilities(label, eta, eta).values()
        cells = [f"{prob:8.3f}" if prob > 1e-12 else f"{'.':>8}" for prob in probs]
        print(f"{label:<7}" + "".join(cells))
    print()

print("--- averaged analyzer vs closed forms (psi+ input) ---")
rng = np.random.default_rng(4)
print(f"{'N':>3} {'P simulated':>12} {'P closed':>12} {'F_norm sim':>12} {'F_norm closed':>14}")
for n in (1, 2, 3):
    eta_h = tuple(rng.uniform(0.3, 0.7, size=n))
    eta_v = tuple(rng.uniform(0.3, 0.7, size=n))
    net = build_averaged_network([bsm_matrix(eh, ev) for eh, ev in zip(eta_h, eta_v)])
    kept = run_averaged(net, bell_state("psi+"))
    p_sim = norm_sq(kept)
    f_norm_sim = fidelity(kept, StateVec(4, BSM_MAP_TARGETS["psi+"])) / p_sim
    _, p_closed, f_norm_closed = bsm_closed_forms(eta_h, eta_v)
    print(f"{n:3d} {p_sim:12.6f} {p_closed:12.6f} {f_norm_sim:12.6f} {f_norm_closed:14.6f}")

print()
print("Simulation and the sum-of-roots closed forms agree to machine precision;")
print("averaging more copies pushes the conditioned fidelity toward 1.")
