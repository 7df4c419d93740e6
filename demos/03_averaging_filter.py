"""Redundant encoding as an error filter.

Running N imperfect copies of a gate between a discrete-Fourier encoder and
decoder, then post-selecting vacuum on the ancilla ports, applies the plain
average (1/N) * (U_1 + ... + U_N) of the copies to the signal. Independent
errors partially cancel in the mean, so the effective gate converges toward
the ideal one as N grows — at the price of a shrinking success probability.

This demo draws noisy fusion-gate copies, verifies the network really applies
the matrix average, and tabulates the error (trace distance to the ideal
gate) and the post-selection probability as N increases.
"""

import numpy as np

from avgfusion import (
    apply_transfer,
    bell_state,
    build_averaged_network,
    effective_average,
    fusion_gate,
    norm_sq,
    run_averaged,
    trace_distance,
)

print(__doc__)

rng = np.random.default_rng(11)
ideal = fusion_gate(0.5, 0.5)


def noisy_copy():
    return fusion_gate(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))


# --- 1. the network implements the matrix average exactly -------------------
copies = [noisy_copy() for _ in range(3)]
net = build_averaged_network(copies)
state_in = bell_state("phi+")
kept = run_averaged(net, state_in)

direct = apply_transfer(effective_average(copies), state_in)

dev = max(abs(kept.amplitude(k) - direct.amplitude(k)) for k in set(kept.kets()) | set(direct.kets()))
print(f"1. network output vs direct mean-matrix evolution: max deviation {dev:.2e}")
print()

# --- 2. error filtering and its cost ----------------------------------------
# Section 1 shows the post-selected network applies the mean matrix, so the
# success probability is the squared norm of the state evolved under it.
# apply_transfer takes a (K, d, d) stack too: one evolution per N gives the
# states of all 200 mean matrices.
print(f"{'N':>3} {'mean trace distance':>20} {'mean success prob':>19}")
for n in (1, 2, 3, 4, 6, 8):
    distances, mean_gates = [], []
    for _ in range(200):
        mean_gate = effective_average([noisy_copy() for _ in range(n)])
        distances.append(trace_distance(mean_gate, ideal))
        mean_gates.append(mean_gate.entries)
    probs = [norm_sq(out) for out in apply_transfer(np.array(mean_gates), state_in)]
    print(f"{n:3d} {np.mean(distances):20.4f} {np.mean(probs):19.4f}")

print()
print("The residual error falls roughly like 1/sqrt(N) while the probability of")
print("keeping the state drops — filtering trades success rate for accuracy.")
