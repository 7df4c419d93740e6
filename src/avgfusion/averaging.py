"""N-copy redundant-encoding networks: encode, run parallel gate copies, decode.

A gate of width m is replicated N times. Each logical mode j is mixed with
N-1 vacuum ancillas by an N-mode DFT, copy r of the gate acts on the r-th
replica of every logical mode, and the DFT is reapplied (not inverted) to
decode. Post-selecting vacuum on all replicas r != 0 leaves the logical modes
evolved by the non-unitary average M_N = (1/N) sum_r U_r; the reapplied DFT
only reverses replica labels, which the post-selection erases.

Physical layout is logical-major: replica r of logical mode j sits at index
j*N + r, so each per-mode DFT is a contiguous block. Unencoded passthrough
modes are appended after the encoded block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import DetectionPattern, project_pattern
from .fock import StateVec, TransferMatrix, apply_transfer
from .interferometers import dft_matrix, direct_sum, permutation_matrix


@dataclass(frozen=True)
class NetworkLayout:
    """Mode-index bookkeeping for an N-copy averaging network."""

    n_copies: int
    n_logical: int
    n_passthrough: int = 0

    def __post_init__(self):
        if self.n_copies < 1 or self.n_logical < 1 or self.n_passthrough < 0:
            raise ValueError(f"invalid layout {self}")

    @property
    def encoded_modes(self) -> int:
        return self.n_logical * self.n_copies

    @property
    def total_modes(self) -> int:
        return self.encoded_modes + self.n_passthrough

    def physical_index(self, logical: int, replica: int) -> int:
        if not (0 <= logical < self.n_logical and 0 <= replica < self.n_copies):
            raise ValueError(f"(logical={logical}, replica={replica}) outside layout {self}")
        return logical * self.n_copies + replica

    def primary_modes(self) -> tuple[int, ...]:
        """Replica-0 line of each logical mode."""
        return tuple(self.physical_index(j, 0) for j in range(self.n_logical))

    def ancilla_modes(self) -> tuple[int, ...]:
        return tuple(
            self.physical_index(j, r)
            for j in range(self.n_logical)
            for r in range(1, self.n_copies)
        )

    def passthrough_modes(self) -> tuple[int, ...]:
        return tuple(range(self.encoded_modes, self.total_modes))


@dataclass(frozen=True)
class AveragedNetwork:
    layout: NetworkLayout
    total: TransferMatrix
    copies: tuple[TransferMatrix, ...]


def build_averaged_network(copies, n_passthrough: int = 0) -> AveragedNetwork:
    """Assemble the full network for the given per-copy gate matrices.

    total = [decode][P^-1][couple-wise gate copies][P][encode] (+) identity on
    passthrough modes, where encode = decode = one DFT per logical mode and P
    converts the logical-major layout to copy-major so the parallel gates are
    block-diagonal.
    """
    copies = tuple(copies)
    if not copies:
        raise ValueError("need at least one gate copy")
    m = copies[0].dim
    n = len(copies)
    if any(c.dim != m for c in copies):
        raise ValueError(f"gate copies must share dimension, got {[c.dim for c in copies]}")
    if any(not c.unitary for c in copies):
        raise ValueError("all gate copies must be unitary")
    layout = NetworkLayout(n_copies=n, n_logical=m, n_passthrough=n_passthrough)

    encode = direct_sum([dft_matrix(n)] * m)
    # logical-major index j*N + r  ->  copy-major index r*m + j
    to_copy_major = [0] * (m * n)
    for j in range(m):
        for r in range(n):
            to_copy_major[j * n + r] = r * m + j
    p = permutation_matrix(to_copy_major)
    p_inv = permutation_matrix(np.argsort(to_copy_major))
    gates = direct_sum(copies)
    core = encode @ p_inv @ gates @ p @ encode

    if n_passthrough:
        total = direct_sum([core, TransferMatrix(np.eye(n_passthrough))])
    else:
        total = core
    return AveragedNetwork(layout=layout, total=total, copies=copies)


def run_averaged(net: AveragedNetwork, input_primary: StateVec) -> StateVec:
    """Feed a (logical + passthrough)-mode state through the network.

    The input occupies the primary (replica-0) and passthrough modes; all
    ancilla replicas start in vacuum. Returns the full output state.
    """
    lay = net.layout
    if input_primary.mode_count != lay.n_logical + lay.n_passthrough:
        raise ValueError(
            f"input has {input_primary.mode_count} modes, "
            f"expected {lay.n_logical + lay.n_passthrough}"
        )
    amp = {}
    for ket, a in input_primary.items():
        full = [0] * lay.total_modes
        for j in range(lay.n_logical):
            full[lay.physical_index(j, 0)] = ket[j]
        for i in range(lay.n_passthrough):
            full[lay.encoded_modes + i] = ket[lay.n_logical + i]
        amp[tuple(full)] = a
    return apply_transfer(net.total, StateVec(lay.total_modes, amp))


def postselect_vacuum_ancilla(full_state: StateVec, layout: NetworkLayout) -> StateVec:
    """Keep only kets with empty ancilla replicas; drop the ancilla modes.

    Returns the unnormalized state on the primary + passthrough modes; its
    squared norm is the post-selection probability (for a normalized input).
    """
    if full_state.mode_count != layout.total_modes:
        raise ValueError(
            f"state has {full_state.mode_count} modes, layout expects {layout.total_modes}"
        )
    ancillas = layout.ancilla_modes()
    return project_pattern(full_state, DetectionPattern(ancillas, (0,) * len(ancillas)))[0]
