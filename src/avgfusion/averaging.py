"""N-copy redundant-encoding networks: encode, run parallel gate copies, decode.

A gate of width m is replicated N times. Each logical mode j is mixed with
N-1 vacuum ancillas by an N-mode DFT, copy r of the gate acts on the r-th
replica of every logical mode, and the DFT is reapplied (not inverted) to
decode. Post-selecting vacuum on all replicas r != 0 leaves the logical modes
evolved by the non-unitary average M_N = (1/N) sum_r U_r; the reapplied DFT
only reverses replica labels, which the post-selection erases.

`build_averaged_network` returns one `AveragedNetwork`: the sizes, the full
network matrix, and its kept block, the rows and columns of the modes that
survive post-selection, built once. `run_averaged` evolves an input by that
block and returns the post-selected state, on the input's modes; its squared
norm is its probability.

Physical layout is logical-major: replica r of logical mode j sits at index
j*N + r, so each per-mode DFT is a contiguous block. Unencoded passthrough
modes are appended after the encoded block. The gate copies then form one
replica-diagonal block: U_r[j, k] sits at (j*N + r, k*N + r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import StateVec, TransferMatrix, _int_tuple, apply_transfer
from .interferometers import dft_matrix, direct_sum


@dataclass(frozen=True)
class AveragedNetwork:
    """N copies of an m-mode gate with k passthrough modes: the full
    (m*N + k)-mode matrix ``total`` and its kept block ``kept_block``.

    The kept block is ``total[kept, kept]`` over the kept modes, the
    replica-0 modes j*N and the passthrough modes: those an input occupies
    and vacuum post-selection keeps. Evolving by it is that post-selection,
    exact to the bit: an output term with no ancilla photon is fed by kept
    terms alone, in the same order, and numbering the kept modes by rank
    keeps their order, so the sorted photon keys and sqrt(n!) factors of
    `apply_transfer` match.
    """

    n_copies: int
    n_logical: int
    n_passthrough: int
    total: TransferMatrix
    kept_block: TransferMatrix


def build_averaged_network(copies, n_passthrough: int = 0) -> AveragedNetwork:
    """Assemble the full network for the given per-copy gate matrices.

    total = [decode][gate copies][encode] (+) identity on passthrough modes,
    where encode = decode = one DFT per logical mode and the copies form the
    replica-diagonal block of the module docstring. Row (a, r') of encode
    meets column (b, s) of that block at index (a, s) only, so every entry of
    encode @ gates is a single product; no permutation to a copy-major
    layout is needed. ``n_passthrough`` must be integral and >= 0.
    """
    copies = tuple(copies)
    if not copies:
        raise ValueError("need at least one gate copy")
    m = copies[0].dim
    n = len(copies)
    if any(c.dim != m for c in copies):
        raise ValueError(f"gate copies must share dimension, got {[c.dim for c in copies]}")
    if m < 1:
        raise ValueError("gate copies need at least one mode")
    if any(not c.unitary for c in copies):
        raise ValueError("all gate copies must be unitary")
    (k,) = _int_tuple((n_passthrough,), "n_passthrough")
    if k < 0:
        raise ValueError(f"n_passthrough must be >= 0, got {k}")

    enc = m * n
    encode = direct_sum([dft_matrix(n)] * m).entries
    gates = np.zeros((m, n, m, n), dtype=complex)
    for r, c in enumerate(copies):
        gates[:, r, :, r] = c.entries
    total = np.eye(enc + k, dtype=complex)
    total[:enc, :enc] = encode @ gates.reshape(enc, enc) @ encode
    kept = [*range(0, enc, n), *range(enc, enc + k)]
    return AveragedNetwork(n, m, k, TransferMatrix(total), TransferMatrix(total[np.ix_(kept, kept)]))


def run_averaged(net: AveragedNetwork, input_primary: StateVec) -> StateVec:
    """Feed a (logical + passthrough)-mode state through the network and
    post-select vacuum on every ancilla replica.

    The input occupies the kept modes and every ancilla starts in vacuum, so
    this is one evolution by the network's kept block. Returns the
    unnormalized state on the input's modes; its squared norm is the
    post-selection probability.
    """
    return apply_transfer(net.kept_block, input_primary)
