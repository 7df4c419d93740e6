"""N-copy redundant-encoding networks: encode, run parallel gate copies, decode.

A gate of width m is replicated N times. Each logical mode j is mixed with
N-1 vacuum ancillas by an N-mode DFT, copy r of the gate acts on the r-th
replica of every logical mode, and the DFT is reapplied (not inverted) to
decode. Post-selecting vacuum on all replicas r != 0 leaves the logical modes
evolved by the non-unitary average M_N = (1/N) sum_r U_r; the reapplied DFT
only reverses replica labels, which the post-selection erases. `run_averaged`
returns the post-selected state, on the input's modes; its squared norm is its
probability. It is the input evolved by the kept block of the network matrix.

Physical layout is logical-major: replica r of logical mode j sits at index
j*N + r, so each per-mode DFT is a contiguous block. Unencoded passthrough
modes are appended after the encoded block. The gate copies then form one
replica-diagonal block: U_r[j, k] sits at (j*N + r, k*N + r).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .fock import StateVec, TransferMatrix, _int_tuple, apply_transfer
from .interferometers import dft_matrix, direct_sum


@dataclass(frozen=True)
class NetworkLayout:
    """Mode-index bookkeeping for an N-copy averaging network; sizes must be integral."""

    n_copies: int
    n_logical: int
    n_passthrough: int = 0

    def __post_init__(self):
        for field, size in zip(fields(self), _int_tuple(astuple(self), "layout sizes")):
            object.__setattr__(self, field.name, size)
        if self.n_copies < 1 or self.n_logical < 1 or self.n_passthrough < 0:
            raise ValueError(f"invalid layout {self}")

    @property
    def encoded_modes(self) -> int:
        return self.n_logical * self.n_copies

    @property
    def total_modes(self) -> int:
        return self.encoded_modes + self.n_passthrough


@dataclass(frozen=True)
class AveragedNetwork:
    layout: NetworkLayout
    total: TransferMatrix


def build_averaged_network(copies, n_passthrough: int = 0) -> AveragedNetwork:
    """Assemble the full network for the given per-copy gate matrices.

    total = [decode][gate copies][encode] (+) identity on passthrough modes,
    where encode = decode = one DFT per logical mode and the copies form the
    replica-diagonal block of the module docstring. Row (a, r') of encode
    meets column (b, s) of that block at index (a, s) only, so every entry of
    encode @ gates is a single product; no permutation to a copy-major
    layout is needed.
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

    enc = layout.encoded_modes
    encode = direct_sum([dft_matrix(n)] * m).entries
    gates = np.zeros((m, n, m, n), dtype=complex)
    for r, c in enumerate(copies):
        gates[:, r, :, r] = c.entries
    total = np.eye(layout.total_modes, dtype=complex)
    total[:enc, :enc] = encode @ gates.reshape(enc, enc) @ encode
    return AveragedNetwork(layout=layout, total=TransferMatrix(total))


def run_averaged(net: AveragedNetwork, input_primary: StateVec) -> StateVec:
    """Feed a (logical + passthrough)-mode state through the network and
    post-select vacuum on every ancilla replica.

    The input occupies the kept (replica-0 and passthrough) modes and every
    ancilla starts in vacuum, so the post-selected map is the kept block
    T[kept, kept], exact to the bit: an output term with no ancilla photon is
    fed by kept terms alone, in the same order, and numbering the kept modes
    by rank keeps their order, so the sorted photon keys and sqrt(n!) factors
    of `apply_transfer` match. Returns the unnormalized state on the input's
    modes; its squared norm is the post-selection probability.
    """
    lay = net.layout
    kept = (*range(0, lay.encoded_modes, lay.n_copies), *range(lay.encoded_modes, lay.total_modes))
    return apply_transfer(TransferMatrix(net.total.entries[np.ix_(kept, kept)]), input_primary)
