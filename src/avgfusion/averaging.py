"""N-copy redundant-encoding networks: encode, run parallel gate copies, decode.

A gate of width m is replicated N times. Each logical mode j is mixed with
N-1 vacuum ancillas by an N-mode DFT, copy r of the gate acts on the r-th
replica of every logical mode, and the DFT is reapplied (not inverted) to
decode. Post-selecting vacuum on all replicas r != 0 leaves the logical modes
evolved by the non-unitary average M_N = (1/N) sum_r U_r; the reapplied DFT
only reverses replica labels, which the post-selection erases.

An `AveragedNetwork` holds the sizes, the full network matrix, and its kept
block, the rows and columns of the modes that survive post-selection, built
once. `build_averaged_network` builds one from a sequence of N copies, or,
as `fock.apply_transfer` evolves a stack, K of them from a (K, N, m, m) stack
of copy sets in one pass: one unitarity check, two batched matmuls and one
gather over the whole stack, a sequence being the stack of one. `run_averaged`
evolves an input by a kept block and returns the post-selected state, on the
input's modes; its squared norm is its probability.

Physical layout is logical-major: replica r of logical mode j sits at index
j*N + r, so each per-mode DFT is a contiguous block. Unencoded passthrough
modes are appended after the encoded block. The gate copies then form one
replica-diagonal block: U_r[j, k] sits at (j*N + r, k*N + r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import UNITARY_TOL, StateVec, TransferMatrix, _int_tuple, _unitarity_defects, apply_transfer
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


def build_averaged_network(copies, n_passthrough: int = 0) -> AveragedNetwork | list[AveragedNetwork]:
    """Assemble the full network of each set of per-copy gate matrices.

    ``copies`` is a sequence of N `TransferMatrix`, giving one network, or a
    (K, N, m, m) array of K sets of N copies, giving the list of K networks
    in stack order; a (0, N, m, m) stack gives ``[]``. A sequence builds as
    a stack of one. Every copy of every set must be unitary, and
    ``n_passthrough`` integral and >= 0.

    total = [decode][gate copies][encode] (+) identity on passthrough modes,
    where encode = decode = one DFT per logical mode and the copies form the
    replica-diagonal block of the module docstring. Row (a, r') of encode
    meets column (b, s) of that block at index (a, s) only, so every entry of
    encode @ gates is a single product; no permutation to a copy-major
    layout is needed.
    """
    one = not isinstance(copies, np.ndarray)
    if one:
        copies = tuple(copies)
        bare = [np.shape(c) for c in copies if not isinstance(c, TransferMatrix)]
        if bare:
            raise ValueError(f"a sequence of gate copies takes TransferMatrix, got an array of shape {bare[0]}")
        dims = [c.dim for c in copies]
        if len(set(dims)) > 1:
            raise ValueError(f"gate copies must share dimension, got {dims}")
        m = dims[0] if dims else 0
        stack = np.array([c.entries for c in copies]).reshape(1, len(copies), m, m)
    else:
        stack = np.asarray(copies, dtype=complex)
        if stack.ndim != 4 or stack.shape[2] != stack.shape[3]:
            raise ValueError(f"gate copy stack must have shape (K, N, m, m), got {stack.shape}")
    sets, n, m = stack.shape[:3]
    if n < 1:
        raise ValueError("need at least one gate copy")
    if m < 1:
        raise ValueError("gate copies need at least one mode")
    if not (_unitarity_defects(stack) <= UNITARY_TOL).all():
        raise ValueError("all gate copies must be unitary")
    (k,) = _int_tuple((n_passthrough,), "n_passthrough")
    if k < 0:
        raise ValueError(f"n_passthrough must be >= 0, got {k}")

    enc = m * n
    encode = direct_sum([dft_matrix(n)] * m).entries
    gates = np.zeros((sets, m, n, m, n), dtype=complex)
    r = np.arange(n)
    gates[:, :, r, :, r] = stack.swapaxes(0, 1)  # copy r's entry (j, l) at (j*N + r, l*N + r)
    total = np.zeros((sets, enc + k, enc + k), dtype=complex)
    total[:, :enc, :enc] = encode @ gates.reshape(sets, enc, enc) @ encode
    total[:, enc:, enc:] = np.eye(k)
    kept = [*range(0, enc, n), *range(enc, enc + k)]
    rows, cols = np.ix_(kept, kept)
    nets = [
        AveragedNetwork(n, m, k, TransferMatrix(t), TransferMatrix(b)) for t, b in zip(total, total[:, rows, cols])
    ]
    return nets[0] if one else nets


def run_averaged(net: AveragedNetwork, input_primary: StateVec) -> StateVec:
    """Feed a (logical + passthrough)-mode state through the network and
    post-select vacuum on every ancilla replica.

    The input occupies the kept modes and every ancilla starts in vacuum, so
    this is one evolution by the network's kept block. Returns the
    unnormalized state on the input's modes; its squared norm is the
    post-selection probability.
    """
    return apply_transfer(net.kept_block, input_primary)
