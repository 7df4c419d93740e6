"""Constructors for the single-particle matrices used throughout the package.

Basis convention for all 4-mode gates: (H1, V1, H2, V2), the dual spatial
rails of the two qubits the gate touches. Sign conventions follow the printed
beam-splitter block [[sqrt(eta), sqrt(1-eta)], [-sqrt(1-eta), sqrt(eta)]];
state-level comparisons elsewhere allow one global phase.

The gate algebra lives in the package-private broadcasting builders
(``_fusion_gates``, ``_bsm_matrices``, ``_beamsplitter_layers``), which take
reflectivity arrays and return stacks of 4x4 matrices. They check nothing;
``sweep.run_cell`` checks the sweep engine's reflectivities. The public
scalar constructors check theirs and wrap one builder matrix in a
:class:`TransferMatrix`.
"""

from __future__ import annotations

import numpy as np

from .fock import TransferMatrix


def _check_reflectivity(name: str, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    outside = eta[~((eta >= 0.0) & (eta <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")
    return eta


def dft_matrix(n: int) -> TransferMatrix:
    """N-mode discrete Fourier transform: entry (r, k) = w^(rk)/sqrt(N), w = exp(-2i pi/N)."""
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    r = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(r, r) / n)
    return TransferMatrix(w / np.sqrt(n))


def _bs_blocks(eta: np.ndarray) -> np.ndarray:
    c, s = np.sqrt(eta), np.sqrt(1.0 - eta)
    block = np.empty(eta.shape + (2, 2), dtype=complex)
    block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1] = c, s, -s, c
    return block


def _beamsplitter_layers(eta_x, eta_y) -> np.ndarray:
    """Broadcasting form of :func:`beamsplitter_layer`, unchecked: shape (..., 4, 4)."""
    eta_x, eta_y = np.broadcast_arrays(eta_x, eta_y)
    b = np.zeros(eta_x.shape + (4, 4), dtype=complex)
    b[..., :2, :2] = _bs_blocks(eta_x)
    b[..., 2:, 2:] = _bs_blocks(eta_y)
    return b


def _fusion_gates(eta_x, eta_y) -> np.ndarray:
    """Broadcasting form of :func:`fusion_gate`, unchecked: shape (..., 4, 4)."""
    b = _beamsplitter_layers(eta_x, eta_y)
    return b[..., _SWAP] @ b  # b @ SWAP: the columns of b, permuted


def _bsm_matrices(eta_h, eta_v) -> np.ndarray:
    """Broadcasting form of :func:`bsm_matrix`, unchecked: shape (..., 4, 4)."""
    eta_h, eta_v = np.broadcast_arrays(eta_h, eta_v)
    t = np.zeros(eta_h.shape + (4, 4), dtype=complex)
    t[..., 0::2, 0::2] = _bs_blocks(eta_h)  # (H1, H2)
    t[..., 1::2, 1::2] = _bs_blocks(eta_v)  # (V1, V2)
    return t


def beamsplitter_layer(eta_x: float, eta_y: float) -> TransferMatrix:
    """One layer of the fusion gate: a beam splitter on each qubit's rail pair."""
    eta_x, eta_y = _check_reflectivity("eta_x", eta_x), _check_reflectivity("eta_y", eta_y)
    return TransferMatrix(_beamsplitter_layers(eta_x, eta_y))


_SWAP = [0, 3, 2, 1]


def swap_matrix() -> TransferMatrix:
    """Exchange of the two V rails (modes 1 and 3); self-inverse."""
    return permutation_matrix(_SWAP)


def fusion_gate(eta_x: float, eta_y: float) -> TransferMatrix:
    """Type-II fusion gate B * SWAP * B; both layers share (eta_x, eta_y).

    (1/2, 1/2) is the perfect gate; (1, 1) degenerates to the bare SWAP.
    """
    eta_x, eta_y = _check_reflectivity("eta_x", eta_x), _check_reflectivity("eta_y", eta_y)
    return TransferMatrix(_fusion_gates(eta_x, eta_y))


def bsm_matrix(eta_h: float, eta_v: float) -> TransferMatrix:
    """Bell-measurement network: beam splitters pairing (H1, H2) and (V1, V2).

    At eta_h = eta_v = 1/2 this maps each Bell state to its standard
    detection pattern; the psi- state is left invariant for any common
    reflectivity.
    """
    eta_h, eta_v = _check_reflectivity("eta_h", eta_h), _check_reflectivity("eta_v", eta_v)
    return TransferMatrix(_bsm_matrices(eta_h, eta_v))


def permutation_matrix(perm) -> TransferMatrix:
    """Mode relabeling: a photon in mode j moves to mode perm[j]."""
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a bijection on 0..{n - 1}, got {perm}")
    t = np.zeros((n, n), dtype=complex)
    t[perm, np.arange(n)] = 1.0
    return TransferMatrix(t)


def direct_sum(blocks) -> TransferMatrix:
    """Block-diagonal concatenation of transfer matrices."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("direct_sum needs at least one block")
    dims = [b.dim for b in blocks]
    total = np.zeros((sum(dims), sum(dims)), dtype=complex)
    off = 0
    for b, d in zip(blocks, dims):
        total[off:off + d, off:off + d] = b.entries
        off += d
    return TransferMatrix(total)


def effective_average(copies) -> TransferMatrix:
    """Entrywise mean of the copies; generally non-unitary."""
    copies = list(copies)
    if not copies:
        raise ValueError("effective_average needs at least one matrix")
    dim = copies[0].dim
    if any(c.dim != dim for c in copies):
        raise ValueError(f"copies must share dimension, got {[c.dim for c in copies]}")
    return TransferMatrix(sum(c.entries for c in copies) / len(copies))
