"""Constructors for the single-particle matrices used throughout the package.

Basis convention for all 4-mode gates: (H1, V1, H2, V2), the dual spatial
rails of the two qubits the gate touches. Sign conventions follow the printed
beam-splitter block [[sqrt(eta), sqrt(1-eta)], [-sqrt(1-eta), sqrt(eta)]],
and the Bell-state images in ``metrics.BSM_MAP_TARGETS`` are exact under them.

Every gate here is real and linear in its per-copy features
f = (sqrt(eta_1), sqrt(1 - eta_1), sqrt(eta_2), sqrt(1 - eta_2)). The block
above is sqrt(eta) * I + sqrt(1 - eta) * K with K = [[0, 1], [-1, 0]], so a
beam-splitter layer B and the analyzer are sums f_a * L_a, and the fusion
gate B * SWAP * B is the sum of f_a f_b * (L_a SWAP L_b), over constant 4x4
matrices L_a built below. The mean of N copies, M_N = (1/N) sum_r U_r, is
then the same map of the copy means of f_a (analyzer) or f_a f_b (fusion).

Up to the row signs P = diag(1, -1, 1, -1), every fusion copy is a
reflection, and M_N is linear in G, the copy mean of f f^T:

    P * M_N = I - S G S^T,    S = diag(K, K),

the signed permutation that swaps modes 0 <-> 1 and 2 <-> 3 with signs
(1, -1, 1, -1). Proof: write c_k = sqrt(eta_k), s_k = sqrt(1 - eta_k), so
v = S f = (s_1, -c_1, s_2, -c_2). Multiplying out, one copy U = B SWAP B has
P * U equal to

    [[ c_1^2,    c_1 s_1,  -s_1 s_2,  s_1 c_2 ],
     [ c_1 s_1,  s_1^2,     c_1 s_2, -c_1 c_2 ],
     [-s_1 s_2,  c_1 s_2,   c_2^2,    c_2 s_2 ],
     [ s_1 c_2, -c_1 c_2,   c_2 s_2,  s_2^2   ]],

whose entry (i, j) is -v_i v_j off the diagonal and c_k^2 = 1 - s_k^2 or
s_k^2 = 1 - c_k^2, i.e. 1 - v_i^2, on it: P * U = I - v v^T = I - S f f^T S^T,
the reflection in v as |v|^2 = |f|^2 = 2. The mean of N copies is the mean of
these. The balanced gate U_bal is the case f = (1, 1, 1, 1) / sqrt(2),
G = J/2 with J the all-ones matrix, so M_N - U_bal = P S (J/2 - G) S^T. P
and S are orthogonal, so M_N - U_bal has the singular values of the symmetric
D = J/2 - G, from which ``sweep.trace_distance`` reads the trace distance
without forming M_N. G is positive semidefinite with trace 2 and J/2 has
rank one, so D has trace 0 and at most one positive eigenvalue.

The package-private builders return M_N, real float64 of shape (..., 4, 4),
and build no per-copy matrix: ``_fusion_matrices`` from the copy means
(..., 16) of f_a f_b that ``_fusion_products`` takes from the reflectivities
on the last axis (``_fusion_gates`` is the two in turn), ``_bsm_matrices``
from the copy means (..., 4) of f, whose sums :mod:`closed_form` reads.
They check nothing; ``sweep.run_cell`` checks the engine's reflectivities.
The public scalar constructors are the N = 1 case: they check their
reflectivities and wrap M_N in a :class:`TransferMatrix`.
"""

from __future__ import annotations

import numpy as np

from .fock import TransferMatrix, _int_tuple


def _check_reflectivity(name: str, eta) -> np.ndarray:
    eta = np.asarray(eta)
    if np.iscomplexobj(eta):  # a float cast would drop the imaginary part
        raise ValueError(f"{name} must be real, got {eta.dtype} values")
    eta = eta.astype(float, copy=False)
    outside = eta[~((eta >= 0.0) & (eta <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")
    return eta


def dft_matrix(n: int) -> TransferMatrix:
    """N-mode discrete Fourier transform: entry (r, k) = w^(rk)/sqrt(N), w = exp(-2i pi/N)."""
    (n,) = _int_tuple((n,), "DFT size")
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    r = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(r, r) / n)
    return TransferMatrix(w / np.sqrt(n))


_SWAP = [0, 3, 2, 1]

#: A beam-splitter block is c * I + s * K; a fusion layer puts one on each
#: qubit's pair (H1, V1), (H2, V2), the analyzer on (H1, H2), (V1, V2).
_BLOCKS = (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_PAIRS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
_LAYER = np.array([np.kron(p, b) for p in _PAIRS for b in _BLOCKS])  # L_a, shape (4, 4, 4)
_ANALYZER = np.array([np.kron(b, p) for p in _PAIRS for b in _BLOCKS])
_FUSION = (_LAYER[:, None, :, _SWAP] @ _LAYER).reshape(16, 4, 4)  # L_a SWAP L_b at 4a + b


def _features(eta_1, eta_2) -> np.ndarray:
    """(sqrt(eta_1), sqrt(1 - eta_1), sqrt(eta_2), sqrt(1 - eta_2)) on a new last axis."""
    eta_1, eta_2 = np.broadcast_arrays(eta_1, eta_2)
    f = np.stack([eta_1, 1.0 - eta_1, eta_2, 1.0 - eta_2], axis=-1)
    return np.sqrt(f, out=f)


def _linear(coefficients: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_k coefficients[..., k] * basis[k], shape (..., 4, 4)."""
    return (coefficients @ basis.reshape(len(basis), 16)).reshape(coefficients.shape[:-1] + (4, 4))


def _fusion_products(eta_x, eta_y) -> np.ndarray:
    """The copy means of f_a f_b at 4a + b, (..., 16), the copies on the last axis, unchecked."""
    f = _features(eta_x, eta_y)
    products = np.swapaxes(f, -1, -2) @ f / f.shape[-2]
    return products.reshape(products.shape[:-2] + (16,))


def _fusion_matrices(products: np.ndarray) -> np.ndarray:
    """M_N of :func:`fusion_gate` from the copy means (..., 16) of f_a f_b, unchecked: real, (..., 4, 4)."""
    return _linear(products, _FUSION)


def _fusion_gates(eta_x, eta_y) -> np.ndarray:
    """M_N of :func:`fusion_gate`, the copies on the last axis, unchecked: real, (..., 4, 4)."""
    return _fusion_matrices(_fusion_products(eta_x, eta_y))


def _bsm_matrices(means: np.ndarray) -> np.ndarray:
    """M_N of :func:`bsm_matrix` from the feature copy means (..., 4), unchecked: real, (..., 4, 4)."""
    return _linear(means, _ANALYZER)


def fusion_gate(eta_x: float, eta_y: float) -> TransferMatrix:
    """Type-II fusion gate B * SWAP * B; both layers share (eta_x, eta_y).

    (1/2, 1/2) is the perfect gate; (1, 1) degenerates to the bare SWAP.
    """
    eta_x, eta_y = _check_reflectivity("eta_x", eta_x), _check_reflectivity("eta_y", eta_y)
    return TransferMatrix(_fusion_gates(eta_x[..., None], eta_y[..., None]))


def bsm_matrix(eta_h: float, eta_v: float) -> TransferMatrix:
    """Bell-measurement network: beam splitters pairing (H1, H2) and (V1, V2).

    At eta_h = eta_v = 1/2 this maps each Bell state to its standard
    detection pattern; the psi- state is left invariant for any common
    reflectivity.
    """
    eta_h, eta_v = _check_reflectivity("eta_h", eta_h), _check_reflectivity("eta_v", eta_v)
    return TransferMatrix(_bsm_matrices(_features(eta_h, eta_v)))


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
