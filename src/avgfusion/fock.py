"""Sparse few-photon Fock states and their evolution through linear-optical networks.

States live in the occupation-number basis: a ket is a tuple of photon counts,
one per optical mode, and a state is a sparse map from kets to complex
amplitudes. Evolution substitutes creation operators through a single-particle
transfer matrix, a_j^dag -> sum_l T[l, j] a_l^dag, and re-expands the operator
polynomial with exact bosonic sqrt(n!) factors. This stays cheap because every
state handled here carries at most a handful of photons over a few dozen modes.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

# Amplitudes at or below this magnitude are dropped from sparse states.
PRUNE_TOL = 1e-15

# Max-norm defect below which a transfer matrix is flagged unitary.
UNITARY_TOL = 1e-12

FockKet = tuple  # occupation numbers, one non-negative int per mode


def fock_dimension(n_modes: int, n_photons: int) -> int:
    """Number of Fock basis states for `n_photons` photons in `n_modes` modes.

    Stars-and-bars count C(n_modes + n_photons - 1, n_photons); exact for any
    size since Python integers do not overflow.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    return math.comb(n_modes + n_photons - 1, n_photons)


def _check_ket(ket, mode_count: int) -> FockKet:
    ket = tuple(int(n) for n in ket)
    if len(ket) != mode_count:
        raise ValueError(f"ket {ket} has {len(ket)} modes, expected {mode_count}")
    if any(n < 0 for n in ket):
        raise ValueError(f"negative occupation in ket {ket}")
    return ket


class StateVec:
    """Sparse superposition of Fock kets over a fixed number of modes.

    Possibly unnormalized: post-selection returns sub-normalized states whose
    squared norm is the event probability. Instances are immutable; all
    operations return new states.
    """

    __slots__ = ("mode_count", "_amp")

    def __init__(self, mode_count: int, amplitudes=None):
        if mode_count < 0:
            raise ValueError(f"mode_count must be >= 0, got {mode_count}")
        self.mode_count = int(mode_count)
        amp = {}
        if amplitudes:
            for ket, a in amplitudes.items():
                a = complex(a)
                if abs(a) > PRUNE_TOL:
                    amp[_check_ket(ket, self.mode_count)] = a
        self._amp = amp

    @classmethod
    def from_ket(cls, occupations, amplitude: complex = 1.0) -> "StateVec":
        """Single-ket state |occupations> with the given amplitude."""
        occupations = tuple(occupations)
        return cls(len(occupations), {occupations: amplitude})

    @property
    def amplitudes(self):
        """Read-only view of the ket -> amplitude map."""
        return MappingProxyType(self._amp)

    def amplitude(self, ket) -> complex:
        return self._amp.get(tuple(ket), 0j)

    def items(self):
        return self._amp.items()

    def kets(self):
        return self._amp.keys()

    def total_photons(self) -> int | None:
        """Common photon number of all kets, or None for the zero state."""
        counts = {sum(k) for k in self._amp}
        if not counts:
            return None
        if len(counts) > 1:
            raise ValueError(f"state mixes photon numbers {sorted(counts)}")
        return counts.pop()

    def is_zero(self) -> bool:
        return not self._amp

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{''.join(map(str, k))}: {a:.4g}" for k, a in sorted(self._amp.items())
        )
        return f"StateVec({self.mode_count} modes, {{{terms}}})"


class TransferMatrix:
    """Single-particle mode map: a_j^dag -> sum_l entries[l, j] a_l^dag.

    The unitary flag is computed at construction (max-norm defect of T^dag T
    against identity, tolerance 1e-12) and can be re-checked via
    `unitarity_defect`. Non-unitary matrices are allowed; they arise as
    effective averaged gates.
    """

    __slots__ = ("entries", "dim", "unitary")

    def __init__(self, entries):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"transfer matrix must be square, got shape {entries.shape}")
        entries.flags.writeable = False
        self.entries = entries
        self.dim = entries.shape[0]
        self.unitary = self.unitarity_defect() <= UNITARY_TOL

    def unitarity_defect(self) -> float:
        """Max-norm of T^dag T - I."""
        delta = self.entries.conj().T @ self.entries - np.eye(self.dim)
        return float(np.max(np.abs(delta)))

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(self.entries @ other.entries)

    def __repr__(self) -> str:
        tag = "unitary" if self.unitary else "non-unitary"
        return f"TransferMatrix(dim={self.dim}, {tag})"


def tensor(a: StateVec, b: StateVec) -> StateVec:
    """Tensor product: concatenated kets, multiplied amplitudes."""
    amp = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            amp[ka + kb] = va * vb
    return StateVec(a.mode_count + b.mode_count, amp)


def inner_product(a: StateVec, b: StateVec) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.mode_count != b.mode_count:
        raise ValueError(f"mode counts differ: {a.mode_count} vs {b.mode_count}")
    small = a if len(a) <= len(b) else b
    acc = 0j
    for ket in small.kets():
        acc += np.conj(a.amplitude(ket)) * b.amplitude(ket)
    return complex(acc)


def norm_sq(s: StateVec) -> float:
    """Squared norm <s|s>; the event probability for post-selected states."""
    return float(sum(abs(a) ** 2 for _, a in s.items()))


def _sqrt_fact_prod(ket) -> float:
    return math.sqrt(math.prod(math.factorial(n) for n in ket))


def apply_transfer(T: TransferMatrix, s: StateVec) -> StateVec:
    """Evolve a state through a transfer matrix.

    Each creation operator is substituted, a_j^dag -> sum_l T[l, j] a_l^dag,
    one photon at a time, and the resulting operator polynomial applied to
    vacuum is collected back into Fock amplitudes with exact sqrt(n!) factors.
    Unitary T preserves the squared norm; a general T may scale it.
    """
    if T.dim != s.mode_count:
        raise ValueError(f"matrix dim {T.dim} != state mode count {s.mode_count}")
    m = s.mode_count
    # Nonzero (l, T[l, j]) pairs of each column j; a zero column yields no terms.
    columns = [[(l, t) for l, t in enumerate(col) if t] for col in T.entries.T.tolist()]
    acc: dict[FockKet, complex] = {}
    for ket, amp in s.items():
        terms = {(0,) * m: amp / _sqrt_fact_prod(ket)}
        for j, n in enumerate(ket):
            for _ in range(n):
                expanded: dict[FockKet, complex] = {}
                for key, c in terms.items():
                    for l, t in columns[j]:
                        out = key[:l] + (key[l] + 1,) + key[l + 1 :]
                        expanded[out] = expanded.get(out, 0j) + c * t
                terms = expanded
        for key, c in terms.items():
            acc[key] = acc.get(key, 0j) + c * _sqrt_fact_prod(key)
    return StateVec(m, acc)
