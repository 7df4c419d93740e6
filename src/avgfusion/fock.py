"""Sparse few-photon Fock states and their evolution through linear-optical networks.

States live in the occupation-number basis: a ket is a tuple of photon counts,
one per optical mode, and a state is a sparse map from kets to complex
amplitudes. Evolution substitutes creation operators through a single-particle
transfer matrix, a_j^dag -> sum_l T[l, j] a_l^dag, and re-expands the operator
polynomial with exact bosonic sqrt(n!) factors. This stays cheap because every
state handled here carries at most a handful of photons over a few dozen modes.

Inside `apply_transfer` a term is keyed by the sorted tuple of its photons'
modes, not by its m-long occupation tuple: (0, 2, 2) is |1, 0, 2>. The two
keys are in bijection, so the expansion visits terms in the same order and does
the same float operations; each output term becomes an occupation tuple once,
and sqrt(prod n!) is read from a bounded memo keyed by the photon modes.

Kets are validated once, where they enter from outside: `StateVec(...)` checks
each ket's length, sign and integrality. States this module and `detection`
build from kets they derived themselves skip that check, but still drop
amplitudes at or below `PRUNE_TOL` and still reject a non-finite amplitude.
A `TransferMatrix` holds only a read-only copy of its entries: `entries` and
`dim` are read-only properties over it, so they cannot go stale, and
`unitary` is computed from it on each read, never at construction, so a
matrix never pays for a T^dag T it is not asked about.

The oracle has one complex modulus: Python's ``abs``, which is libm ``hypot``,
and on arrays ``np.hypot(a.real, a.imag)``, which gives the same bits (numpy's
own complex ``abs`` rounds differently in the last bit for about a third of
values). The prune of a `StateVec` and of a `StateStack`, every pattern
probability in `detection` and every amplitude deviation in `verify` use it,
so a state and a stack's row keep the same kets and read the same numbers.

Every evolution runs through a (K, d, d) stack of matrices in one expansion,
a `TransferMatrix` as a stack of one: a term's coefficient is a (K,) array,
one entry per matrix, and each column walks the union of the stack's nonzero
entries, so a row that is zero in one matrix adds exactly 0 to its terms. The
finiteness check and the prune then run on the (K, kets) array of the output.
Where the matrices share their support, as samples of one gate family do, each
state keeps the ket order its matrix alone gives.

A stacked evolution returns that array as a `StateStack`: the expansion's
ket list and the read-only (K, kets) amplitudes, a pruned entry exactly 0.
It is a sequence of K states, each `StateVec` built from its row on demand,
so readers of many rows, such as the self-check suites, compare and project
the rows as arrays instead.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

# Amplitudes at or below this magnitude are dropped from sparse states.
PRUNE_TOL = 1e-15

# Max-norm defect below which a transfer matrix is flagged unitary.
UNITARY_TOL = 1e-12

FockKet = tuple  # occupation numbers, one non-negative int per mode


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints; ValueError naming them if one is not integral."""
    values = tuple(values)
    try:
        ints = tuple(int(v) for v in values)
    except (ValueError, OverflowError):  # NaN, inf
        ints = None
    if ints != values:
        raise ValueError(f"non-integral value in {what} {values}")
    return ints


def _check_ket(ket, mode_count: int) -> FockKet:
    ket = _int_tuple(ket, "ket")
    if len(ket) != mode_count:
        raise ValueError(f"ket {ket} has {len(ket)} modes, expected {mode_count}")
    if any(n < 0 for n in ket):
        raise ValueError(f"negative occupation in ket {ket}")
    return ket


def _kept(ket, a: complex) -> bool:
    """Whether amplitude `a` survives the prune; ValueError if it is not finite."""
    if not cmath.isfinite(a):
        raise ValueError(f"non-finite amplitude {a} for ket {tuple(ket)}")
    return abs(a) > PRUNE_TOL


class StateVec:
    """Sparse superposition of Fock kets over a fixed number of modes.

    Possibly unnormalized: post-selection returns sub-normalized states whose
    squared norm is the event probability. Instances are immutable; all
    operations return new states.
    """

    __slots__ = ("mode_count", "_amp")

    def __init__(self, mode_count: int, amplitudes=None):
        (mode_count,) = _int_tuple((mode_count,), "mode_count")
        if mode_count < 0:
            raise ValueError(f"mode_count must be >= 0, got {mode_count}")
        self.mode_count = mode_count
        amp = {}
        if amplitudes:
            for ket, a in amplitudes.items():
                # Every ket is checked, also one whose amplitude the prune drops.
                ket = _check_ket(ket, mode_count)
                a = complex(a)
                if _kept(ket, a):
                    amp[ket] = a
        self._amp = amp

    @classmethod
    def _built(cls, mode_count: int, amplitudes: dict) -> "StateVec":
        """State from kets this package derived itself: valid tuples of ints,
        complex amplitudes. Skips the ket checks, keeps prune and finiteness."""
        state = object.__new__(cls)
        state.mode_count = mode_count
        state._amp = {ket: a for ket, a in amplitudes.items() if _kept(ket, a)}
        return state

    @classmethod
    def from_ket(cls, occupations, amplitude: complex = 1.0) -> "StateVec":
        """Single-ket state |occupations> with the given amplitude."""
        occupations = tuple(occupations)
        return cls(len(occupations), {occupations: amplitude})

    def amplitude(self, ket) -> complex:
        return self._amp.get(tuple(ket), 0j)

    def items(self):
        return self._amp.items()

    def kets(self):
        return self._amp.keys()

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{''.join(map(str, k))}: {a:.4g}" for k, a in sorted(self._amp.items())
        )
        return f"StateVec({self.mode_count} modes, {{{terms}}})"


class TransferMatrix:
    """Single-particle mode map: a_j^dag -> sum_l entries[l, j] a_l^dag.

    The unitary flag is computed on each read (max-norm defect of T^dag T
    against identity, tolerance 1e-12); `unitarity_defect` gives the defect
    itself. Non-unitary matrices are allowed; they arise as effective
    averaged gates. A matrix with a non-finite entry is not unitary.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"transfer matrix must be square, got shape {entries.shape}")
        entries.flags.writeable = False
        self._entries = entries

    @property
    def entries(self) -> np.ndarray:
        """The matrix, complex and read-only; it cannot be reassigned either."""
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def unitary(self) -> bool:
        return self.unitarity_defect() <= UNITARY_TOL

    def unitarity_defect(self) -> float:
        """Max-norm of T^dag T - I (0.0 for the empty map); inf if an entry is not finite."""
        return float(_unitarity_defects(self._entries[None])[0])

    def __repr__(self) -> str:
        tag = "unitary" if self.unitary else "non-unitary"
        return f"TransferMatrix(dim={self.dim}, {tag})"


def _unitarity_defects(stack: np.ndarray) -> np.ndarray:
    """Max-norm of T^dag T - I of each matrix T of a (..., d, d) stack, 0.0 for
    the empty map; inf for a matrix with an entry that is not finite, which is
    found before any product, so none overflows or warns."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    stack = np.where(finite[..., None, None], stack, 0.0)
    delta = np.swapaxes(stack.conj(), -1, -2) @ stack - np.eye(stack.shape[-1])
    return np.where(finite, np.max(np.abs(delta), axis=(-2, -1), initial=0.0), math.inf)


def tensor(a: StateVec, b: StateVec) -> StateVec:
    """Tensor product: concatenated kets, multiplied amplitudes."""
    amp = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            amp[ka + kb] = va * vb
    return StateVec._built(a.mode_count + b.mode_count, amp)


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


@functools.lru_cache(maxsize=1 << 14)
def _sqrt_fact_prod(modes: tuple[int, ...]) -> float:
    """sqrt(prod n!) of the ket whose sorted photon modes are `modes`.

    Each photon multiplies in its rank within its run of equal modes, so a
    run of n photons contributes exactly n!.
    """
    prod = run = 1
    for prev, mode in zip(modes, modes[1:]):
        run = run + 1 if mode == prev else 1
        prod *= run
    return math.sqrt(prod)


def _occupations(modes: tuple[int, ...], m: int) -> FockKet:
    occ = [0] * m
    for mode in modes:
        occ[mode] += 1
    return tuple(occ)


class StateStack(Sequence):
    """The K states of one stacked evolution, kept as one amplitude array.

    ``kets`` is the expansion's ket list, in expansion order, and
    ``amplitudes`` a read-only (K, len(kets)) complex array, row k the state
    through matrix k; an amplitude at or below `PRUNE_TOL` is exactly 0.
    The record is a sequence of K `StateVec`s: ``stack[k]`` builds row k's
    state, its nonzero kets in expansion order. Readers that need many rows
    read ``amplitudes`` instead. Instances are immutable.
    """

    __slots__ = ("_mode_count", "_kets", "_amplitudes")

    def __init__(self, mode_count: int, kets, amplitudes):
        """Stack of the (K, len(kets)) ``amplitudes`` over ``kets``, which
        `apply_transfer` derived itself, so they are not checked. Like
        `StateVec._built`, it prunes and rejects a non-finite amplitude."""
        kets = tuple(kets)
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != len(kets):
            raise ValueError(f"amplitudes must have shape (K, {len(kets)}), got {amps.shape}")
        bad = np.argwhere(~np.isfinite(amps))
        if len(bad):
            row, i = bad[0]
            raise ValueError(f"non-finite amplitude {complex(amps[row, i])} for ket {kets[i]}")
        amps[np.hypot(amps.real, amps.imag) <= PRUNE_TOL] = 0
        amps.flags.writeable = False
        self._mode_count, self._kets, self._amplitudes = mode_count, kets, amps

    @property
    def mode_count(self) -> int:
        return self._mode_count

    @property
    def kets(self) -> tuple[FockKet, ...]:
        return self._kets

    @property
    def amplitudes(self) -> np.ndarray:
        """The (K, kets) amplitudes, complex and read-only."""
        return self._amplitudes

    def __len__(self) -> int:
        return len(self._amplitudes)

    def __getitem__(self, k: int) -> StateVec:
        row = self._amplitudes[operator.index(k)].tolist()  # IndexError past the end ends iteration
        return StateVec._built(self._mode_count, dict(zip(self._kets, row)))

    def __repr__(self) -> str:
        return f"StateStack({len(self)} states, {self._mode_count} modes, {len(self._kets)} kets)"


def apply_transfer(T: TransferMatrix | np.ndarray, s: StateVec) -> StateVec | StateStack:
    """Evolve a state through a transfer matrix, or through each of a stack.

    Each creation operator is substituted, a_j^dag -> sum_l T[l, j] a_l^dag,
    one photon at a time, and the resulting operator polynomial applied to
    vacuum is collected back into Fock amplitudes with exact sqrt(n!) factors.
    Unitary T preserves the squared norm; a general T may scale it.

    ``T`` is a `TransferMatrix`, giving one state, or a (K, d, d) array of K
    matrices of one size, giving the `StateStack` of the K evolved states in
    stack order from one expansion (see the module docstring); a (0, d, d)
    stack gives an empty one. A `TransferMatrix` evolves as a stack of one.
    """
    one = isinstance(T, TransferMatrix)
    stack = T.entries[None] if one else np.asarray(T, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"transfer matrix stack must have shape (K, d, d), got {stack.shape}")
    _check_dim(stack.shape[2], s)
    acc = _expand(_stack_columns(stack), s)
    kets = [_occupations(key, s.mode_count) for key in acc]
    amps = np.empty((len(kets), len(stack)), dtype=complex)
    for i, c in enumerate(acc.values()):
        amps[i] = c  # a photon-free ket's coefficient is one complex for every matrix
    out = StateStack(s.mode_count, kets, amps.T)
    return out[0] if one else out


def _check_dim(dim: int, s: StateVec) -> None:
    if dim != s.mode_count:
        raise ValueError(f"matrix dim {dim} != state mode count {s.mode_count}")


def _stack_columns(stack: np.ndarray) -> list[list[tuple[int, np.ndarray]]]:
    """(l, stack[:, l, j]) pairs of each column j, over every row l that is
    nonzero in some matrix of the (K, d, d) stack: the union of their supports."""
    support = (stack != 0).any(axis=0)
    by_column = np.ascontiguousarray(stack.transpose(2, 1, 0))  # [j, l] is the (K,) entry vector
    return [[(l, by_column[j, l]) for l in np.flatnonzero(support[:, j]).tolist()] for j in range(len(support))]


def _expand(columns, s: StateVec) -> dict:
    """Sorted photon-mode key -> coefficient of the output, from the nonzero
    (l, T[:, l, j]) pairs of each column j; a coefficient is a (K,) array,
    or one complex for every matrix while a term holds no photon."""
    # Terms are keyed by their sorted photon modes (see the module docstring).
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for ket, amp in s.items():
        modes_in = tuple(j for j, n in enumerate(ket) for _ in range(n))
        terms = {(): amp / _sqrt_fact_prod(modes_in)}
        for j in modes_in:
            expanded: dict[tuple[int, ...], np.ndarray] = {}
            get = expanded.get
            for key, c in terms.items():
                for l, t in columns[j]:
                    i = bisect_right(key, l)
                    out = key[:i] + (l,) + key[i:]
                    expanded[out] = get(out, 0j) + c * t
            terms = expanded
        for key, c in terms.items():
            acc[key] = acc.get(key, 0j) + c * _sqrt_fact_prod(key)
    return acc
