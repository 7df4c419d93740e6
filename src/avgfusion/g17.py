"""The CSV rows of a sweep, and the float kernel that spells them.

:func:`chunks` makes the text that :func:`avgfusion.sweep.write_csv` writes,
every float in it ``"%.17g" % v``. CPython's ``%`` takes the bignum path of
its dtoa for every 17-digit float, at about 0.8 µs each, which made
formatting most of what writing a sweep's CSV cost. :func:`words` does the
same work in numpy arithmetic on a block of values at once and gives the
same bytes. ``sweep`` loads this module when it first writes a CSV, so a
sweep that writes none neither compiles it nor builds its tables.

Rows. The trial rows go out in blocks of whole rows that cross cells, up to
``_BLOCK`` values: one call of :func:`words` spells all of a block's floats
(the first block's call also every cell's mean and std), and the block's
rows are joined as NUL-padded words and compacted with one
``bytes.translate``. The (experiment, N, m) keys go through ``sweep._fmt``.

Method. A v with 1e-4 <= |v| < 1e16 and E = floor(log10 |v|) has the 17
significant digits D = |v| * 10**p rounded half-even, p = 16 - E, written
with the point after digit E (or after "0." and -E - 1 zeros when E < 0) and
the fraction's trailing zeros dropped. The product |v| * 10**p is exactly
hi + lo, by Dekker's product on a Veltkamp split (10**p is an exact double
for p <= 22), and hi >= 1e16 > 2**53 is an even integer, so D = hi + rint(lo).
log10 may put E one off next to a power of ten; hi + lo outside [1e16, 1e17)
shows it, and those values are scaled again. D never rounds up to 10**17: the
double nearest below each power of ten from 1e-3 to 1e16 scales to at least
8 below it. 0.0 and -0.0 are "0" and "-0"; every other value (nan, inf,
below 1e-4, from 1e16 up) is spelled by ``%`` itself.

Layout. A value takes 24 NUL-padded bytes, three little-endian words: byte 0
is left NUL for the separator before the value, bytes 1-6 hold the sign and the
"0.000" prefix right-aligned, and bytes 7-23 the 17 digits, W. An integer
part moves one byte left, over the empty prefix, to make room for the
point, so every spelling is (W >> 8) & A | W & B | C, with the masks A, B
and C of one column of ``_LAYOUT`` per (E, trailing zeros of D, sign).
"""

from __future__ import annotations

import itertools

import numpy as np

from .sweep import METRIC_COLUMNS, _fmt

_SPLIT = 2.0**27 + 1  # Veltkamp's factor: splits a double into two halves of 26 bits
_POW10 = np.array([float(10**p) for p in range(21)])  # exact
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
#: 10**p for p in [0, 20], then its two halves, as the rows of one table.
_POW10_SPLIT = np.stack((_POW10, _POW10_HI, _POW10 - _POW10_HI))

#: The four ASCII digits of 0000-9999 in the low half of a little-endian
#: word, and their trailing zeros (four for 0000).
_ASCII, _NIL = np.arange(48, 58, dtype=np.uint64), np.arange(10) == 0
_DIGITS = (_ASCII[:, None, None, None] | _ASCII[:, None, None] << 8 | _ASCII[:, None] << 16 | _ASCII << 24).ravel()
_DIGITS_HI = _DIGITS << np.uint64(32)  # the same digits in the high half
_TRAILING = (_NIL * (1 + _NIL[:, None] * (1 + _NIL[:, None, None] * (np.uint8(1) + _NIL[:, None, None, None])))).ravel()
_BYTE, _LAST_BYTE = np.uint64(8), np.uint64(56)


def _layout() -> np.ndarray:
    """The masks A, B, C, three words each, as the nine rows of a table.

    Column r is E = r // 34 - 4 with r // 2 % 17 trailing zeros and the sign
    r % 2; then come "0" and "-0", then a blank column for ``%`` to fill.
    """
    r = np.arange(21 * 34)
    e, neg = r // 34 - 4, r % 2 == 1
    kept = np.maximum(e + 1, 17 - r // 2 % 17)  # the integer part keeps its zeros
    byte = np.arange(24)[:, None]
    dot, zero, minus = np.frombuffer(b".0-", np.uint8)
    table = np.zeros((3, 24, len(r) + 3), np.uint8)
    table[0, :, :-3] = (e >= 0) & (byte >= 6) & (byte < 7 + e)
    table[1, :, :-3] = (byte >= 7 + np.maximum(e + 1, 0)) & (byte < 7 + kept)
    table[:2] *= 255
    table[2, :, :-3] = np.where(byte == 7 + e, dot, zero) * ((e < 0) & (byte >= 6 + e) & (byte < 7))
    table[2, :, :-3] += dot * ((e >= 0) & (kept > e + 1) & (byte == 7 + e))
    table[2, :, :-3] += minus * (neg & (byte == 5 + np.minimum(e, 0)))
    table[2, 6, -3:-1] = zero
    table[2, 5, -2] = minus
    return np.ascontiguousarray(table.transpose(2, 0, 1)).view("<u8").reshape(-1, 9).T.copy()


_LAYOUT = _layout()
_ZERO, _BLANK = _LAYOUT.shape[1] - 3, _LAYOUT.shape[1] - 1


def _scaled(mag: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mag * 10**(16 - e) as hi + lo, exactly (Dekker's product)."""
    y, yh, yl = _POW10_SPLIT.take(16 - e, axis=1)
    hi = mag * y
    c = mag * _SPLIT
    xh = c - (c - mag)
    xl = mag - xh
    return hi, ((xh * yh - hi) + xh * yl + xl * yh) + xl * yl


def _significand(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D, the 17 significant digits as an int64, and E of each mag in [1e-4, 1e16)."""
    e = np.floor(np.log10(mag)).clip(-4, 15).astype(np.intp)  # E lies in [-4, 15]
    hi, lo = _scaled(mag, e)
    step = (hi - 1e17 >= -lo).astype(np.intp) - (hi - 1e16 < -lo)
    off = np.flatnonzero(step)
    if off.size:
        e[off] += step[off]
        hi[off], lo[off] = _scaled(mag[off], e[off])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _groups(d: np.ndarray) -> tuple[np.ndarray, ...]:
    """The lead digit and the four 4-digit groups of each 17-digit d."""
    top = d // 10**8
    bottom = d - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    high, low = top // 10**4, bottom // 10**4
    return lead, high, top - high * 10**4, low, bottom - low * 10**4


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_LAYOUT`` column and the three digit words W of each value, and
    the positions of the values that ``%`` spells."""
    mag, neg = np.abs(values), np.signbit(values)
    special = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)))
    zero = mag[special] == 0
    mag[special] = 1.0
    d, e = _significand(mag)
    lead, *groups = _groups(d)
    trailing = _TRAILING.take(groups[0])
    for group in groups[1:]:
        trailing *= group == 0
        trailing += _TRAILING.take(group)
    column = e * 34 + trailing * 2 + neg + 136
    column[special] = np.where(zero, _ZERO + neg[special], _BLANK)
    w = np.empty((3, len(values)), "<u8")
    _DIGITS_HI.take(lead, out=w[0])
    for word, low, high in zip(w[1:], groups[0::2], groups[1::2]):
        _DIGITS.take(low, out=word)
        word |= _DIGITS_HI.take(high)
    return column, w, special[~zero]


def words(values: np.ndarray) -> np.ndarray:
    """The NUL-padded bytes of ``"%.17g" % v`` for each of the n float64
    ``values``, as a (words, n) array of little-endian words per value.

    Byte 0 of each value is NUL. Each value takes three words, or more when
    some value outside the kernel's range needs more than 23 bytes.
    """
    column, w, other = _digits(values)
    out = w >> _BYTE
    out[:2] |= w[1:] << _LAST_BYTE
    a, b, c = _LAYOUT.take(column, axis=1).reshape(3, 3, -1)
    out &= a
    w &= b
    out |= w
    out |= c
    if other.size:
        text = [b"\0" + (b"%.17g" % v) for v in values[other].tolist()]
        extra = -(-max(map(len, text)) // 8) - len(out)
        if extra > 0:
            out = np.concatenate((out, np.zeros((extra, len(values)), out.dtype)))
        out[:, other] = np.array(text, f"S{8 * len(out)}").view("<u8").reshape(-1, len(out)).T
    return out


#: Values per call of the float kernel, not a knob. A block takes whole trial
#: rows, across cells, up to this many values. On the default sweeps and a
#: 20 000-row fusion sweep, blocks of 2**12 to 2**14 values wrote within 20 %
#: of each other's time and 2**11 up to 1.7 times slower than the fastest;
#: 2**12 keeps the kernel's arrays near half a megabyte.
_BLOCK = 1 << 12
_TRIAL_END = np.frombuffer(b",trial\n\0", "<u8")  # the last word of a trial row
_COMMA, _SEMICOLON, _NEWLINE = np.frombuffer(b",;\n", np.uint8)


def _blocks(cells, columns: int):
    """The trial rows of ``cells`` in blocks of at most ``_BLOCK`` values
    (or one row), each a list of (cell index, first trial, end trial) parts
    in row order."""
    block, free = [], _BLOCK
    for i, cell in enumerate(cells):
        width, start = 1 + cell.etas[0].size + columns, 0
        while start < len(cell.etas):
            stop = min(len(cell.etas), start + max(1, free // width))
            block.append((i, start, stop))
            free -= (stop - start) * width
            start = stop
            if free < width:
                yield block
                block, free = [], _BLOCK
    if block:
        yield block


def chunks(result):
    """The CSV text of the :class:`~avgfusion.sweep.SweepResult` ``result``:
    the header, then one chunk per block of trial rows, each cell's mean and
    std rows after its last trial row."""
    cfg = result.config
    columns = METRIC_COLUMNS[cfg.experiment]
    cells = result.cells
    yield ",".join(["experiment", "N", "m", "trial", "eta", *columns, "row_kind"]) + "\n"
    keys = [f"{cfg.experiment},{cell.n_copies},{_fmt(cell.m)}" for cell in cells]
    key_words = _key_words(keys)
    trials = np.arange(max(len(cell.etas) for cell in cells), dtype=float)
    # every cell's mean and std values join the first block's kernel call
    stats = np.array([s[c] for cell in cells for s in (cell.mean, cell.std) for c in columns])
    stat_rows = None
    for block in _blocks(cells, len(columns)):
        # a run: the block's parts of one copy count, whose rows have one width
        runs = [list(run) for _, run in itertools.groupby(block, lambda part: cells[part[0]].n_copies)]
        values = [_trial_values(cells, run, columns, trials) for run in runs]
        flat = [v.ravel() for v in values]
        if stat_rows is None:
            flat.append(stats)
        spelled = words(np.concatenate(flat))
        spelled[0] |= _COMMA  # byte 0 of each value: the separator before it
        if stat_rows is None:
            stat_words = spelled[:, spelled.shape[1] - stats.size :]
            stat_words[0, :: len(columns)] ^= _COMMA ^ _NEWLINE  # one line per mean or std row
            stat_rows = stat_words.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[1:]
        pieces, done = [], 0
        for run, v in zip(runs, values):
            width, count = v.shape
            run_words = spelled[:, done : done + v.size]
            done += v.size
            run_words[0, 2 * count : (width - len(columns)) * count] ^= _COMMA ^ _SEMICOLON  # 2nd to 2N-th eta
            lengths = [b - a for _, a, b in run]
            text = _trial_rows(np.repeat(key_words[[i for i, _, _ in run]], lengths, axis=0), run_words, width)
            start = 0
            for (i, _, b), rows in zip(run, lengths):
                pieces.append(text[start : start + rows])
                start += rows
                if b == len(cells[i].etas):
                    mean, std = stat_rows[2 * i : 2 * i + 2]
                    pieces.append(f"{keys[i]},,,{mean},mean\n{keys[i]},,,{std},std\n".encode())
        yield b"".join(pieces).translate(None, b"\0").decode("ascii")


def _key_words(keys: list[str]) -> np.ndarray:
    """The ASCII bytes of each key as a row of NUL-padded little-endian words."""
    size = -(-max(map(len, keys)) // 8) * 8
    return np.array([key.encode() for key in keys], f"S{size}").view("<u8").reshape(len(keys), -1)


def _trial_values(cells, run, columns, trials) -> np.ndarray:
    """The floats of the trial rows of one run of parts of one copy count, as
    (values, rows): trial index, the 2N reflectivities, then each metric."""
    parts = [(cells[i], a, b) for i, a, b in run]
    draws = parts[0][0].etas[0].size
    values = np.empty((1 + draws + len(columns), sum(b - a for _, a, b in parts)))
    np.concatenate([trials[a:b] for _, a, b in parts], out=values[0])
    values[1 : 1 + draws] = np.concatenate([cell.etas[a:b] for cell, a, b in parts]).reshape(-1, draws).T
    np.concatenate([cell.metrics[c][a:b] for c in columns for cell, a, b in parts], out=values[1 + draws :].reshape(-1))
    return values


def _trial_rows(keys: np.ndarray, spelled: np.ndarray, width: int) -> np.ndarray:
    """NUL-padded trial rows as (rows, words) little-endian words: each row's
    key words, its ``width`` values from the kernel's (w, width * rows)
    words ``spelled``, value by value, then ",trial\\n"."""
    rows, w = len(keys), len(spelled)
    text = np.empty((rows, keys.shape[1] + w * width + 1), "<u8")
    text[:, : keys.shape[1]] = keys
    text[:, keys.shape[1] : -1].reshape(rows, width, w)[...] = spelled.reshape(w, width, rows).transpose(2, 1, 0)
    text[:, -1] = _TRIAL_END
    return text
