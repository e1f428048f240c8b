"""CSV text of float64 tables, each cell byte for byte as float.__repr__
writes it, with no Python work per value.

The digits are Ryu's (U. Adams, "Ryu: Fast Float-to-String Conversion",
PLDI 2018): the shortest decimal that reads back as the same double, the
nearest one when there are several, found in 64-bit integer arithmetic on
whole uint64 arrays. Only Ryu's e2 < 0 half is here: a finite value of
magnitude at least 2**54, which repr writes in exponential notation, takes
its digits from float.__repr__ instead. The layout is repr's: with the
value 0.d1d2...dn * 10**decpt, fixed notation when -4 < decpt <= 16 and
d1.d2...dne+XX otherwise; zero keeps its sign ("-0.0"), and the infinities
and NaN are fixed strings.

Each cell has a 32-byte slot of a canvas of little-endian uint64 words: a
24-byte body, which holds the separator, sign, digits and point
right-aligned, then an 8-byte exponent part, left-aligned. The digits go in
four at a time from a table, and the point by shifting whole words. A mask
of the same words, 0x01 in each byte a cell uses, packs the canvas into text
by one boolean index.
"""

from __future__ import annotations

import functools

import numpy as np

# canvas bytes (cell slots and row tails) laid out at a time; a chunk's
# transient arrays come to about six times this. Twice the size is about
# 12% faster but raised rp-expect's peak RSS by 4.5% (see BENCH_28.json).
CSV_CHUNK_BYTES = 1 << 17

_U64 = np.uint64
_W = np.dtype("<u8")  # a canvas word: byte i of a slot is bits 8i.. of its word
_LOW32 = _U64(0xFFFFFFFF)
_INF = _U64(0x7FF << 52)  # the bits of inf; NaNs lie above
_TWO54 = _U64((1023 + 54) << 52)  # the bits of 2.0**54
# Ryu's powers of five scaled to 125 bits; its e2 < 0 half reads rows 0..325
_POW5_BITS = 125
_POW5_ROWS = 326
_POW10 = np.array([10**t for t in range(20)], dtype=_U64)

# a cell's slot: a body of three words (24 bytes), then the exponent word
_BODY = 24
_SLOT = 4
_ALL = (1 << 64) - 1
_ONES = 0x0101010101010101
_EXP_BIAS = 400  # exponent x is entry x + _EXP_BIAS of the exponent tables


@functools.cache
def _quads() -> np.ndarray:
    """"0000".."9999" as four ASCII digits, the first in the lowest byte."""
    t = np.arange(10_000, dtype=np.uint32)
    return sum((48 + t // 10**p % 10) << np.uint32(8 * (3 - p)) for p in range(4)).astype("<u4")


@functools.cache
def _point_tables() -> tuple:
    """For f = 0..20 fraction digits, with the point at body byte 23 - f,
    three words each: the bytes below the point, the bytes above it, and
    the point itself; f = 0 (no point) keeps every byte."""
    below, above, point = (np.zeros((21, 3), dtype=_U64) for _ in range(3))
    above[0] = _ALL
    for f in range(1, 21):
        for k in range(3):
            at = _BODY - 1 - f - 8 * k
            below[f, k] = (1 << 8 * min(max(at, 0), 8)) - 1
            above[f, k] = _ALL ^ ((1 << 8 * min(max(at + 1, 0), 8)) - 1)
            point[f, k] = ord(".") << 8 * at if 0 <= at < 8 else 0
    return below, above, point


@functools.cache
def _exponent_tables() -> tuple:
    """For x in -399..399, at x + _EXP_BIAS: repr's exponent part
    "e%+03d" % x as one word, the mask of its bytes and their count; entry 0
    is none."""
    parts = [b""] + [b"e%+03d" % x for x in range(1 - _EXP_BIAS, _EXP_BIAS)]
    word = np.array([int.from_bytes(p, "little") for p in parts], dtype=_U64)
    size = np.array([len(p) for p in parts])
    used = np.array([_ONES & ((1 << 8 * n) - 1) for n in size.tolist()], dtype=_U64)
    return word, used, size


@functools.cache
def _used_table() -> np.ndarray:
    """For a body whose first used byte is s = 0..24: 0x01 in each byte of
    its three words from s on."""
    return np.array([[_ONES & ~((1 << 8 * min(max(s - 8 * k, 0), 8)) - 1) for k in range(3)] for s in range(25)], dtype=_U64)




@functools.cache
def _pow5_limbs() -> tuple:
    """floor(5**i * 2**(125 - bitlen(5**i))), that is 5**i scaled to exactly
    125 bits, for i < 326, computed from Python ints: four uint64 arrays of
    its 32-bit limbs, lowest first."""
    limbs = np.empty((4, _POW5_ROWS), dtype=_U64)
    for i in range(_POW5_ROWS):
        p = 5**i
        shift = p.bit_length() - _POW5_BITS
        v = p >> shift if shift >= 0 else p << -shift
        limbs[:, i] = [(v >> (32 * t)) & 0xFFFFFFFF for t in range(4)]
    return tuple(limbs)


def _shift128(lo, hi, dist):
    """The low 64 bits of (hi * 2**64 + lo) >> dist, for 0 < dist < 64."""
    return (hi << (_U64(64) - dist)) | (lo >> dist)


def _mul_shift_all(m2, b, dist, mm_shift) -> tuple:
    """Ryu's mulShiftAll64: with B the scaled power of five whose limbs are
    b, vr, vp and vm are floor(m * B / 2**(dist + 65)) for m = 4*m2,
    4*m2 + 2 and 4*m2 - 1 - mm_shift. It forms P = 2*m2*B once, in 32-bit
    columns so that no uint64 overflows, as words lo, mid and hi, and gets
    the other two products by adding or subtracting B."""
    m = m2 << _U64(1)
    a = (m & _LOW32, m >> _U64(32))
    del m
    # column c sums the carry, the high halves of the products a_i * b_k
    # with i + k = c - 1 and the low halves of those with i + k = c
    col, carry, high = [], 0, []
    for c in range(6):
        t = sum(high, carry)
        high = []
        for i in (0, 1):
            if 0 <= c - i < 4:
                v = a[i] * b[c - i]
                t = t + (v & _LOW32)
                high.append(v >> _U64(32))
        col.append(t & _LOW32)
        carry = t >> _U64(32)
    del a, v, t, carry, high
    lo, mid, hi = (col[2 * w] | (col[2 * w + 1] << _U64(32)) for w in range(3))
    del col
    b_lo = b[0] | (b[1] << _U64(32))
    b_hi = b[2] | (b[3] << _U64(32))
    vr = _shift128(mid, hi, dist)
    # P + B, each carry moving up one word
    low = lo + b_lo
    middle = mid + (b_hi + (low < lo))
    vp = _shift128(middle, hi + (middle < mid), dist)
    # P - B when mm_shift is 1, else (2P - B) / 2
    low = lo - b_lo
    middle = mid - (b_hi + (low > lo))
    vm = _shift128(middle, hi - (middle > mid), dist)
    del low, middle
    at = np.flatnonzero(~mm_shift)
    if at.size:
        lo, mid, hi = lo[at] << _U64(1), (mid[at] << _U64(1)) | (lo[at] >> _U64(63)), (hi[at] << _U64(1)) | (mid[at] >> _U64(63))
        low = lo - b_lo[at]
        middle = mid - (b_hi[at] + (low > lo))
        vm[at] = _shift128(middle, hi - (middle > mid), dist[at] + _U64(1))
    return vr, vp, vm


def _shortest(bits: np.ndarray) -> tuple:
    """Ryu's d2d for doubles of magnitude in (0, 2**54), given as uint64 bit
    patterns: the shortest digits D (uint64) and the int64 exponent e with
    value D * 10**e, the nearest such when several are shortest."""
    exp_bits = bits >> _U64(52)
    man = bits & _U64((1 << 52) - 1)
    m2 = np.where(exp_bits != 0, man | _U64(1 << 52), man)
    mm_shift = (man != 0) | (exp_bits <= 1)
    # -e2, with e2 = max(exp_bits, 1) - 1023 - 52 - 2, positive below 2**54
    ne2 = _U64(1077) - np.maximum(exp_bits, _U64(1))
    del exp_bits, man  # each chunk's transient arrays are let go early
    # q = max(0, floor(log10(5**-e2)) - 1) and i = -e2 - q; the products are
    # shifted right by j = q - (bitlen(5**i) - 125), that is dist + 65
    q = ((ne2 * _U64(732923)) >> _U64(20)) - (ne2 > 1)
    e10 = q.astype(np.int64) - ne2.astype(np.int64)
    i = ne2 - q
    del ne2
    dist = q + _U64(_POW5_BITS - 1 - 65) - ((i * _U64(1217359)) >> _U64(19))
    b = [limb.take(i) for limb in _pow5_limbs()]
    del i
    # whether vr and vm are exact (mv and mm times 2**e2 / 10**e10 are
    # integers), which decides ties below; mv = 4*m2 is exact when q <= 1
    accept = (m2 & _U64(1)) == 0
    small = q <= 1
    vr_tz = (q < 63) & (((m2 << _U64(2)) & ((_U64(1) << np.minimum(q, _U64(63))) - _U64(1))) == 0)
    vm_tz = small & accept & mm_shift
    vp_down = small & ~accept
    del q, small
    vr, vp, vm = _mul_shift_all(m2, b, dist, mm_shift)
    del m2, b, dist, mm_shift
    vp -= vp_down
    return _drop_digits(vr, vp, vm, vr_tz, vm_tz, accept, e10)


def _drop_digits(vr, vp, vm, vr_tz, vm_tz, accept, e10) -> tuple:
    """Ryu's digit removal on all values at once. It drops the r trailing
    digits of vr for the largest r with vp // 10**r > vm // 10**r, found by
    one loop over the values that can still drop one, and updates the
    trailing-zero flags and the last dropped digit from r directly; a lower
    bound with trailing zeros then lets more digits go, one at a time.
    Rounds to nearest, an exact tie to even."""
    r = np.zeros(vr.shape, dtype=np.int64)
    at, p, m = slice(None), vp, vm
    while True:
        # once vp // 10**r <= vm // 10**r, so it stays for larger r: the
        # values that stopped stay in the arrays until few values are left
        p, m = p // _U64(10), m // _U64(10)
        go = p > m
        live = np.count_nonzero(go)
        if not live:
            break
        r[at] += go
        if 4 * live < go.size:
            keep = np.flatnonzero(go)
            at, p, m = np.arange(vr.size)[at][keep], p[keep], m[keep]
    scale = _POW10[r]
    scale_1 = _POW10[np.maximum(r - 1, 0)]
    below = vr // scale_1
    vm_r = vm // scale
    vr_tz &= vr == below * scale_1
    vm_tz &= vm == vm_r * scale
    last = np.where(r > 0, below % _U64(10), _U64(0))
    vr, vm, e10 = below // (scale // scale_1), vm_r, e10 + r
    at = np.flatnonzero(vm_tz)
    at = at[vm[at] % _U64(10) == 0]
    while at.size:
        vr_tz[at] &= last[at] == 0
        last[at] = vr[at] % _U64(10)
        vr[at] //= _U64(10)
        vm[at] //= _U64(10)
        e10[at] += 1
        at = at[vm[at] % _U64(10) == 0]
    last[vr_tz & (last == 5) & (vr % _U64(2) == 0)] = 4
    vr += ((vr == vm) & ~(accept & vm_tz)) | (last >= 5)
    return vr, e10


def _ndigits(v: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 below 10**19; zero has none."""
    return np.searchsorted(_POW10, v, side="right")


def _float_cells(x: np.ndarray) -> tuple:
    """The cells of a float64 array as _lines lays them out: (Y, f, width,
    neg, xi), and the masks of its infinities and of its NaNs, whose Y, f
    and width the caller sets."""
    bits = x.view(_U64)
    neg = (bits >> _U64(63)).astype(bool)
    mag = bits & _U64((1 << 63) - 1)
    finite = mag < _INF
    ryu = finite & (mag != 0) & (mag < _TWO54)
    if ryu.all():
        D, e = (v.reshape(x.shape) for v in _shortest(mag.reshape(-1)))
    else:
        D = np.zeros(x.shape, dtype=_U64)
        e = np.zeros(x.shape, dtype=np.int64)
        D[ryu], e[ryu] = _shortest(mag[ryu])
        for at in zip(*np.nonzero(finite & (mag >= _TWO54))):
            # float.__repr__'s digits d1d2...dn and exponent, as D * 10**e
            mant, _, xp = repr(float(x[at])).partition("e")
            digits = mant.lstrip("-").replace(".", "")
            D[at], e[at] = int(digits), int(xp) + 1 - len(digits)
    inf, nan = mag == _INF, mag > _INF
    neg &= ~nan
    del bits, mag, finite, ryu
    nd = _ndigits(D)
    decpt = e + nd
    fixed = (decpt > -4) & (decpt <= 16)
    # fixed notation: D's digits with the point -e from the end, or D * 10**e
    # followed by ".0"; exponential: one digit before the point
    f = np.where(fixed, np.where(e >= 0, 1, -e), nd - 1)
    width = np.where(fixed, np.maximum(decpt, 1), 1) + (f > 0) + f + neg
    up = fixed & (e >= 0)
    D[up] *= _POW10[e[up] + 1]
    xi = np.where(fixed, 0, decpt - 1 + _EXP_BIAS)
    return (D, f, width, neg, xi), inf, nan


def _lines(table: np.ndarray, lead: list, tail: bytes, nan: bytes) -> tuple:
    """The CSV lines of a chunk of rows as one uint8 array, and the length
    of each line."""
    R, F = table.shape
    L = len(lead)
    C = L + F
    Y = np.zeros((R, C), dtype=_U64)
    f = np.zeros((R, C), dtype=np.intp)
    width = np.zeros((R, C), dtype=np.intp)
    neg = np.zeros((R, C), dtype=bool)
    xi = np.zeros((R, C), dtype=np.intp)
    for c, col in enumerate(lead):
        neg[:, c] = col < 0
        Y[:, c] = np.abs(col)
        width[:, c] = np.maximum(_ndigits(Y[:, c]), 1) + neg[:, c]
    special = ()
    if F:
        cells, inf, nan_at = _float_cells(table)
        for whole, part in zip((Y, f, width, neg, xi), cells):
            whole[:, L:] = part
        del cells
        Y[:, L:][inf | nan_at] = f[:, L:][inf | nan_at] = 0
        width[:, L:][inf] = 3 + neg[:, L:][inf]
        width[:, L:][nan_at] = len(nan)
        special = ((inf, b"inf"), (nan_at, nan))

    tail_words = -(-len(tail) // 8)
    row_words = C * _SLOT + tail_words
    canvas = np.empty((R, row_words), dtype=_W)
    used = np.empty((R, row_words), dtype=_W)
    canvas[:, C * _SLOT :] = np.frombuffer(tail.ljust(8 * tail_words, b"\0"), dtype=_W)
    used[:, C * _SLOT :] = np.frombuffer(b"\1" * len(tail) + b"\0" * (-len(tail) % 8), dtype=_W)
    slots = canvas[:, : C * _SLOT].reshape(R, C, _SLOT)
    masks = used[:, : C * _SLOT].reshape(R, C, _SLOT)
    # the digits of Y, right-aligned in the body, four at a time
    quads = canvas.view("<u4")[:, : 2 * C * _SLOT].reshape(R, C, 2 * _SLOT)
    need = -(-int(_ndigits(Y.max())) // 4)
    four = _quads()
    quads[:, :, : _BODY // 4 - need] = four[0]
    y = Y.view(np.int64)
    for t in range(_BODY // 4 - 1, _BODY // 4 - 1 - need, -1):
        q = y // 10_000
        quads[:, :, t] = four.take(y - q * 10_000)
        y = q
    del Y, y
    # the point: the bytes below it move down one (byte 23, which takes the
    # next cell's first byte here, stays)
    body = slots[:, :, :3].reshape(-1)
    shifted = body >> _U64(8)
    shifted[:-1] |= body[1:] << _U64(56)
    body, shifted = body.reshape(R, C, 3), shifted.reshape(R, C, 3)
    below, above, point = _point_tables()
    shifted &= below.take(f, axis=0)
    body &= above.take(f, axis=0)
    body |= shifted
    body |= point.take(f, axis=0)
    slots[:, :, :3] = body
    del f, body, shifted
    # the sign and the separator go in the zero padding before the number
    start = _BODY - width
    flat = canvas.view(np.uint8).reshape(-1)
    base = np.arange(R)[:, None] * (8 * row_words) + np.arange(C) * (8 * _SLOT)
    flat[(base + start)[neg]] = ord("-")
    for at, text in special:
        if text:
            flat[base[:, L:][at][:, None] + np.arange(_BODY - len(text), _BODY)] = np.frombuffer(text, dtype=np.uint8)
    start[:, 1:] -= 1
    flat[(base + start)[:, 1:]] = ord(",")
    masks[:, :, :3] = _used_table().take(start, axis=0)
    word, mask, size = _exponent_tables()
    slots[:, :, 3] = word.take(xi)
    masks[:, :, 3] = mask.take(xi)
    sizes = (_BODY - start + size.take(xi)).sum(axis=1) + len(tail)
    return canvas.view(np.uint8).reshape(-1)[used.view(bool).reshape(-1)], sizes


def csv_lines(table, lead=(), tail: str = "\n", nan: str = "", notes=()) -> str:
    """CSV lines, one per row of the 2-D float64 `table`: the row's entries
    of the integer columns `lead`, then its cells, each written byte for
    byte as float.__repr__ writes the value and a NaN cell as `nan`, joined
    by commas; `tail` ends each line. `notes` holds (row, text) pairs in row
    order, such as a file's header and its closing comment: each text goes,
    as given, before line `row` (after the last line when `row` is the row
    count). A lead column of non-integers is a TypeError, and one whose
    length is not the row count a ValueError. Rows are laid out
    CSV_CHUNK_BYTES of canvas at a time."""
    table = np.asarray(table, dtype=np.float64)
    cols = []
    for col in lead:
        col = np.asarray(col)
        if col.size and col.dtype.kind not in "iu":
            raise TypeError(f"a lead column holds {col.dtype}, not integers")
        if len(col) != len(table):
            raise ValueError(f"a lead column has {len(col)} entries for {len(table)} rows")
        cols.append(col.astype(np.int64))
    tail_b, nan_b = tail.encode("ascii"), nan.encode("ascii")
    step = max(1, CSV_CHUNK_BYTES // (8 * _SLOT * (len(cols) + table.shape[1]) + len(tail_b) + 8))
    notes = list(notes)[::-1]
    pieces = []
    for lo in range(0, table.shape[0], step):
        hi = lo + step
        text, sizes = _lines(table[lo:hi], [col[lo:hi] for col in cols], tail_b, nan_b)
        cut = 0
        while notes and notes[-1][0] < hi:
            row, note = notes.pop()
            end = int(sizes[: row - lo].sum())
            pieces += (text[cut:end].tobytes(), note.encode("utf-8", "surrogateescape"))
            cut = end
        pieces.append(text[cut:].tobytes())
    pieces += [note.encode("utf-8", "surrogateescape") for _, note in notes[::-1]]
    data = b"".join(pieces)
    del pieces
    # notes come back as they were given, undecodable file-name bytes too
    return data.decode("utf-8", "surrogateescape")
