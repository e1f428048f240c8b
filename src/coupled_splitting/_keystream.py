"""numpy's keyed permutation stream, for many keys in one call.

`np.random.default_rng((seed, counter)).permutation(n)` hashes the uint32
words of seed and counter into a SeedSequence pool, expands the pool into a
PCG64 state, and shuffles arange(n) by Fisher-Yates with draws from
`random_interval`: 32-bit outputs (the low half of each 64-bit output, then
its high half) masked to the smallest all-ones mask above the bound and
rejected when they exceed it. This module repeats those steps exactly,
vectorized over keys: the pool hash in uint32 arithmetic, PCG64 in 128-bit
arithmetic on pairs of uint64 limbs, and the shuffle on a fixed number of
pre-generated words per key. A key that rejects more often than those words
allow is reported, and its order must be drawn the slow way.
"""

from __future__ import annotations

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_M32 = 0xFFFFFFFF

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# PCG64's 128-bit multiplier, as high and low limbs, and the low limb's halves
_MUL_HI, _MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MUL_LO_0, _MUL_LO_1 = _MUL_LO & _M32, _MUL_LO >> 32

# A shuffle of n makes n - 1 draws, and a mask rejects at most about one word
# in two, so each key gets the 2 (n - 1 + SPARE_OUTPUTS) words of that many
# 64-bit outputs; it runs out only when it rejects far more often than that
SPARE_OUTPUTS = 2
# keys generated together: bounds the temporaries of one call
CHUNK_KEYS = 4096


def _words(v: int) -> list:
    """SeedSequence's uint32 words of a nonnegative integer, least
    significant first; zero is one word."""
    out = [v & _M32]
    v >>= 32
    while v:
        out.append(v & _M32)
        v >>= 32
    return out


def _hash_consts(count: int, init: int, mult: int) -> list:
    """The multiplier pairs (before, after) of successive hash steps; the
    running constant never depends on the data."""
    out, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _M32
        out.append((_U32(h), _U32(nxt)))
        h = nxt
    return out


def _hash(v, consts):
    before, after = consts
    v = (v ^ before) * after
    return v ^ (v >> _U32(16))


def _mix(x, y):
    r = _U32(_MIX_L) * x - _U32(_MIX_R) * y
    return r ^ (r >> _U32(16))


def _pool(entropy: np.ndarray) -> list:
    """SeedSequence.pool for each row of a (K, L) uint32 entropy array, as
    four uint32 columns."""
    K, L = entropy.shape
    consts = iter(_hash_consts(_POOL + _POOL * (_POOL - 1) + _POOL * max(L - _POOL, 0), _INIT_A, _MULT_A))
    zero = np.zeros(K, dtype=_U32)
    mixer = [_hash(entropy[:, i] if i < L else zero, next(consts)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hash(mixer[src], next(consts)))
    for src in range(_POOL, L):
        for dst in range(_POOL):
            mixer[dst] = _mix(mixer[dst], _hash(entropy[:, src], next(consts)))
    return mixer


def _seed_state(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64) from the pool columns."""
    words = [_hash(pool[i % _POOL], c) for i, c in enumerate(_hash_consts(8, _INIT_B, _MULT_B))]
    return [words[2 * i].astype(_U64) | (words[2 * i + 1].astype(_U64) << _U64(32)) for i in range(4)]


def _mul_hi(a):
    """High limb of the 128-bit product of uint64 limbs a and _MUL_LO."""
    m = _U64(_M32)
    a0, a1 = a & m, a >> _U64(32)
    p00, p01 = a0 * _U64(_MUL_LO_0), a0 * _U64(_MUL_LO_1)
    p10, p11 = a1 * _U64(_MUL_LO_0), a1 * _U64(_MUL_LO_1)
    mid = (p00 >> _U64(32)) + (p01 & m) + (p10 & m)
    return p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * multiplier + inc mod 2^128."""
    prod_lo = lo * _U64(_MUL_LO)
    new_lo = prod_lo + inc_lo
    carry = (new_lo < prod_lo).astype(_U64)
    return _mul_hi(lo) + lo * _U64(_MUL_HI) + hi * _U64(_MUL_LO) + inc_hi + carry, new_lo


def _draw_words(state: list, count: int) -> np.ndarray:
    """The first 2 * count 32-bit draws of PCG64 seeded with each key's
    generate_state words (s_hi, s_lo, inc_hi, inc_lo), as (K, 2 count)."""
    s_hi, s_lo, i_hi, i_lo = state
    inc_hi = (i_hi << _U64(1)) | (i_lo >> _U64(63))
    inc_lo = (i_lo << _U64(1)) | _U64(1)
    # seeding: one step from zero (which gives inc), add the seed, one step
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo).astype(_U64)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    out = np.empty((hi.size, 2 * count), dtype=_U32)
    for k in range(count):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: xor the halves and rotate right by the top 6 bits
        x = hi ^ lo
        rot = hi >> _U64(58)
        v = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        out[:, 2 * k] = v
        out[:, 2 * k + 1] = v >> _U64(32)
    return out


def _shuffle(words: np.ndarray, n: int) -> tuple:
    """Fisher-Yates on arange(n) per row with masked-rejection draws from
    that row's words. Returns the orders and which rows had words enough."""
    K, W = words.shape
    perm = np.tile(np.arange(n), (K, 1))
    used = np.zeros(K, dtype=np.intp)
    ok = np.ones(K, dtype=bool)
    every = np.arange(K)
    j = np.zeros(K, dtype=np.intp)
    for i in range(n - 1, 0, -1):
        mask = _U32((1 << i.bit_length()) - 1)
        rows = every
        while rows.size:
            at = used[rows]
            short = at >= W
            if short.any():
                ok[rows[short]] = False
                j[rows[short]] = i
                rows, at = rows[~short], at[~short]
            v = words[rows, at] & mask
            used[rows] = at + 1
            hit = v <= i
            j[rows[hit]] = v[hit]
            rows = rows[~hit]
        drawn = perm[every, j]
        perm[every, j] = perm[:, i]
        perm[:, i] = drawn
    return perm, ok


def permutations(seeds, start: int, count: int, n: int) -> tuple:
    """Orders of every key (seeds[s], start + c) for c < count.

    Returns an (S, count, n) array whose row [s, c] equals
    np.random.default_rng((seeds[s], start + c)).permutation(n), and an
    (S, count) mask of the rows that hold it; the other rows ran out of
    pre-generated words (or have counters past 2^64) and are unset.
    """
    orders = np.empty((len(seeds), count, n), dtype=np.intp)
    ok = np.zeros((len(seeds), count), dtype=bool)
    if start + count > 2**64 or not count:
        return orders, ok
    counters = np.arange(count, dtype=_U64) + _U64(start)
    low, high = (counters & _U64(_M32)).astype(_U32), (counters >> _U64(32)).astype(_U32)
    # counters below 2^32 hash as one word, later ones as two
    cut = min(max(2**32 - start, 0), count)
    spans = [(0, cut, low[:cut, None]), (cut, count, np.stack([low[cut:], high[cut:]], axis=1))]
    by_len = {}
    for s, seed in enumerate(seeds):
        by_len.setdefault(len(_words(int(seed))), []).append(s)
    for rows in by_len.values():
        seed_words = np.array([_words(int(seeds[s])) for s in rows], dtype=_U32)
        rows = np.asarray(rows)
        for a, b, counter_words in spans:
            C = b - a
            for lo in range(0, len(rows) * C, CHUNK_KEYS):
                row, col = np.divmod(np.arange(lo, min(lo + CHUNK_KEYS, len(rows) * C)), C)
                entropy = np.concatenate([seed_words[row], counter_words[col]], axis=1)
                perm, good = _shuffle(_draw_words(_seed_state(_pool(entropy)), n - 1 + SPARE_OUTPUTS), n)
                orders[rows[row], a + col] = perm
                ok[rows[row], a + col] = good
    return orders, ok
