"""numpy's ``default_rng(seed).uniform`` stream, bit for bit, without loading
numpy's random module (~15 ms, 5 MB): SeedSequence's hash on Python ints, then
PCG64 (O'Neill, HMC-CS-2014-0905), whose 128-bit states come m at a time by
the m-step map through ``_dd.fold_harmonic``, m doubling up to ``_BLOCK``.
"""

import numpy as np

from ._dd import fold_harmonic
from .measures import _check_int

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 8192  # states per step once doubled; their words stay in cache


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; its constant advances by ``mult`` per call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def _seeded(seed: int):
    """PCG64's (state, increment) once seeded by SeedSequence(seed)."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(v) for v in (words + [0, 0, 0])[:4]]
    for i, src in enumerate([0, 1, 2, 3] + words[4:]):  # pool, then words
        for dst in (d for d in range(4) if d != i):
            y = hashmix(pool[src] if i < 4 else src)
            r = 0xCA01F9DD * pool[dst] - 0x4973F715 * y & _M32
            pool[dst] = r ^ r >> 16
    s = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    state = s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2]
    inc = (s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 & _M128 | 1
    return ((inc + state) * _PCG_MULT + inc) & _M128, inc


def uniform(seed, low: float, high: float, size: int) -> np.ndarray:
    """``default_rng(seed).uniform(low, high, size)``, seed an int >= 0."""
    state, c = _seeded(_check_int(seed, "seed", 0))
    (hi, lo), out = np.empty((2, size), np.uint64), np.empty(size)
    hi[:1], lo[:1] = divmod((state * _PCG_MULT + c) & _M128, 2**64)
    a, m, p = _PCG_MULT, 1, 1
    while p < size:  # states p.. from states p-m.. by the m-step map (a, c)
        t = min(m, size - p)
        h, l = fold_harmonic((hi[p - m:p - m + t], lo[p - m:p - m + t]), a)
        lo[p:p + t] = l + np.uint64(c & _M64)
        hi[p:p + t] = h + (lo[p:p + t] < np.uint64(c & _M64)) + (c >> 64)
        p += t
        if m < _BLOCK:
            a, c, m = a * a & _M128, (a + 1) * c & _M128, 2 * m
    lo ^= hi  # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
    for p in range(0, size, _BLOCK):
        x, rot = lo[p:p + _BLOCK], hi[p:p + _BLOCK] >> np.uint64(58)
        x = x >> rot | x << (-rot & np.uint64(63))
        out[p:p + _BLOCK] = (x >> np.uint64(11)) * 2.0**-53 * (high - low) + low
    return out
