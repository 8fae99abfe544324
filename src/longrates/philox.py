"""Philox4x64-10 (Salmon et al., SC 2011) in numpy, under many keys at once.

It is the bit generator of `models.path_rng`, one numpy `Philox` per path.
`_philox` computes the same words for every path of a pass at once, as
`models._uniforms` asks, on seven uint64 lanes that it rewrites in place.
"""

from __future__ import annotations

import numpy as np

# multipliers and key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _philox(key: int, index: np.ndarray, blocks, out: np.ndarray) -> None:
    """Row j of out, (index.size, 4 * len(blocks)), gets for each block in
    turn the four words of Philox4x64-10 on counter (block, 0, 0, 0) under
    the keys (key, index[j]), each as the uniform (word >> 11) * 2**-53.

    A round maps the words (x0, x1, x2, x3) under the keys (k0, k1) to
    (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), and
    the keys then step by (W0, W1). The words, a spare and two scratch
    arrays are seven uint64 lanes of index.size entries, allocated once and
    rewritten in place; k0, the same for every path, stays a Python int.
    """
    mul, add, xor, shift = np.multiply, np.add, np.bitwise_xor, np.right_shift
    x0, x1, x2, x3, spare, a, t = (np.empty(index.size, np.uint64) for _ in range(7))
    m0, m1 = ([np.uint64(v) for v in (m, m & 0xFFFFFFFF, m >> 32)] for m in (_M0, _M1))

    def product(x, m, lo):
        # lo <- lo(m x), x <- hi(m x). With x = x_hi 2^32 + x_lo, and so on
        # for m, m x is hh 2^64 + (mid + hl) 2^32 + (ll & LOW32), for
        # hh = x_hi m_hi, hl = x_hi m_lo, ll = x_lo m_lo, mid = x_lo m_hi + (ll >> 32)
        m, m_lo, m_hi = m
        mul(x, m, lo)
        np.bitwise_and(x, _LOW32, a)
        shift(x, _SHIFT32, x)
        mul(a, m_lo, t)
        shift(t, _SHIFT32, t)
        mul(a, m_hi, a)
        add(a, t, a)  # mid
        mul(x, m_lo, t)  # hl
        mul(x, m_hi, x)  # hh
        add(t, a, t)  # s, mid + hl wrapped to 64 bits
        np.less(t, a, a)
        np.left_shift(a, _SHIFT32, a)
        shift(t, _SHIFT32, t)
        add(x, t, x)
        add(x, a, x)  # hh + (s >> 32) + 2^32 where mid + hl wrapped

    hi_key, lo_key = divmod(_M0 * key, 1 << 64)
    k0 = [np.uint64((key + r * _W0) % (1 << 64)) for r in range(10)]
    k1 = [np.uint64(r * _W1 % (1 << 64)) for r in range(10)]  # k1 - index
    for j, block in enumerate(blocks):
        # Rounds 0 and 1, folded. Round 0 maps (block, 0, 0, 0) under
        # (k0, k1) to (k0, 0, hi(M0 block) ^ k1, lo(M0 block)), as
        # M1 * 0 = 0: only x2 depends on the path. Round 1, under
        # (k0 + W0, k1 + W1), gives (hi(M1 x2) ^ (k0 + W0), lo(M1 x2),
        # hi(M0 k0) ^ lo(M0 block) ^ (k1 + W1), lo(M0 k0)): one product of
        # a path's word, and an x3 that is still the same for every path.
        hi_block, lo_block = divmod(_M0 * block, 1 << 64)
        xor(index, np.uint64(hi_block), x2)
        product(x2, m1, x1)
        xor(x2, k0[1], x0)
        add(index, k1[1], x2)
        xor(x2, np.uint64(hi_key ^ lo_block), x2)
        for r in range(2, 10):
            product(x0, m0, spare)
            add(index, k1[r], a)
            xor(x0, a, x0)
            xor(x0, x3 if r > 2 else np.uint64(lo_key), x0)
            product(x2, m1, x3)
            xor(x2, x1, x2)
            xor(x2, k0[r], x2)
            x0, x1, x2, x3, spare = x2, x3, x0, spare, x1
        for lane, word in enumerate((x0, x1, x2, x3)):
            shift(word, 11, word)
            mul(word, 2.0**-53, out[:, 4 * j + lane])
