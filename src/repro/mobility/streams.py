"""Per-object random streams as columns.

Every object's trajectory is drawn from its own ``default_rng((seed,
oid))`` stream: a PCG64 (XSL-RR 128/64) generator seeded through a
``SeedSequence``.  Both are fixed integer algorithms, so a block of
streams is four uint64 columns — the 128-bit LCG state and increment,
each as high and low words — and every step of seeding, drawing and
jumping runs across the block.  :class:`Streams` yields, row for row,
the very floats ``default_rng((seed, oid)).random`` would, and no
``Generator``, ``BitGenerator`` or ``SeedSequence`` is ever made.

Seeding copies NumPy step for step: the entropy ``(seed, oid)`` becomes
little-endian 32-bit words (``[0]`` for 0); ``mix_entropy`` hashes them
into a 4-word pool, ``generate_state(4, uint64)`` hashes the pool out,
and PCG64's set-seq seeding steps the LCG twice.  The hash constants do
not depend on the data, so only the values are columns.  Entropy
shorter than the pool mixes as if zero-padded to it; a longer one mixes
its extra words in afterwards, so rows are seeded in groups of equal
``max(len(entropy), 4)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_M32 = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF
_M128 = (1 << 128) - 1
_U32 = np.uint64(_M32)

#: ``SeedSequence``'s pool size and hash constants.
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)

#: PCG64's 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _split(value: int) -> tuple[np.uint64, np.uint64]:
    """A 128-bit integer as its high and low uint64 words."""
    value &= _M128
    return np.uint64(value >> 64), np.uint64(value & _M64)


def _mul128(ah, al, bh, bl):
    """``a * b`` mod 2¹²⁸ on (high, low) uint64 words, columns or scalars.

    The low words' full product comes from 32-bit partial products,
    each exact in uint64; the cross terms only reach the high word.
    """
    a0, a1 = al & _U32, al >> 32
    b0, b1 = bl & _U32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _U32) + (p10 & _U32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + al * bh + ah * bl, al * bl


def _add128(ah, al, bh, bl):
    """``a + b`` mod 2¹²⁸ on (high, low) uint64 words."""
    lo = al + bl
    return ah + bh + (lo < bl).astype(np.uint64), lo


_MULT_HI, _MULT_LO = _split(_MULT)


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step: ``state * MULT + inc``."""
    return _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)


def _int_words(value: int) -> list[int]:
    """``SeedSequence``'s 32-bit words of a non-negative integer."""
    if value < 0:
        raise ValueError(f"expected non-negative integer: {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _entropy(seed: int, oids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's assembled entropy ``(seed, oid)`` as uint32 words, zero
    past its length, and the lengths."""
    head = _int_words(seed)
    try:
        values = np.array(oids, dtype=np.uint64)
    except OverflowError:
        # An oid below zero or of 64 bits or more: its words one by one.
        tails = [_int_words(oid) for oid in oids]
        sizes = np.array([len(tail) for tail in tails], dtype=np.intp)
        tail = np.zeros((len(oids), int(sizes.max())), dtype=np.uint32)
        for row, words in enumerate(tails):
            tail[row, :len(words)] = words
    else:
        high = (values >> 32).astype(np.uint32)
        tail = np.column_stack(((values & _U32).astype(np.uint32), high))
        sizes = 1 + (high != 0)
    words = np.empty((len(oids), len(head) + tail.shape[1]), dtype=np.uint32)
    words[:, :len(head)] = head
    words[:, len(head):] = tail
    return words, len(head) + sizes


def _seed(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for rows of
    equal-length entropy (zero-padded to the pool when shorter)."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    words = list(entropy.T)
    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return [low | high << 32 for low, high in zip(state[::2], state[1::2])]


class Streams:
    """``default_rng((seed, oid))`` for a block of oids, a row per oid.

    Holds each stream's PCG64 state and increment as (high, low) uint64
    columns.  :meth:`random` and :meth:`advance` work on any subset of
    rows; their temporaries are a few columns of the subset's length.
    """

    __slots__ = ("_hi", "_lo", "_inc_hi", "_inc_lo")

    def __init__(self, seed: int, oids: Sequence[int]) -> None:
        words, sizes = _entropy(int(seed), [int(oid) for oid in oids])
        n = len(sizes)
        seed_hi, seed_lo, seq_hi, seq_lo = (
            np.empty(n, dtype=np.uint64) for _ in range(4)
        )
        groups = np.maximum(sizes, _POOL)
        for size in np.flatnonzero(np.bincount(groups)).tolist():
            rows = np.flatnonzero(groups == size)
            entropy = np.zeros((rows.size, size), dtype=np.uint32)
            width = min(size, words.shape[1])
            entropy[:, :width] = words[rows, :width]
            (seed_hi[rows], seed_lo[rows],
             seq_hi[rows], seq_lo[rows]) = _seed(entropy)
        # PCG64's set-seq seeding: ``inc = seq << 1 | 1``; from state 0,
        # step (the state becomes ``inc``), add the seed, step.
        self._inc_hi = seq_hi << 1 | seq_lo >> 63
        self._inc_lo = seq_lo << 1 | 1
        self._hi, self._lo = _step(
            *_add128(self._inc_hi, self._inc_lo, seed_hi, seed_lo),
            self._inc_hi, self._inc_lo,
        )

    def __len__(self) -> int:
        return len(self._hi)

    def random(self, rows: np.ndarray, count: int) -> np.ndarray:
        """``count`` doubles in ``[0, 1)`` from each of ``rows``' streams,
        as a ``(len(rows), count)`` array: row ``i`` is what
        ``Generator.random(count)`` yields from stream ``rows[i]``."""
        hi, lo = self._hi[rows], self._lo[rows]
        inc_hi, inc_lo = self._inc_hi[rows], self._inc_lo[rows]
        out = np.empty((count, len(hi)))
        for draw in out:
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            # XSL-RR of the new state, then its top 53 bits as a double.
            x = hi ^ lo
            turn = hi >> 58
            x = x >> turn | x << (-turn & 63)
            np.multiply(x >> 11, 2.0 ** -53, out=draw)
        self._hi[rows], self._lo[rows] = hi, lo
        return out.T

    def advance(self, rows: np.ndarray, deltas) -> None:
        """Jump each of ``rows``' streams ``deltas`` steps ahead, as
        ``bit_generator.advance`` does (``pcg_advance_lcg_128``): the
        LCG's ``delta``-fold composition by binary powers."""
        deltas = np.array(deltas, dtype=np.uint64)
        # ``state -> mult * state + plus`` accumulates the jump; each bit
        # of the deltas composes the LCG's current power of two,
        # ``state -> cur_mult * state + cur``, where it is set.
        cur_hi, cur_lo = self._inc_hi[rows], self._inc_lo[rows]
        zero = np.zeros_like(cur_hi)
        mult_hi, mult_lo = zero, zero + 1
        plus_hi, plus_lo = zero, zero
        cur_mult = _MULT
        while deltas.any():
            bit = (deltas & 1).astype(bool)
            m_hi, m_lo = _split(cur_mult)
            if bit.any():
                hi, lo = _mul128(mult_hi, mult_lo, m_hi, m_lo)
                mult_hi = np.where(bit, hi, mult_hi)
                mult_lo = np.where(bit, lo, mult_lo)
                hi, lo = _add128(
                    *_mul128(plus_hi, plus_lo, m_hi, m_lo), cur_hi, cur_lo
                )
                plus_hi = np.where(bit, hi, plus_hi)
                plus_lo = np.where(bit, lo, plus_lo)
            cur_hi, cur_lo = _mul128(cur_hi, cur_lo, *_split(cur_mult + 1))
            cur_mult = cur_mult * cur_mult & _M128
            deltas >>= 1
        self._hi[rows], self._lo[rows] = _add128(
            *_mul128(mult_hi, mult_lo, self._hi[rows], self._lo[rows]),
            plus_hi, plus_lo,
        )
