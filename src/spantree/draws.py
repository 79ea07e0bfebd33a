"""Scalar draws of a numpy Generator served from blocks of its raw 64-bit words.

A bit generator with a 32-bit half buffer (PCG64, PCG64DXSM, Philox, SFC64)
makes a Generator's scalar draws by these rules, on numpy 2:

* a 32-bit draw takes the buffered high half when `has_uint32` is set, and
  otherwise takes the low half of the next 64-bit output w and buffers w's
  high half; `uinteger` keeps its stale value once the half is used;
* `random()` is (w >> 11) 2^-53 for the next output w, and leaves the half alone;
* `integers(b)`, 2 <= b <= 2^32, is Lemire's method on one 32-bit draw x:
  with m = x b, x is redrawn while m mod 2^32 < (2^32 - b) mod b, and the
  result is m >> 32.  `integers(1)` draws nothing.

`random_raw(k)` returns the next k outputs and leaves the half buffer alone.
So a `WordReader` serves these draws from raw words read in blocks, reading
one way (no draw is given back), and when its `with` block exits, by any
route, it sets the state the scalar calls would have left: its starting
state, with the half buffer it ends with, advanced by the words it used.
Any other rng (MT19937, a test double) gets a `ScalarReader`, with the same
methods, which makes the rng's own calls.

On PCG64 and PCG64DXSM, `advance(k)` moves past k outputs, as k `random()`
calls do, but clears the half buffer; `skip_doubles` puts it back.
"""

from __future__ import annotations

import numpy as np

_LOW = 0xFFFFFFFF
_HALF_BUFFERED = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
_JUMPING = (np.random.PCG64, np.random.PCG64DXSM)   # advance(k) is k outputs on these alone


def skip_doubles(rng, k: int) -> bool:
    """Move `rng` past k `random()` draws, unread, where its bit generator can jump; False where it cannot."""
    if not (isinstance(rng, np.random.Generator) and type(rng.bit_generator) in _JUMPING):
        return False
    bit_generator, half = rng.bit_generator, rng.bit_generator.state
    bit_generator.advance(k)
    bit_generator.state = {**bit_generator.state, "has_uint32": half["has_uint32"], "uinteger": half["uinteger"]}
    return True


def reader(rng, words: int) -> "ScalarReader":
    """A reader of `rng`'s draws for a `with` block that expects to use about `words` raw words."""
    if isinstance(rng, np.random.Generator) and type(rng.bit_generator) in _HALF_BUFFERED:
        return WordReader(rng.bit_generator, words)
    return ScalarReader(rng)


class ScalarReader:
    """`random()`; `below(b)`, which is `integers(b)`; `bits(k)`, k calls of
    `below(2)` as a bool array; `run(bounds)`, [below(b) for b in bounds]
    for non-increasing bounds >= 1."""

    __slots__ = ("_rng", "random")

    def __init__(self, rng):
        self._rng, self.random = rng, rng.random

    def __enter__(self) -> "ScalarReader":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def below(self, b: int) -> int:
        return int(self._rng.integers(b))

    def bits(self, k: int) -> np.ndarray:
        return np.array([self.below(2) for _ in range(k)], bool)

    def run(self, bounds: np.ndarray) -> list[int]:
        return [self.below(b) for b in bounds.tolist()]


class WordReader(ScalarReader):
    """The reader on raw words; its position is the next word `_i` and the half buffer."""

    __slots__ = ("_bg", "_start", "_block", "_words", "_list", "_i", "_pending", "_half")

    def __init__(self, bit_generator, words: int):
        self._bg, self._block, self._start = bit_generator, max(words, 1), bit_generator.state
        self._pending, self._half = bool(self._start["has_uint32"]), self._start["uinteger"]
        self._words, self._list, self._i = np.empty(0, np.uint64), [], 0

    def __exit__(self, *exc) -> None:
        state = self._start
        state["has_uint32"], state["uinteger"] = int(self._pending), self._half
        self._bg.state = state
        self._bg.random_raw(self._i)

    def _read(self, k: int) -> None:
        """Read at least k more words, and no fewer than are already read."""
        block = self._bg.random_raw(max(k, self._block, len(self._words)))
        self._words = np.concatenate((self._words, block)) if len(self._words) else block

    def _extend(self) -> None:
        """List the read words as Python ints for the scalar draws, up to the next one at least."""
        if self._i == len(self._words):
            self._read(1)
        self._list += self._words[len(self._list):].tolist()

    def random(self) -> float:
        i = self._i
        if i >= len(self._list):
            self._extend()
        self._i = i + 1
        return (self._list[i] >> 11) * 2.0**-53

    def below(self, b: int) -> int:
        if b == 1:
            return 0
        while True:
            if self._pending:
                self._pending, x = False, self._half
            else:
                i = self._i
                if i >= len(self._list):
                    self._extend()
                w, self._i, self._pending = self._list[i], i + 1, True
                self._half, x = w >> 32, w & _LOW
            m = x * b
            if m & _LOW >= b or m & _LOW >= (0x100000000 - b) % b:
                return m >> 32

    def bits(self, k: int) -> np.ndarray:
        coins = self._peek(k) >> 31   # below(2) is a 32-bit draw's top bit, and never redraws
        self._skip(k)
        return coins.astype(bool)

    def run(self, bounds: np.ndarray) -> list[int]:
        """The picks, computed on arrays: a block of 32-bit draws at a time, up to the first redraw."""
        picks: list[int] = []
        b = np.asarray(bounds[:np.count_nonzero(bounds > 1)], np.uint64)   # the tail of 1s draws nothing
        while len(b):
            m = self._peek(len(b)) * b
            near = np.flatnonzero(m & _LOW < b)   # the only picks that may need a redraw
            r = len(b)   # the picks before r take one 32-bit draw each
            if len(near):
                biased = near[m[near] & _LOW < (0x100000000 - b[near]) % b[near]]
                r = int(biased[0]) if len(biased) else r
            picks += (m[:r] >> 32).tolist()
            self._skip(r)
            if r == len(b):
                break
            picks.append(self.below(int(b[r])))
            b = b[r + 1:]
        return picks + [0] * (len(bounds) - len(picks))

    def _peek(self, k: int) -> np.ndarray:
        """The next k 32-bit draws, without taking them."""
        i, lead = self._i, int(self._pending)
        end = i + (k - lead + 1) // 2
        if end > len(self._words):
            self._read(end - len(self._words))
        words = self._words[i:end]
        halves = np.empty(lead + 2 * len(words), np.uint64)
        halves[:lead] = self._half
        halves[lead::2], halves[lead + 1::2] = words & _LOW, words >> 32
        return halves[:k]

    def _skip(self, k: int) -> None:
        """Take k 32-bit draws, already read by `_peek`."""
        if k and self._pending:
            self._pending, k = False, k - 1
        if k:
            last = self._i + (k - 1) // 2   # the word whose high half is drawn or buffered last
            self._i, self._pending, self._half = last + 1, k % 2 == 1, int(self._words[last]) >> 32
