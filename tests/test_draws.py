"""The raw-word reader against the Generator calls it stands for, value for value and state for state."""

import numpy as np
import pytest

from spantree.draws import ScalarReader, WordReader, reader

from helpers import plain_state

HALF_BUFFERED = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
# Bounds near 3 * 2^30 redraw about a quarter of their 32-bit draws; 2^32 takes one draw whole.
BOUNDS = [1, 2, 3, 7, 64, 800, 1999, 2**31, 3 * 2**30 + 1, 3 * 2**30 + 12345, 2**32 - 1, 2**32]


def twins(bit_generator, pending_half):
    """Two Generators in one state; with `pending_half`, half of a 64-bit output is buffered."""
    rngs = np.random.Generator(bit_generator(17)), np.random.Generator(bit_generator(17))
    if pending_half:
        for rng in rngs:
            rng.integers(7)
        assert rngs[0].bit_generator.state["has_uint32"] == 1
    return rngs


def same_state(a, b):
    return plain_state(a.bit_generator.state) == plain_state(b.bit_generator.state) and a.random() == b.random()


def script(seed, length):
    """A mixed run of calls: ("random",) or ("below", b)."""
    gen = np.random.default_rng(seed)
    return [("random",) if gen.random() < 0.3 else ("below", BOUNDS[gen.integers(len(BOUNDS))])
            for _ in range(length)]


def scalar_calls(rng, calls):
    return [rng.random() if call[0] == "random" else int(rng.integers(call[1])) for call in calls]


def reader_calls(draw, calls):
    return [draw.random() if call[0] == "random" else draw.below(call[1]) for call in calls]


@pytest.mark.parametrize("bit_generator", HALF_BUFFERED, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("pending_half", [False, True])
class TestStreamRules:
    """Each rule the reader reads raw words by, pinned on this numpy for each half-buffering generator."""

    def test_a_32_bit_draw_takes_the_buffered_half_else_splits_a_word(self, bit_generator, pending_half):
        rng = twins(bit_generator, pending_half)[0]
        bg = rng.bit_generator
        for _ in range(5):
            state = bg.state
            x = int(rng.integers(2**32))
            after = bg.state
            if state["has_uint32"]:
                assert x == state["uinteger"] and after["has_uint32"] == 0
                assert after["uinteger"] == state["uinteger"]   # stale once used
            else:
                bg.state = state
                w = int(bg.random_raw())
                assert (x, after["has_uint32"], after["uinteger"]) == (w & 0xFFFFFFFF, 1, w >> 32)
                bg.state = after

    def test_random_is_the_top_53_bits_of_a_word(self, bit_generator, pending_half):
        rngs = twins(bit_generator, pending_half)
        half = rngs[0].bit_generator.state["has_uint32"], rngs[0].bit_generator.state["uinteger"]
        words = rngs[1].bit_generator.random_raw(9).tolist()
        assert [rngs[0].random() for _ in range(9)] == [(w >> 11) * 2.0**-53 for w in words]
        state = rngs[0].bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == half   # random() leaves the half alone
        assert plain_state(state) == plain_state(rngs[1].bit_generator.state)   # so does random_raw

    @pytest.mark.parametrize("b", BOUNDS)
    def test_integers_is_lemire_on_32_bit_draws(self, bit_generator, pending_half, b):
        rngs = twins(bit_generator, pending_half)
        x_rng = rngs[1]
        for _ in range(40):
            want = int(rngs[0].integers(b))
            if b == 1:
                got = 0   # draws nothing
            else:
                m = int(x_rng.integers(2**32)) * b
                if m % 2**32 < b:
                    while m % 2**32 < (2**32 - b) % b:
                        m = int(x_rng.integers(2**32)) * b
                got = m >> 32
            assert got == want
        assert same_state(*rngs)


@pytest.mark.parametrize("bit_generator", HALF_BUFFERED, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("pending_half", [False, True])
class TestWordReader:
    def test_mixed_calls_and_the_state_they_leave(self, bit_generator, pending_half):
        for seed, (length, words) in enumerate([(0, 1), (1, 1), (5, 1), (300, 4), (300, 1000)]):
            rngs = twins(bit_generator, pending_half)
            calls = script(seed, length)
            want = scalar_calls(rngs[0], calls)
            with reader(rngs[1], words) as draw:
                assert isinstance(draw, WordReader)
                got = reader_calls(draw, calls)
            assert got == want and same_state(*rngs)

    @pytest.mark.parametrize("bounds", [
        np.full(999, 2), np.arange(2000, 0, -1), np.arange(37, 5, -1), np.array([1]), np.array([], int),
        np.array([2**32, 2**32 - 1] + [3 * 2**30 + 1] * 50 + [5, 2, 2, 1, 1]),
    ], ids=["coins", "to-one", "short", "one", "empty", "biased"])
    def test_run_and_keep(self, bit_generator, pending_half, bounds):
        rngs = twins(bit_generator, pending_half)
        lead = script(3, 7)
        want = scalar_calls(rngs[0], lead), [int(rngs[0].integers(b)) for b in bounds.tolist()]
        with reader(rngs[1], 3) as draw:
            got = reader_calls(draw, lead), draw.run(bounds)
        assert got == want and same_state(*rngs)

    def test_an_exception_settles_the_state(self, bit_generator, pending_half):
        for length in (0, 1, 2, 77):
            rngs = twins(bit_generator, pending_half)
            calls = script(length, length)
            scalar_calls(rngs[0], calls)
            with pytest.raises(KeyError):
                with reader(rngs[1], 8) as draw:
                    reader_calls(draw, calls)
                    raise KeyError("mid-draw")
            assert same_state(*rngs)


def test_other_rngs_make_their_own_calls():
    rngs = np.random.Generator(np.random.MT19937(3)), np.random.Generator(np.random.MT19937(3))
    calls = script(5, 200)
    want = scalar_calls(rngs[0], calls), [int(rngs[0].integers(b)) for b in range(40, 20, -1)]
    with reader(rngs[1], 10) as draw:
        assert isinstance(draw, ScalarReader)
        got = reader_calls(draw, calls), draw.run(np.arange(40, 20, -1))
    assert got == want and same_state(*rngs)

    class Double:
        def random(self):
            return 0.5

        def integers(self, k):
            return k - 1

    with reader(Double(), 10) as draw:
        assert isinstance(draw, ScalarReader)
        assert (draw.random(), draw.below(9)) == (0.5, 8)
