"""Per-object streams as columns equal NumPy's generators, bit for bit.

:class:`~repro.mobility.streams.Streams` reproduces, a row per oid,
``np.random.default_rng((seed, oid))``: its ``random`` draws and its
``bit_generator.advance`` jumps.  The live generators are the oracle.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.figures import BENCH_BASE
from repro.mobility import RandomWaypointModel
from repro.mobility.streams import Streams

#: Seeds of one, two, three and four 32-bit words, and zero.
SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**33 + 5, 2**64 + 1, 10**30)

#: Oids of one, two, three and four words: with a one-word seed the
#: assembled entropy ``(seed, oid)`` is 2, 3, 4 and 5 words long, so a
#: block holds rows below the 4-word pool and rows beyond it.
MIXED_OIDS = (
    0, 1, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**64 + 9,
    2**96 + 17, 10**30, 3, 2**33,
)


def oracle(seed, oids):
    return [np.random.default_rng((seed, oid)) for oid in oids]


def assert_draws_equal(streams, generators, rows, count):
    got = streams.random(np.array(rows, dtype=np.intp), count)
    assert got.shape == (len(rows), count)
    for row, values in zip(rows, got):
        want = generators[row].random(count)
        assert values.tobytes() == want.tobytes(), row


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_entropy_lengths_in_one_block(seed):
    oids = list(MIXED_OIDS) + list(range(100, 140))
    streams, generators = Streams(seed, oids), oracle(seed, oids)
    rows = list(range(len(oids)))
    assert_draws_equal(streams, generators, rows, 70)
    # A subset, then everything again: untouched rows kept their place.
    assert_draws_equal(streams, generators, rows[::3], 5)
    assert_draws_equal(streams, generators, rows, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_advance_per_row_deltas(seed):
    oids = list(MIXED_OIDS)
    deltas = [
        (0, 1, 2, 66, 2**32 + 7, 2**40, 2**63 + 5, 2**64 - 1)[i % 8]
        for i in range(len(oids))
    ]
    streams, generators = Streams(seed, oids), oracle(seed, oids)
    rows = np.arange(len(oids))
    assert_draws_equal(streams, generators, rows.tolist(), 3)
    streams.advance(rows, deltas)
    for generator, delta in zip(generators, deltas):
        generator.bit_generator.advance(delta)
    assert_draws_equal(streams, generators, rows.tolist(), 4)
    # Jump a subset only.
    streams.advance(rows[1::2], [1] * len(rows[1::2]))
    for generator in generators[1::2]:
        generator.bit_generator.advance(1)
    assert_draws_equal(streams, generators, rows.tolist(), 2)


def _oid():
    return st.one_of(
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
        st.integers(2**64, 2**128),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**100)),
    oids=st.lists(_oid(), min_size=1, max_size=12),
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 9),
            st.lists(
                st.one_of(
                    st.integers(0, 3),
                    st.integers(2**32 + 1, 2**64 - 1),
                ),
                min_size=12, max_size=12,
            ),
            st.lists(st.booleans(), min_size=12, max_size=12),
        ),
        min_size=1, max_size=6,
    ),
)
def test_streams_follow_the_generators(seed, oids, ops):
    streams, generators = Streams(seed, oids), oracle(seed, oids)
    for draw, count, deltas, pick in ops:
        rows = [row for row in range(len(oids)) if pick[row]]
        if draw:
            assert_draws_equal(streams, generators, rows, count)
        else:
            streams.advance(
                np.array(rows, dtype=np.intp), [deltas[row] for row in rows]
            )
            for row in rows:
                generators[row].bit_generator.advance(deltas[row])
    assert_draws_equal(streams, generators, list(range(len(oids))), 3)


@pytest.mark.parametrize(
    "seed, oids", [(-1, [0]), (3, [0, -1, 2]), (3, [-(2**70)])]
)
def test_negative_entropy_raises_as_seed_sequence_does(seed, oids):
    with pytest.raises(ValueError):
        np.random.default_rng((seed, min(oids)))
    with pytest.raises(ValueError):
        Streams(seed, oids)


def test_empty_block():
    streams = Streams(1, [])
    assert len(streams) == 0
    assert streams.random(np.arange(0), 4).shape == (0, 4)


#: sha256 of every leg of ``build(range(2_000), 1.0)`` in ``BENCH_BASE``'s
#: space, speed and period, per seed: the worlds the benchmark baselines
#: were measured on.
WORLD_DIGESTS = {
    1: "a137e871eb5178bc14cee4b8062a9ee6ec5e22f1066b0afd694b334e900291f3",
    2: "1ae636f1876164c0807939a7d55eb03385953ced3674ba7cce486d447c9fb6ba",
}


@pytest.mark.parametrize("seed", sorted(WORLD_DIGESTS))
def test_built_worlds_do_not_move(seed):
    model = RandomWaypointModel(
        BENCH_BASE.mean_speed, BENCH_BASE.mean_period, BENCH_BASE.space,
        seed=seed,
    )
    digest = hashlib.sha256()
    fleet = model.build(range(2_000), 1.0)
    for row in range(len(fleet)):
        rows = fleet._legs[row].rows[fleet._lo[row] // 6:fleet._hi[row] // 6]
        digest.update(rows.astype("<f8").tobytes())
    assert digest.hexdigest() == WORLD_DIGESTS[seed]
