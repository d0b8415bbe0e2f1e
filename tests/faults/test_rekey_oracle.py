"""The injector's re-keyed generator against a fresh ``Philox(key=...)``.

:class:`FaultInjector` keeps one Philox bit generator and re-keys it for
every decision instead of constructing a new one.  The fresh construction
is the oracle: for every key, every draw the injector makes must equal the
draw a brand-new ``np.random.Generator(np.random.Philox(key=key))`` makes,
whatever the previous decision left in the buffer.
"""

import hashlib

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology
from repro.faults import FaultInjector, FaultPlan
from repro.faults.inject import _decision_key

#: Largest |z| of the ziggurat's 256 layers; draws beyond it take the tail path.
ZIGGURAT_R = 3.6541528853610088


def _injector(seed: int = 17) -> FaultInjector:
    injector = FaultInjector(FaultPlan(seed=seed))
    Cluster(ring_topology(4)).attach_faults(injector)
    return injector


def _coordinates(count: int):
    """``count`` distinct decision coordinates, as the injector forms them."""
    kinds = ("drop", "jitter", "flip")
    for index in range(count):
        kind = kinds[index % 3]
        tag = f"rs:{index % 7}"
        origin = (index % 5, (index + 1) % 5)
        yield kind, tag, origin, index // 15


def _fresh(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _key(injector, kind, tag, origin, occ):
    return _decision_key(injector.plan.seed, injector._round, kind, tag, origin, occ)


def _assert_same_state(actual: dict, expected: dict) -> None:
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        if isinstance(value, dict):
            _assert_same_state(actual[name], value)
        elif isinstance(value, np.ndarray):
            assert np.array_equal(actual[name], value), name
        else:
            assert actual[name] == value, name


@pytest.mark.parametrize(
    "coords",
    [
        (0, 0, "drop", "rs:0", (0, 1), 0),
        (7, 3, "jitter", "ag:2", (5, 4), 12),
        (2**40, 19, "flip", "rs:seg1:3", (np.int64(3), 2), 1),
    ],
)
def test_decision_key_is_the_digest_of_the_tuple_repr(coords):
    token = repr(tuple(coords)).encode("ascii")
    digest = hashlib.blake2b(token, digest_size=16).digest()
    assert np.array_equal(
        _decision_key(*coords), np.frombuffer(digest, dtype=np.uint64)
    )


def test_scalar_uniforms_match_a_fresh_generator():
    injector = _injector()
    for coords in _coordinates(600):
        injector._rekey(*coords)
        expected = _fresh(_key(injector, *coords))
        assert injector._gen.random() == expected.random()
        assert injector._gen.random() == expected.random()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 13, 64, 257])
def test_uniform_blocks_match_a_fresh_generator(n):
    # n on and off Philox's 4-word block boundary.
    injector = _injector()
    for coords in _coordinates(200):
        draws = injector._uniforms(*coords, n)
        assert np.array_equal(draws, _fresh(_key(injector, *coords)).random(n))


def test_normals_match_a_fresh_generator_through_every_ziggurat_path():
    injector = _injector()
    draws = []
    for coords in _coordinates(10_000):
        z = injector._normal(*coords)
        assert z == _fresh(_key(injector, *coords)).standard_normal()
        draws.append(z)
    for coords in _coordinates(100):
        injector._rekey(*coords)
        stream = injector._gen.standard_normal(200)
        expected = _fresh(_key(injector, *coords)).standard_normal(200)
        assert np.array_equal(stream, expected)
        draws.extend(stream)
    # The fixed keys are known to reach the tail; rejections are far more
    # frequent than tail draws, so both slow paths ran.
    assert np.sum(np.abs(draws) > ZIGGURAT_R) > 0


def test_rekey_after_a_partly_used_buffer_leaks_nothing():
    injector = _injector()
    coords = list(_coordinates(40))
    for previous, current in zip(coords, coords[1:]):
        injector._rekey(*previous)
        # Leave leftover buffer words and a cached half word behind.
        injector._gen.random(5)
        injector._gen.integers(0, 2**32, dtype=np.uint32)
        state = injector._philox.state
        assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
        key = _key(injector, *current)
        injector._rekey(*current)
        _assert_same_state(injector._philox.state, np.random.Philox(key=key).state)
        assert np.array_equal(injector._uniforms(*current, 7), _fresh(key).random(7))


def test_rounds_and_seeds_enter_the_key():
    injector = _injector(seed=1)
    coords = ("drop", "rs:0", (0, 1), 0)
    first = injector._uniforms(*coords, 4)
    injector.begin_round(1)
    assert not np.array_equal(first, injector._uniforms(*coords, 4))
    assert not np.array_equal(first, _injector(seed=2)._uniforms(*coords, 4))
