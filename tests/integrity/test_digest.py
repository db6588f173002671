"""CRC32C and canonical payload digests."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.metadata import PartialResult
from repro.dataspace import LogicalBlock
from repro.integrity import (DIGEST_NBYTES, crc32c, digest, partial_digest,
                             payload_digest)


def _reference_crc32c(data, crc=0):
    """Bytewise CRC32C, one bit at a time: the oracle for the kernel."""
    crc ^= 0xFFFFFFFF
    for byte in bytes(data):
        crc ^= byte
        for _ in range(8):
            crc = crc >> 1 ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _random_bytes(rng, n):
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


# -- crc32c -----------------------------------------------------------------

def test_crc32c_check_vector():
    # The canonical CRC32C check value (RFC 3720 appendix B.4).
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0


@pytest.mark.parametrize("data, expected", [
    (bytes(32), 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
    (bytes(range(31, -1, -1)), 0x113FDB5C),
])
def test_crc32c_rfc3720_vectors(data, expected):
    # RFC 3720 appendix B.4: 32 zeros, 32 ones, incrementing, decrementing.
    assert crc32c(data) == expected
    assert _reference_crc32c(data) == expected


def test_crc32c_matches_reference_on_every_short_length():
    rng = np.random.default_rng(20150901)
    for n in range(301):
        data = _random_bytes(rng, n)
        init = int(rng.integers(0, 2 ** 32))
        assert crc32c(data, init) == _reference_crc32c(data, init), n


@pytest.mark.parametrize("n", [
    digest._LEAF - 1, digest._LEAF, digest._LEAF + 1,
    digest._CHUNK - 1, digest._CHUNK, digest._CHUNK + 1,
    (1 << 20) + 13,
])
def test_crc32c_matches_reference_at_leaf_and_chunk_edges(n):
    rng = np.random.default_rng(n)
    data = _random_bytes(rng, n)
    init = int(rng.integers(0, 2 ** 32))
    assert crc32c(data, init) == _reference_crc32c(data, init)


def test_crc32c_accepts_bytes_like():
    # Any buffer digests as its C-order bytes, read-only or not,
    # contiguous or not, whatever the dtype.
    rng = np.random.default_rng(7)
    raw = _random_bytes(rng, 3 * digest._CHUNK + 40)
    frozen = np.frombuffer(raw, dtype=np.uint8)
    floats = rng.standard_normal(1000)
    grid = floats.reshape(40, 25)
    inputs = [
        bytearray(raw), memoryview(raw), frozen, frozen.copy(), floats,
        grid,
        # Non-contiguous: strided and transposed views.
        frozen[::3], memoryview(raw)[1::2], grid[:, ::2], grid.T,
        memoryview(grid)[::2],
    ]
    for x in inputs:
        assert crc32c(x) == crc32c(bytes(x))


def test_crc32c_chaining_matches_concatenation():
    data = bytes(range(256)) * 5
    for split in (0, 1, 7, 8, 9, 255, len(data)):
        a, b = data[:split], data[split:]
        assert crc32c(b, crc32c(a)) == crc32c(data)


def test_crc32c_chaining_across_chunk_boundaries():
    rng = np.random.default_rng(11)
    data = _random_bytes(rng, 2 * digest._CHUNK + 777)
    whole = crc32c(data)
    splits = [digest._CHUNK - 1, digest._CHUNK, digest._CHUNK + 1,
              *rng.integers(0, len(data), 12)]
    for split in splits:
        a, b = data[:split], data[split:]
        assert crc32c(b, crc32c(a)) == whole, split
    cuts = sorted(int(c) for c in rng.integers(0, len(data), 5))
    crc = 0
    for lo, hi in zip([0, *cuts], [*cuts, len(data)]):
        crc = crc32c(data[lo:hi], crc)
    assert crc == whole


def test_crc32c_tables_are_built_on_first_use():
    # ``import repro`` imports the digest module; building the tables
    # there would tax every program's start-up, digest or not.
    code = ("import repro\n"
            "from repro.integrity import digest\n"
            "assert digest._tables.cache_info().currsize == 0\n"
            "digest.crc32c(b'x')\n"
            "assert digest._tables.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], check=True)


# -- payload_digest ---------------------------------------------------------

def test_payload_digest_is_fixed_width():
    for payload in (None, 0, 1.5, b"x", "x", (), {"k": 1}):
        assert len(payload_digest(payload)) == DIGEST_NBYTES


def test_payload_digest_type_tagged():
    # Same "emptiness"/"zeroness", different types: all must differ,
    # or a corruption that changes a value's type could go unseen.
    digests = [payload_digest(p)
               for p in (None, False, 0, 0.0, b"", "", (), {})]
    assert len(set(digests)) == len(digests)


def test_payload_digest_covers_array_dtype_and_shape():
    a = np.arange(6, dtype=np.float64)
    assert payload_digest(a) == payload_digest(a.copy())
    assert payload_digest(a) != payload_digest(a.reshape(2, 3))
    assert payload_digest(a) != payload_digest(a.astype(np.float32))
    flipped = a.copy()
    flipped[3] = -flipped[3]
    assert payload_digest(a) != payload_digest(flipped)


def test_payload_digest_tags_buffers_with_their_byte_count():
    # A memoryview's len() counts items, not bytes: the digest must not
    # depend on which bytes-like wrapper carries the same bytes.
    floats = np.arange(2.0)
    raw = floats.tobytes()
    assert payload_digest(memoryview(floats)) == payload_digest(raw)
    assert (payload_digest(memoryview(floats.reshape(2, 1)))
            == payload_digest(bytearray(raw)))
    assert payload_digest(memoryview(raw)[::2]) == payload_digest(raw[::2])


def test_payload_digest_dict_insertion_order_independent():
    fwd = {"a": 1, "b": 2.5}
    rev = {"b": 2.5, "a": 1}
    assert payload_digest(fwd) == payload_digest(rev)
    assert payload_digest(fwd) != payload_digest({"a": 1, "b": 2.0})


# -- partial_digest ---------------------------------------------------------

def _partial(**kw):
    defaults = dict(dest_rank=3, iteration=1,
                    blocks=(LogicalBlock((0, 0), (2, 4)),),
                    payload=np.arange(8, dtype=np.float64),
                    payload_nbytes=64)
    defaults.update(kw)
    return PartialResult(**defaults)


def test_partial_digest_excludes_the_digest_field():
    # Stamping must be idempotent: the digest of a stamped partial
    # equals the digest of the unstamped one, so receivers can verify
    # without stripping the stamp first.
    p = _partial()
    stamp = partial_digest(p)
    stamped = PartialResult(p.dest_rank, p.iteration, p.blocks, p.payload,
                            p.payload_nbytes, digest=stamp)
    assert partial_digest(stamped) == stamp


def test_partial_digest_covers_provenance_and_payload():
    base = partial_digest(_partial())
    assert partial_digest(_partial(dest_rank=4)) != base
    assert partial_digest(_partial(iteration=2)) != base
    corrupted = np.arange(8, dtype=np.float64)
    corrupted[0] += 2.0 ** -40
    assert partial_digest(_partial(payload=corrupted)) != base


# -- golden digests ---------------------------------------------------------
# Pinned hex digests of the payloads that actually ship.  Sender and
# receiver must keep agreeing across versions, so a change to the
# canonical stream (one byte anywhere) fails here.

_WINDOW = np.frombuffer(bytes(range(256)) * 4, dtype=np.uint8)
_PIECES = [(4096, _WINDOW[0:64]), (4224, _WINDOW[128:320]),
           (5000, _WINDOW[1000:1003])]
_BLOCKS = (LogicalBlock((0, 0), (2, 4)), LogicalBlock((2, 0), (1, 4)))


@pytest.mark.parametrize("payload, hexdigest", [
    # The resilient wire tuple (window key, raw pieces) and its payload.
    (((2, 1), _PIECES), "c0468839"),
    (_PIECES, "97619340"),
    ({"a": [1, 2.5, (None, True)], "b": {"x": b"xy", "y": "h\u00e9llo"},
      3: np.arange(3, dtype=np.int32).reshape(3, 1)}, "3f6f7d34"),
    # One scalar per type tag.
    (None, "bf7ef1ca"), (True, "e47f9043"), (False, "151a27db"),
    (42, "debc2b96"), (-7, "6e26030c"), (np.int64(5), "6f597dae"),
    (2.5, "510ec8c3"), (np.float32(0.1), "866e05a6"),
    (b"bytes", "e1ed69bc"), (bytearray(b"bytes"), "e1ed69bc"),
    ("str", "8329b684"),
])
def test_payload_digest_golden(payload, hexdigest):
    assert payload_digest(payload).hex() == hexdigest


def test_partial_digest_golden():
    p = _partial(blocks=_BLOCKS)
    assert partial_digest(p).hex() == "d12bcee2"
    stamped = PartialResult(p.dest_rank, p.iteration, p.blocks, p.payload,
                            p.payload_nbytes, digest=partial_digest(p))
    assert partial_digest(stamped).hex() == "d12bcee2"
    loc = PartialResult(dest_rank=0, iteration=4,
                        blocks=(LogicalBlock((1, 2, 3), (4, 5, 6)),),
                        payload=(np.float64(-2.5), np.int64(17)),
                        payload_nbytes=16)
    assert partial_digest(loc).hex() == "672e6cfc"
