"""CRC32C digests for stored blocks and wire payloads.

Two digest primitives back the end-to-end integrity layer:

* :func:`crc32c` — the Castagnoli CRC (polynomial ``0x1EDC6F41``,
  reflected ``0x82F63B78``), the checksum real storage stacks use for
  silent-corruption detection (iSCSI, ext4 metadata, Btrfs, RDMA), with
  incremental chaining, so per-stripe-block digests and stitched
  partial-block verification share one code path.  It is a numpy
  kernel that handles every length the same way (see below).
* :func:`payload_digest` — a canonical, type-tagged serialisation of the
  message payloads the simulator actually ships (ndarrays, bytes,
  scalars, tuples/lists/dicts, frozen dataclasses) into one byte
  stream, digested by a single :func:`crc32c` call into a fixed 4-byte
  digest.  Canonicalisation makes the digest a pure function of payload
  *content*: sender and receiver compute identical digests without
  sharing any serialisation state.

Dataclass fields named ``digest`` are excluded from the stream, so
stamping a :class:`~repro.core.metadata.PartialResult` with its own
provenance digest does not change what the digest covers —
``partial_digest(stamped) == partial_digest(unstamped)``.

The kernel relies on the CRC register being linear over GF(2) in the
initial register and the message bits, so the contributions of
separate parts of a message are computed apart and XORed:

* **Leaves.**  ``position[p, b]`` is the register a zero-initialised
  CRC holds at the end of a 64-byte leaf whose only non-zero byte is
  ``b``, at offset ``p``.  One gather and one XOR reduction digest
  every leaf of a chunk.
* **Combine.**  ``shifts[k]`` advances a register over ``2**k`` zero
  bytes: four 256-entry tables, one per register byte, built by
  doubling (zlib's ``crc32_combine`` algebra).  Leaves merge pairwise,
  level by level, up to one register per chunk.
* **Any length.**  Zero bytes on the left leave a zero register at
  zero, so a short leaf or chunk is padded on the left.  The chaining
  value is advanced over the chunk length with the same shift tables
  and XORed in.

Input is digested 64 KiB at a time, so the kernel's temporaries stay
near 1 MiB whatever the input size.  The tables (about 260 KiB) are
built on the first call and kept for the life of the process.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from typing import Any, NamedTuple, Tuple

import numpy as np

#: Reflected CRC32C (Castagnoli) polynomial.
_POLY = 0x82F63B78

#: Bytes of one digest on the wire (a big-endian CRC32C).
DIGEST_NBYTES = 4

#: log2 of the leaf width in bytes (the rows of the position table).
_LEAF_BITS = 6
#: log2 of the chunk size in bytes, which bounds the temporaries.
_CHUNK_BITS = 16
_LEAF = 1 << _LEAF_BITS
_CHUNK = 1 << _CHUNK_BITS
#: Bit offset of each register byte, and the start of its table lane.
_BYTE_SHIFTS = np.arange(0, 32, 8, dtype=np.uint32)
_LANES = np.arange(0, 1024, 256, dtype=np.uint32)


class _Tables(NamedTuple):
    """The kernel's read-only lookup tables (see the module docstring)."""

    #: ``position[p * 256 + b]``: register of byte ``b`` at leaf offset ``p``.
    position: np.ndarray
    #: ``offsets[i] = (i % _LEAF) * 256``: row of byte ``i`` of a padded chunk.
    offsets: np.ndarray
    #: ``shifts[k][j * 256 + b]``: byte ``b`` at register byte ``j``
    #: advanced over ``2**k`` zero bytes, for ``k`` up to ``_CHUNK_BITS``.
    shifts: Tuple[np.ndarray, ...]


def _shift(reg: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every register in ``reg`` (a ``uint32`` array) advanced over the
    zero bytes ``table`` stands for: one lookup per register byte."""
    lookups = table[reg[..., None] >> _BYTE_SHIFTS & 0xFF | _LANES]
    return np.bitwise_xor.reduce(lookups, axis=-1)


@functools.cache
def _tables() -> _Tables:
    """Build the kernel's tables; called on first use, then cached."""
    byte = np.arange(256, dtype=np.uint32)
    step = byte
    for _ in range(8):
        step = step >> 1 ^ (step & 1) * np.uint32(_POLY)
    # The classic table step on each register byte is one zero byte.
    basis = (byte << _BYTE_SHIFTS[:, None]).ravel()
    shifts = [step[basis & 0xFF] ^ basis >> 8]
    for _ in range(_CHUNK_BITS):
        shifts.append(_shift(_shift(basis, shifts[-1]), shifts[-1]))
    # Byte b at offset p: one table step, then _LEAF - 1 - p zero bytes.
    rows = [step]
    for _ in range(_LEAF - 1):
        rows.append(_shift(rows[-1], shifts[0]))
    tables = _Tables(position=np.concatenate(rows[::-1]),
                     offsets=(np.arange(_CHUNK + _LEAF) % _LEAF
                              * 256).astype(np.uint16),
                     shifts=tuple(shifts))
    for table in (tables.position, tables.offsets, *tables.shifts):
        table.flags.writeable = False
    return tables


def _byte_view(data: Any) -> np.ndarray:
    """``data`` (any buffer) as a flat ``uint8`` array over the same
    memory; only non-contiguous input is copied."""
    arr = data if isinstance(data, np.ndarray) else np.asarray(memoryview(data))
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def _chunk_register(chunk: np.ndarray, tables: _Tables) -> np.ndarray:
    """Register of a zero-initialised CRC after ``chunk`` (1 to
    ``_CHUNK`` bytes), padded on the left to whole leaves."""
    n = len(chunk)
    pad = -n % _LEAF
    gathered = np.zeros(pad + n, dtype=np.uint32)
    np.take(tables.position, tables.offsets[pad:pad + n] + chunk,
            out=gathered[pad:])
    reg = np.bitwise_xor.reduce(gathered.reshape(-1, _LEAF), axis=1)
    level = _LEAF_BITS
    while len(reg) > 1:
        if len(reg) % 2:
            reg = np.concatenate((np.zeros(1, dtype=np.uint32), reg))
        reg = _shift(reg[0::2], tables.shifts[level]) ^ reg[1::2]
        level += 1
    return reg


def crc32c(data: Any, crc: int = 0) -> int:
    """CRC32C of ``data`` (any buffer: bytes-like or an ndarray, read as
    its C-order bytes), chainable via ``crc``.

    ``crc32c(b, crc32c(a))`` equals ``crc32c(a + b)``, which is how
    partial-block verification stitches pristine and served bytes
    without materialising the full block.
    """
    tables = _tables()
    buf = _byte_view(data)
    reg = np.array([crc ^ 0xFFFFFFFF], dtype=np.uint32)
    for lo in range(0, len(buf), _CHUNK):
        chunk = buf[lo:lo + _CHUNK]
        n = len(chunk)
        for k in range(n.bit_length()):
            if n >> k & 1:
                reg = _shift(reg, tables.shifts[k])
        reg ^= _chunk_register(chunk, tables)
    return int(reg[0]) ^ 0xFFFFFFFF


def _walk(obj: Any, out: bytearray) -> None:
    """Append one payload node's canonical encoding to ``out``,
    type-tagged so that e.g. ``0``, ``0.0``, ``b""`` and ``()`` all
    encode differently."""
    if obj is None:
        out += b"N"
    elif isinstance(obj, (bool, np.bool_)):
        out += b"t" if obj else b"f"
    elif isinstance(obj, (int, np.integer)):
        out += b"i%d;" % int(obj)
    elif isinstance(obj, (float, np.floating)):
        out += b"d" + struct.pack("<d", float(obj))
    elif isinstance(obj, np.ndarray):
        out += f"a{obj.dtype.str}{obj.shape};".encode("ascii")
        out += memoryview(_byte_view(obj))
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        # Tagged with the byte count (a memoryview's len() counts items).
        raw = _byte_view(obj)
        out += b"b%d;" % len(raw)
        out += memoryview(raw)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s%d;" % len(raw)
        out += raw
    elif isinstance(obj, (tuple, list)):
        out += b"T%d;" % len(obj)
        for item in obj:
            _walk(item, out)
    elif isinstance(obj, dict):
        out += b"D%d;" % len(obj)
        for key in sorted(obj, key=repr):
            _walk(key, out)
            _walk(obj[key], out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [f for f in dataclasses.fields(obj) if f.name != "digest"]
        out += f"C{type(obj).__name__}{len(fields)};".encode("ascii")
        for f in fields:
            _walk(getattr(obj, f.name), out)
    else:
        # Last resort: the repr (deterministic for the simple value
        # objects the simulator ships; never reached by the hot payloads).
        out += b"r" + repr(obj).encode("utf-8", "backslashreplace")


def payload_digest(payload: Any) -> bytes:
    """The canonical 4-byte digest of one wire payload: one
    :func:`crc32c` call over its serialised stream."""
    stream = bytearray()
    _walk(payload, stream)
    return crc32c(stream).to_bytes(DIGEST_NBYTES, "big")


def partial_digest(partial: Any) -> bytes:
    """Provenance digest of one partial result: covers destination,
    iteration, logical blocks and payload — everything except any
    already-stamped ``digest`` field (see module docstring)."""
    return payload_digest(partial)
