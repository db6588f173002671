"""Byte sources backing simulated files.

The paper's experiments read datasets up to 800 GB.  Holding such data in
memory is impossible, so files are backed by a :class:`DataSource` that
can synthesize (or look up) any byte range on demand:

* :class:`ProceduralSource` — element ``i`` has value ``f(i)`` for a
  deterministic vectorized ``f``; reductions over any region then have a
  closed-form or cheaply recomputable ground truth, which the test suite
  exploits to verify collective-computing results at any scale.
* :class:`ArraySource` — backed by a real :class:`numpy.ndarray`; small,
  writable, used by unit tests and the write path.

All offsets/lengths are in **bytes**; sources handle element alignment
internally (a read may start or end mid-element).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import PFSError
from ..obs import metrics

#: Elements per cached generation block (2 MiB of float64).  Aligned
#: blocks make every read of the same file region hit the same cache
#: entries regardless of request boundaries.
DEFAULT_BLOCK_ELEMENTS = 1 << 18
#: Default capacity of the process-global block cache (bytes).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


class BlockCache:
    """An LRU cache of generated value blocks.

    Keys identify a block by its generator function, dtype, block
    geometry and block index, so *every* :class:`ProceduralSource` with
    the same ``func`` shares entries — the traditional-vs-CC comparison
    jobs of the experiments each build their own file object over the
    same synthetic field and would otherwise regenerate every byte.
    Values are read-only numpy arrays.
    """

    __slots__ = ("capacity_bytes", "_blocks", "_nbytes")

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if capacity_bytes < 0:
            raise PFSError(f"negative cache capacity {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._blocks: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._nbytes = 0

    def get(self, key: Tuple) -> Optional[np.ndarray]:
        """The cached block for ``key`` (marking it recently used).
        Hits and misses are the ``pfs.blockcache.*`` metrics."""
        m = metrics.current()
        blk = self._blocks.get(key)
        if blk is None:
            if m is not None:
                m.count("pfs.blockcache.misses")
            return None
        self._blocks.move_to_end(key)
        if m is not None:
            m.count("pfs.blockcache.hits")
        return blk

    def put(self, key: Tuple, block: np.ndarray) -> None:
        """Insert ``block``, evicting least-recently-used entries to fit."""
        if block.nbytes > self.capacity_bytes:
            return
        old = self._blocks.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
        self._blocks[key] = block
        self._nbytes += block.nbytes
        m = metrics.current()
        while self._nbytes > self.capacity_bytes:
            _key, evicted = self._blocks.popitem(last=False)
            self._nbytes -= evicted.nbytes
            if m is not None:
                m.count("pfs.blockcache.evictions")
        if m is not None:
            m.gauge("pfs.blockcache.bytes", self._nbytes)

    def clear(self) -> None:
        """Drop every cached block."""
        self._blocks.clear()
        self._nbytes = 0

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return self._nbytes


#: The process-global cache new :class:`ProceduralSource` instances use
#: by default.  Set to ``None`` to disable block caching globally, or
#: replace with a differently-sized :class:`BlockCache`.
GLOBAL_BLOCK_CACHE: Optional[BlockCache] = BlockCache()


class DataSource:
    """Abstract random-access byte source of a fixed size."""

    #: Total size in bytes.
    size: int

    def read(self, offset: int, nbytes: int) -> bytes:
        """Return the ``nbytes`` bytes starting at ``offset``."""
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset`` (optional capability)."""
        raise PFSError(f"{type(self).__name__} is read-only")

    @property
    def writable(self) -> bool:
        """Whether :meth:`write` is supported."""
        return False

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0:
            raise PFSError(f"negative read range ({offset}, {nbytes})")
        if offset + nbytes > self.size:
            raise PFSError(
                f"read [{offset}, {offset + nbytes}) past end of source (size {self.size})"
            )


class ProceduralSource(DataSource):
    """Elements are generated on demand as ``func(indices)``.

    Parameters
    ----------
    n_elements:
        Logical length of the dataset in elements.
    dtype:
        Element dtype (numpy).
    func:
        Vectorized generator: maps an ``int64`` index array to values.
        Defaults to :func:`default_field`, a cheap deterministic
        pseudo-random field with enough structure for min/max tasks.
    block_elements:
        Granularity of the generation block cache (elements).  Blocks
        are aligned to multiples of this size within the dataset.
    cache:
        ``None`` (default) follows :data:`GLOBAL_BLOCK_CACHE` at read
        time; ``False`` disables caching for this source; a
        :class:`BlockCache` instance uses that cache.

    Because ``func`` is required to be a pure function of the index
    array, blocks are cached keyed by ``(func, dtype, geometry)`` and
    shared between all sources built over the same field.
    """

    def __init__(self, n_elements: int, dtype=np.float64,
                 func: Callable[[np.ndarray], np.ndarray] | None = None,
                 block_elements: int = DEFAULT_BLOCK_ELEMENTS,
                 cache: "Optional[BlockCache] | bool" = None) -> None:
        if n_elements < 0:
            raise PFSError(f"negative element count {n_elements}")
        if block_elements < 1:
            raise PFSError(f"block_elements must be >= 1, got {block_elements}")
        self.dtype = np.dtype(dtype)
        self.n_elements = int(n_elements)
        self.size = self.n_elements * self.dtype.itemsize
        self.func = func if func is not None else default_field
        self.block_elements = int(block_elements)
        self._cache_setting = cache

    def _resolve_cache(self) -> Optional[BlockCache]:
        if self._cache_setting is None:
            return GLOBAL_BLOCK_CACHE
        if self._cache_setting is False:
            return None
        return self._cache_setting

    def _generate(self, first: int, count: int) -> np.ndarray:
        idx = np.arange(first, first + count, dtype=np.int64)
        out = np.asarray(self.func(idx), dtype=self.dtype)
        if out.shape != (count,):
            raise PFSError(
                f"source func returned shape {out.shape}, expected ({count},)"
            )
        return out

    def _block(self, b: int, cache: BlockCache) -> np.ndarray:
        """The (cached) value block ``b``; read-only array."""
        be = self.block_elements
        lo = b * be
        hi = min(self.n_elements, lo + be)
        # The block length participates in the key so a shorter final
        # block of a smaller dataset never aliases a full block of a
        # larger one built over the same field.
        key = (self.func, self.dtype.str, be, b, hi - lo)
        blk = cache.get(key)
        if blk is None:
            blk = self._generate(lo, hi - lo)
            blk.setflags(write=False)
            cache.put(key, blk)
        return blk

    def values(self, first: int, count: int) -> np.ndarray:
        """Generate ``count`` elements starting at element index ``first``."""
        if first < 0 or count < 0 or first + count > self.n_elements:
            raise PFSError(
                f"element range [{first}, {first + count}) outside "
                f"[0, {self.n_elements})"
            )
        cache = self._resolve_cache()
        if cache is None or count == 0:
            return self._generate(first, count)
        be = self.block_elements
        b0 = first // be
        b1 = (first + count - 1) // be
        if b0 == b1:
            blk = self._block(b0, cache)
            s = first - b0 * be
            return blk[s:s + count].copy()
        out = np.empty(count, dtype=self.dtype)
        pos = 0
        for b in range(b0, b1 + 1):
            blk = self._block(b, cache)
            s = max(first, b * be) - b * be
            e = min(first + count, (b + 1) * be) - b * be
            out[pos:pos + e - s] = blk[s:e]
            pos += e - s
        return out

    def read(self, offset: int, nbytes: int) -> memoryview:
        """Bytes-like view of the range — zero-copy over the generated
        (or cached) value arrays.  Callers treat the result as read-only
        bytes; every consumer (``np.frombuffer``, ``bytes.join``,
        slicing, equality) accepts a memoryview."""
        self._check_range(offset, nbytes)
        if nbytes == 0:
            return memoryview(b"")
        item = self.dtype.itemsize
        first_el = offset // item
        last_el = (offset + nbytes - 1) // item  # inclusive
        count = last_el - first_el + 1
        start = offset - first_el * item
        cache = self._resolve_cache()
        if cache is not None:
            be = self.block_elements
            b0 = first_el // be
            if b0 == last_el // be:
                # Single-block read: view the cached block directly (the
                # view keeps the array alive across cache eviction).
                blk = self._block(b0, cache)
                s = first_el - b0 * be
                mv = memoryview(blk)[s:s + count].cast("B")
                return mv[start:start + nbytes]
        vals = self.values(first_el, count)
        return memoryview(vals).cast("B")[start:start + nbytes]


def default_field(idx: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random field in [0, 1) with spatial structure.

    A mixed-congruential hash scaled to [0, 1), plus a smooth sinusoidal
    component so that extrema are not degenerate.  Cheap enough to
    generate hundreds of MB/s inside tests.
    """
    h = (idx * np.int64(2654435761)) & np.int64(0x7FFFFFFF)
    noise = h.astype(np.float64) / float(0x80000000)
    smooth = 0.5 + 0.5 * np.sin(idx.astype(np.float64) * 1e-4)
    return 0.7 * noise + 0.3 * smooth


def linear_field(a: float = 1.0, b: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Factory for ``f(i) = a*i + b`` — sums/means over any region have a
    closed form, used by property tests for exact verification."""
    def func(idx: np.ndarray) -> np.ndarray:
        return a * idx.astype(np.float64) + b
    return func


class ArraySource(DataSource):
    """A writable source backed by an in-memory numpy array.

    The backing array is viewed as raw bytes; reads return copies so
    callers can never alias simulator-internal state.
    """

    def __init__(self, array: np.ndarray) -> None:
        arr = np.ascontiguousarray(array)
        self._bytes = arr.view(np.uint8).reshape(-1).copy()
        self.array_dtype = arr.dtype
        self.size = self._bytes.nbytes

    @property
    def writable(self) -> bool:
        return True

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check_range(offset, nbytes)
        return self._bytes[offset:offset + nbytes].tobytes()

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        self._bytes[offset:offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def as_array(self) -> np.ndarray:
        """Current contents reinterpreted with the original dtype."""
        return self._bytes.view(self.array_dtype).copy()


class CompositeSource(DataSource):
    """Concatenation of sub-sources — a file holding several variables.

    Each part occupies a contiguous byte region; reads spanning part
    boundaries are stitched together.  Writes are forwarded to the
    owning parts (all parts must be writable for :attr:`writable`).
    """

    def __init__(self, parts) -> None:
        self.parts = list(parts)
        if not self.parts:
            raise PFSError("CompositeSource needs at least one part")
        self._starts = []
        pos = 0
        for p in self.parts:
            self._starts.append(pos)
            pos += p.size
        self.size = pos

    @property
    def writable(self) -> bool:
        return all(p.writable for p in self.parts)

    def _segments(self, offset: int, nbytes: int):
        out = []
        pos = offset
        end = offset + nbytes
        for start, part in zip(self._starts, self.parts):
            p_end = start + part.size
            if pos >= p_end or end <= start:
                continue
            lo = max(pos, start)
            hi = min(end, p_end)
            out.append((part, lo - start, hi - lo))
        return out

    def read(self, offset: int, nbytes: int) -> bytes:
        self._check_range(offset, nbytes)
        pieces = [part.read(rel, n)
                  for part, rel, n in self._segments(offset, nbytes)]
        return b"".join(pieces)

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        pos = 0
        for part, rel, n in self._segments(offset, len(data)):
            part.write(rel, data[pos:pos + n])
            pos += n
