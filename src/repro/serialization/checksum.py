"""CRC32 utilities for extent-staged shard writes and mmap restores.

The capture thread checksums every tensor where it lands in the pinned
staging pool, while the bytes are cache-hot; the flush side never hashes a
payload byte again.  The whole-file CRC32 the manifest records is folded
from those per-tensor checksums with :func:`crc32_combine` — what ``zlib``
does internally but does not expose to Python.  The folded result is
bit-identical to ``zlib.crc32`` over the final file, so the restart path
keeps validating shards with a single linear pass.

A CRC32 is a polynomial over GF(2) modulo the CRC-32 polynomial ``P``, and
appending ``n`` zero bytes multiplies it by ``x**(8n) mod P``.  Multiplying
by a fixed polynomial is linear, i.e. a 32x32 bit matrix; the matrix for one
``n`` is built from the 32 operators for power-of-two lengths and memoised,
because a checkpoint has a handful of distinct tensor sizes and folds them
hundreds of times per save.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Tuple

#: Reflected CRC-32 polynomial (the one zlib / PNG / gzip use).
_CRC32_POLY = 0xEDB88320
_MASK = 0xFFFFFFFF

_Operator = Tuple[int, ...]


def _gf2_matrix_times(matrix: _Operator, vector: int) -> int:
    """Multiply a GF(2) 32x32 matrix (tuple of column-wise rows) by a vector."""
    total = 0
    index = 0
    while vector:
        if vector & 1:
            total ^= matrix[index]
        vector >>= 1
        index += 1
    return total


def _multiplier(poly: int) -> _Operator:
    """The matrix of "multiply by ``poly`` mod P".  In the reflected bit order
    bit 31 is ``x**0``, so row 31 is ``poly`` itself and each lower row is the
    one above it times ``x``."""
    rows = [0] * 32
    for index in range(31, -1, -1):
        rows[index] = poly
        poly = (poly >> 1) ^ _CRC32_POLY if poly & 1 else poly >> 1
    return tuple(rows)


def _squarings() -> Tuple[_Operator, ...]:
    """Multipliers by ``x**(2**k) mod P`` for k = 0..31 (``x**(2**32)`` is
    ``x`` again, so longer exponents wrap around the table)."""
    operators = []
    poly = 1 << 30  # x**1
    for _ in range(32):
        operator = _multiplier(poly)
        operators.append(operator)
        poly = _gf2_matrix_times(operator, poly)
    return tuple(operators)


_SQUARINGS = _squarings()

#: ``len2 -> operator`` advancing a CRC over ``len2`` zero bytes.  A miss
#: costs about what an unmemoised combine does (one matrix-vector product per
#: set bit of ``len2``), so a full table is simply started over.
_ZERO_OPERATORS: Dict[int, _Operator] = {}
_ZERO_OPERATORS_LIMIT = 256


def _zero_operator(len2: int) -> _Operator:
    operator = _ZERO_OPERATORS.get(len2)
    if operator is None:
        poly = 1 << 31  # x**0
        bit = 3         # bytes -> bits: x**(8 * len2)
        remaining = len2
        while remaining:
            if remaining & 1:
                poly = _gf2_matrix_times(_SQUARINGS[bit & 31], poly)
            remaining >>= 1
            bit += 1
        operator = _multiplier(poly)
        if len(_ZERO_OPERATORS) >= _ZERO_OPERATORS_LIMIT:
            _ZERO_OPERATORS.clear()
        _ZERO_OPERATORS[len2] = operator
    return operator


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """Combine two CRC32s: ``crc32(a + b) == crc32_combine(crc32(a), crc32(b), len(b))``.

    Equivalent to zlib's (unexposed) ``crc32_combine``: ``crc1`` is advanced
    over ``len2`` virtual zero bytes — one matrix-vector product with the
    memoised operator for ``len2`` — then xor-ed with ``crc2``.
    """
    if len2 < 0:
        raise ValueError("len2 must be >= 0")
    if len2 == 0:
        return crc1 & _MASK
    return (_gf2_matrix_times(_zero_operator(len2), crc1 & _MASK) ^ crc2) & _MASK


def fold_section_checksums(sections: Iterable[Tuple[int, int]], initial: int = 0) -> int:
    """Fold ``(crc, nbytes)`` sections (in file order) into one whole-file CRC32."""
    crc = initial & 0xFFFFFFFF
    for section_crc, nbytes in sections:
        crc = crc32_combine(crc, section_crc, nbytes)
    return crc


def checksum_stream(buffer, chunk_size: int = 8 * 1024 * 1024) -> int:
    """CRC32 of any buffer (bytes, memoryview, mmap) in bounded-memory chunks.

    Streaming over a ``memoryview`` keeps the pass zero-copy: an mmap-backed
    shard is checksummed straight out of the page cache without ever
    materialising a second heap copy of the file.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    view = memoryview(buffer)
    crc = 0
    for start in range(0, len(view), chunk_size):
        crc = zlib.crc32(view[start : start + chunk_size], crc)
    return crc & 0xFFFFFFFF
