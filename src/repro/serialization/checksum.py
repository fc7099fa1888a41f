"""CRC32 for every payload checksum, and folding for extent-staged writes.

:func:`crc32` is the one CRC32 entry point of the library: the capture, the
incremental dirty scan, the writers, the preamble fold, restore validation
and manifest records all call it.  It returns exactly what ``zlib.crc32``
returns.  When the system's libdeflate loads (``libdeflate_crc32``, the same
reflected CRC-32 polynomial computed with PCLMULQDQ folding, 3–8× zlib 1.2's
table-driven loop on x86-64), buffers of :data:`NATIVE_MIN_BYTES` and more go
through it via :mod:`ctypes`, which drops the GIL for the call as zlib does
above 5 KiB; smaller buffers stay on zlib, whose call is cheaper than the
foreign call's setup.  :data:`CRC32_KERNEL` names the kernel that loaded.
Both kernels produce the same values, so on-disk bytes and recorded
checksums do not depend on which one ran.

The capture thread checksums every tensor where it lands in the pinned
staging pool, while the bytes are cache-hot; the flush side never hashes a
payload byte again.  The whole-file CRC32 the manifest records is folded
from those per-tensor checksums with :func:`crc32_combine` — what ``zlib``
does internally but does not expose to Python.  The folded result is
bit-identical to :func:`crc32` over the final file, so the restart path
keeps validating shards with a single linear pass.

A CRC32 is a polynomial over GF(2) modulo the CRC-32 polynomial ``P``, and
appending ``n`` zero bytes multiplies it by ``x**(8n) mod P``.  Multiplying
by a fixed polynomial is linear, i.e. a 32x32 bit matrix; the matrix for one
``n`` is built from the 32 operators for power-of-two lengths and memoised,
because a checkpoint has a handful of distinct tensor sizes and folds them
hundreds of times per save.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import zlib
from typing import Callable, Dict, Iterable, Optional, Tuple

#: Reflected CRC-32 polynomial (the one zlib / PNG / gzip use).
_CRC32_POLY = 0xEDB88320
_MASK = 0xFFFFFFFF

_Operator = Tuple[int, ...]

#: Smallest buffer handed to libdeflate.  Below it zlib's call wins on the
#: foreign call's setup (x86-64, zlib 1.2.13 vs libdeflate 1.14: 1.9 vs 2.3 µs
#: at 4 KiB, 7.5 vs 4.8 µs at 16 KiB, 27 vs 8 µs at 64 KiB).
NATIVE_MIN_BYTES = 16 * 1024


class _PyBuffer(ctypes.Structure):
    """CPython's ``Py_buffer``: the pointer and length of an exported buffer."""

    _fields_ = [("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
                ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
                ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
                ("format", ctypes.c_char_p), ("shape", ctypes.c_void_p),
                ("strides", ctypes.c_void_p), ("suboffsets", ctypes.c_void_p),
                ("internal", ctypes.c_void_p)]


def _load_libdeflate() -> Optional[Callable[[int, int, int], int]]:
    """``libdeflate_crc32(crc, buffer, len)`` if the library loads (by soname,
    then wherever ``find_library`` points) and agrees with zlib on the CRC-32
    check value; else ``None``."""
    if not hasattr(ctypes, "pythonapi"):
        return None  # the buffer export below is CPython's C API
    for name in ("libdeflate.so.0", ctypes.util.find_library("deflate")):
        if name is None:
            continue
        try:
            function = ctypes.CDLL(name).libdeflate_crc32
        except (OSError, AttributeError):
            continue
        function.argtypes = [ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t]
        function.restype = ctypes.c_uint32
        check = b"123456789"
        if function(0, check, len(check)) == zlib.crc32(check):
            return function
    return None


_libdeflate = _load_libdeflate()
if _libdeflate is not None:
    _get_buffer = ctypes.pythonapi.PyObject_GetBuffer
    _get_buffer.argtypes = [ctypes.py_object, ctypes.POINTER(_PyBuffer), ctypes.c_int]
    _get_buffer.restype = ctypes.c_int
    _release_buffer = ctypes.pythonapi.PyBuffer_Release
    _release_buffer.argtypes = [ctypes.POINTER(_PyBuffer)]
    _release_buffer.restype = None

#: The kernel :func:`crc32` runs on this host: ``"libdeflate"`` or ``"zlib"``.
CRC32_KERNEL = "zlib" if _libdeflate is None else "libdeflate"


def _libdeflate_crc32(data, value: int = 0) -> int:
    with memoryview(data) as view:
        if view.nbytes < NATIVE_MIN_BYTES or not view.c_contiguous:
            # Small, or refused by zlib with the error a caller expects.
            return zlib.crc32(data, value)
        buffer = _PyBuffer()
        ref = ctypes.byref(buffer)
        _get_buffer(view, ref, 0)  # PyBUF_SIMPLE, as zlib asks for
        try:
            return _libdeflate(value & _MASK, buffer.buf, buffer.len)
        finally:
            _release_buffer(ref)


#: What :func:`crc32` calls; the one place tests swap or count the kernel.
_kernel: Callable[..., int] = zlib.crc32 if _libdeflate is None else _libdeflate_crc32


def crc32(data, value: int = 0) -> int:
    """CRC32 of ``data`` (any C-contiguous buffer) continuing from ``value``;
    exactly ``zlib.crc32(data, value)``, on whichever kernel loaded."""
    return _kernel(data, value)


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
    crc = 0
    # Every view is released on the way out, so a caller's ``mmap.close()``
    # right after the pass really unmaps.
    with memoryview(buffer) as view:
        for start in range(0, len(view), chunk_size):
            with view[start : start + chunk_size] as chunk:
                crc = crc32(chunk, crc)
    return crc
