"""``repro.serialization.tensor_bytes``: the one way every consumer reads a
saved tensor's bytes, and the strided slice it reads in place.

The oracle is plain NumPy — ``np.ascontiguousarray(band).reshape(-1)[lo:hi]``
for a flat range of a band of columns — and the slices under test are built
here from the same divmod arithmetic, not by ``repro.restart.reshape``.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization import MAX_EXTENT_BYTES, payload, tensor_bytes
from repro.tensor import StridedSlice

DTYPES = (np.uint8, np.float16, np.float32, np.float64)


def band_slice(array, left, right, lo, hi):
    """The flat range ``[lo, hi)`` of ``array[:, left:right]`` as a strided
    slice of head-row, body and tail-row windows, and its oracle."""
    band = array[:, left:right]
    width = right - left
    (r0, c0), (r1, c1) = divmod(lo, width), divmod(hi, width)
    body = r0 + (c0 > 0)
    windows = ([band[r0:r0 + 1, c0:c1]] if r0 == r1 else
               [band[r0:body, c0:], band[body:r1], band[r1:r1 + 1, :c1]])
    oracle = np.ascontiguousarray(band).reshape(-1)[lo:hi]
    return StridedSlice(window for window in windows if window.size), oracle


@st.composite
def strided_slices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, 256, rows * cols * dtype.itemsize, dtype=np.uint8)
    array = raw.view(dtype).reshape(rows, cols)
    left = draw(st.integers(0, cols - 1))
    right = draw(st.integers(left + 1, cols))
    lo = draw(st.integers(0, rows * (right - left) - 1))
    hi = draw(st.integers(lo + 1, rows * (right - left)))
    return array, band_slice(array, left, right, lo, hi)


@settings(max_examples=200, deadline=None)
@given(strided_slices(), st.sampled_from([8, 24, 64, MAX_EXTENT_BYTES]))
def test_a_strided_slice_reads_as_its_oracle_bytes(drawn, bound):
    array, (leaf, oracle) = drawn
    assert leaf.shape == oracle.shape and leaf.dtype == oracle.dtype
    assert leaf.nbytes == oracle.nbytes
    saved, payload.MAX_EXTENT_BYTES = payload.MAX_EXTENT_BYTES, bound
    try:
        pieces = []
        for piece in tensor_bytes(leaf):
            # A piece is the caller's memory, or a gathered copy no longer
            # than the bound; either way only good until the next is pulled.
            assert np.shares_memory(np.frombuffer(piece, np.uint8), array) or (
                len(piece) <= bound)
            pieces.append(bytes(piece))
    finally:
        payload.MAX_EXTENT_BYTES = saved
    assert b"".join(pieces) == oracle.tobytes()
    out = np.full(leaf.nbytes, 0xAB, dtype=np.uint8)
    (landed,) = tensor_bytes(leaf, out)
    assert np.shares_memory(np.frombuffer(landed, np.uint8), out)
    assert out.tobytes() == oracle.tobytes()


def test_a_contiguous_payload_is_its_own_memory():
    array = np.arange(24, dtype=np.float32).reshape(4, 6)
    (data,) = tensor_bytes(array)
    assert np.shares_memory(np.frombuffer(data, np.uint8), array)
    assert bytes(data) == array.tobytes()
    (data,) = tensor_bytes(np.float64(2.5) * np.ones(()))   # 0-d
    assert bytes(data) == np.float64(2.5).tobytes()
    staged = memoryview(bytearray(b"staged bytes"))
    (data,) = tensor_bytes(staged)
    assert data.obj is staged.obj
    (data,) = tensor_bytes(array[:, ::2])   # a non-contiguous array is copied
    assert bytes(data) == np.ascontiguousarray(array[:, ::2]).tobytes()
    out = np.empty(array.nbytes, dtype=np.uint8)
    (landed,) = tensor_bytes(array, out)
    assert landed.obj is out and out.tobytes() == array.tobytes()


def test_a_thread_gathers_every_slice_through_one_buffer():
    array = np.arange(64 * 64, dtype=np.float32).reshape(64, 64)
    leaves = [band_slice(array, left, left + 8, 0, 64 * 8)[0] for left in (0, 8)]

    def gathered_at(leaf):
        """Where each gathered (not lent) piece of ``leaf`` lies."""
        views = (np.frombuffer(piece, np.uint8) for piece in tensor_bytes(leaf))
        return {view.__array_interface__["data"][0] for view in views
                if not np.shares_memory(view, array)}

    addresses = gathered_at(leaves[0]) | gathered_at(leaves[1])
    assert len(addresses) == 1
    # Two gathers interleaved on one thread each get a buffer of their own,
    # and so does another thread.
    first, second = (iter(tensor_bytes(leaf)) for leaf in leaves)
    assert bytes(next(first)) == np.ascontiguousarray(array[:, :8]).tobytes()   # one piece
    assert bytes(next(second)) == np.ascontiguousarray(array[:, 8:16]).tobytes()
    seen = set()
    thread = threading.Thread(target=lambda: seen.update(gathered_at(leaves[0])))
    thread.start()
    thread.join()
    assert seen and not addresses & seen
