"""One CRC32, two kernels: libdeflate where it loads, zlib everywhere.

``repro.serialization.crc32`` must return exactly what ``zlib.crc32`` returns,
on any buffer a checkpoint hands it, whichever kernel runs — so on-disk bytes
and recorded checksums never depend on the host.  Each test selects its kernel
through the module's one seam (``checksum._kernel``); the native cases skip,
with a reason, on a host where libdeflate does not load.
"""

import contextlib
import mmap
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import create_real_engine
from repro.io import CASStore, FileStore
from repro.io.filestore import MappedShard
from repro.memory import PinnedHostPool
from repro.restart import CheckpointLoader, RestoreSpec
from repro.serialization import CRC32_KERNEL, checksum, checksum_stream, crc32

KERNELS = ("libdeflate", "zlib")
CUTOFF = checksum.NATIVE_MIN_BYTES
SIZES = (0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 3 * CUTOFF + 7, (3 << 20) + 5)
SRC = Path(__file__).resolve().parents[1] / "src"


@contextlib.contextmanager
def on_kernel(name):
    """Route every ``crc32`` call of this process (engine threads too) to one
    kernel for the duration of the block."""
    if name == "libdeflate":
        if checksum._libdeflate is None:
            pytest.skip("libdeflate does not load on this host; "
                        "only the zlib kernel is exercised")
        kernel = checksum._libdeflate_crc32
    else:
        kernel = zlib.crc32
    saved = checksum._kernel
    checksum._kernel = kernel
    try:
        yield
    finally:
        checksum._kernel = saved


def _bytes(nbytes, seed=0):
    return np.random.default_rng(seed).bytes(nbytes)


# ---------------------------------------------------------------------------
# Parity with zlib
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(size=st.one_of(st.sampled_from(SIZES), st.integers(0, 4 * CUTOFF)),
       offset=st.integers(0, 15),
       prefix=st.integers(0, 64),
       seed=st.integers(0, 2**16),
       kind=st.sampled_from(["bytes", "bytearray", "memoryview"]))
def _crc32_matches_zlib(size, offset, prefix, seed, kind):
    raw = _bytes(prefix + offset + size, seed)
    # A running CRC over a prefix, as the streaming sink and the TorchSnapshot
    # writers continue one.
    value = zlib.crc32(raw[:prefix])
    body = raw[prefix:]
    if kind == "bytes":
        data = body[offset:]
    elif kind == "bytearray":
        data = bytearray(body[offset:])
    else:  # an unaligned slice of a larger buffer
        data = memoryview(bytearray(body))[offset:]
    assert crc32(data, value) == zlib.crc32(data, value)
    assert crc32(data) == zlib.crc32(data)


@pytest.mark.parametrize("kernel", KERNELS)
def test_crc32_equals_zlib_crc32(kernel):
    with on_kernel(kernel):
        _crc32_matches_zlib()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("size", SIZES)
def test_crc32_equals_zlib_on_every_buffer_kind(kernel, size, tmp_path):
    raw = _bytes(size + 3, seed=size)
    path = tmp_path / "blob"
    path.write_bytes(raw)
    rows = max(1, size // 64)
    matrix = np.frombuffer(_bytes(rows * 64 * 4, seed=size), dtype=np.float32).reshape(rows, 64)
    pool = PinnedHostPool(max(size, 1) + 64)
    allocation = pool.allocate(size + 3)
    allocation.view[:] = raw
    with on_kernel(kernel), open(path, "rb") as handle, \
            mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
        buffers = {
            "float32 2-D": memoryview(matrix),
            "read-only mmap slice": memoryview(mapped)[3:],
            "pinned-pool view": allocation.view[3:],
        }
        for label, data in buffers.items():
            assert crc32(data) == zlib.crc32(data), label
            assert crc32(data, 0xDEADBEEF) == zlib.crc32(data, 0xDEADBEEF), label
            data.release()
    pool.free(allocation)
    pool.close()


@pytest.mark.parametrize("kernel", KERNELS)
def test_crc32_refuses_what_zlib_refuses(kernel):
    strided = np.zeros((64, 1024), dtype=np.float32)[:, ::2]
    with on_kernel(kernel):
        for data in ("text", strided):
            with pytest.raises(Exception) as native:
                crc32(data)
            with pytest.raises(Exception) as reference:
                zlib.crc32(data)
            assert native.type is reference.type


def test_crc32_kernel_names_what_loaded():
    assert CRC32_KERNEL == ("zlib" if checksum._libdeflate is None else "libdeflate")
    assert checksum._kernel is (zlib.crc32 if checksum._libdeflate is None
                                else checksum._libdeflate_crc32)


@pytest.mark.parametrize("kernel", KERNELS)
def test_checksum_stream_leaves_no_export_behind(kernel, tmp_path):
    path = tmp_path / "rank0.shard"
    raw = _bytes((2 << 20) + 11)
    path.write_bytes(raw)
    with on_kernel(kernel):
        shard = MappedShard(path)
        assert checksum_stream(shard.data, chunk_size=1 << 20) == zlib.crc32(raw)
        with memoryview(shard.data) as view:
            assert checksum_stream(view[5:], chunk_size=CUTOFF) == zlib.crc32(raw[5:])
    shard.data.close()  # a BufferError here is an export checksum_stream kept
    assert shard.data.closed
    maps = Path("/proc/self/maps")
    if maps.exists():
        assert str(path) not in maps.read_text()


# ---------------------------------------------------------------------------
# On-disk bytes do not depend on the kernel
# ---------------------------------------------------------------------------

def _state(step=0):
    rng = np.random.default_rng(1234)
    state = {"iteration": step,
             "model": {f"w{index}": rng.standard_normal(size, dtype=np.float32)
                       for index, size in enumerate((7, 1000, 4097, 70000, 300000))},
             "optimizer": {"step": np.int64(step),
                           "m": rng.standard_normal((64, 257)).astype(np.float32)}}
    state["model"]["w0"] += step
    return state


def _datastates_file(root):
    return create_real_engine("datastates", FileStore(root),
                              policy=CheckpointPolicy(host_buffer_size=8 << 20))


def _torchsnapshot_file(root):
    return create_real_engine("torchsnapshot", FileStore(root),
                              policy=CheckpointPolicy(host_buffer_size=8 << 20,
                                                      shards_per_rank=2))


def _incremental_cas(root):
    return create_real_engine("datastates", CASStore(FileStore(root), chunk_bytes=64 << 10),
                              policy=CheckpointPolicy(host_buffer_size=8 << 20,
                                                      shards_per_rank=3, incremental=True))


SETUPS = {"datastates-file": _datastates_file,
          "torchsnapshot-file": _torchsnapshot_file,
          "datastates-incremental-cas": _incremental_cas}


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


def _assert_same_state(restored, expected):
    assert restored["iteration"] == expected["iteration"]
    for group in ("model", "optimizer"):
        for key, value in expected[group].items():
            got = restored[group][key]
            assert np.asarray(got).dtype == np.asarray(value).dtype
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), key


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_saves_are_byte_identical_across_kernels(setup, tmp_path):
    roots = {}
    for kernel in KERNELS:
        roots[kernel] = tmp_path / kernel
        with on_kernel(kernel), SETUPS[setup](roots[kernel]) as engine:
            for step in range(3):
                engine.save(_state(step), f"ckpt-{step}", iteration=step)
                engine.wait_all()
    native, reference = _files(roots["libdeflate"]), _files(roots["zlib"])
    assert any(name.name == "manifest.json" for name in native)
    assert native.keys() == reference.keys()
    for name in native:
        assert native[name] == reference[name], name
    # What one kernel wrote validates, and restores, under the other.
    for writer, reader in (("libdeflate", "zlib"), ("zlib", "libdeflate")):
        with on_kernel(reader):
            store = FileStore(roots[writer])
            if setup.endswith("cas"):
                store = CASStore(store, chunk_bytes=64 << 10)
            loader = CheckpointLoader(store)
            for step in range(3):
                loader.validate(f"ckpt-{step}")
                _assert_same_state(loader.restore(RestoreSpec(tag=f"ckpt-{step}", rank=0)),
                                   _state(step))


def test_tensor_checksums_verify_across_kernels(tmp_path):
    with on_kernel("zlib"), _datastates_file(tmp_path) as engine:
        engine.save(_state(), "ckpt-0", iteration=0)
        engine.wait_all()
    with on_kernel("libdeflate"):
        loader = CheckpointLoader(FileStore(tmp_path))
        record = loader.validate("ckpt-0").shards[0]
        assert record.tensor_checksums is not None
        loader.verify_tensor_checksums("ckpt-0", record)


# ---------------------------------------------------------------------------
# The fallback when libdeflate cannot load
# ---------------------------------------------------------------------------

_NO_LIBDEFLATE = textwrap.dedent("""
    import ctypes, ctypes.util, sys

    class _Refusing(ctypes.CDLL):
        def __init__(self, name, *args, **kwargs):
            if name is not None and "deflate" in str(name):
                raise OSError("cannot open shared object file: " + str(name))
            super().__init__(name, *args, **kwargs)

    ctypes.CDLL = _Refusing
    ctypes.util.find_library = lambda name: None
    sys.path.insert(0, sys.argv[1])

    from test_checksum_kernel import _assert_same_state, _datastates_file, _state
    from repro.io import FileStore
    from repro.restart import CheckpointLoader, RestoreSpec
    from repro.serialization import CRC32_KERNEL

    assert CRC32_KERNEL == "zlib", CRC32_KERNEL
    with _datastates_file(sys.argv[2]) as engine:
        engine.save(_state(), "ckpt-0", iteration=0)
        engine.wait_all()
    restored = CheckpointLoader(FileStore(sys.argv[2])).restore(RestoreSpec(tag="ckpt-0", rank=0))
    _assert_same_state(restored, _state())
    print(CRC32_KERNEL)
""")


def test_import_falls_back_to_zlib_when_libdeflate_cannot_load(tmp_path):
    fallback = tmp_path / "fallback"
    result = subprocess.run(
        [sys.executable, "-c", _NO_LIBDEFLATE, str(SRC), str(fallback)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent), "PATH": ""})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "zlib"
    # The same state saved here, on whichever kernel this process loaded,
    # lays down the same bytes.
    with _datastates_file(tmp_path / "here") as engine:
        engine.save(_state(), "ckpt-0", iteration=0)
        engine.wait_all()
    assert _files(fallback) == _files(tmp_path / "here")
