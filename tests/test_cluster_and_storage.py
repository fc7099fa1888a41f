"""Tests for the simulated cluster topology, interconnects, and storage models."""

import pytest

from repro.cluster import build_cluster, cluster_for_gpus
from repro.config import PlatformSpec
from repro.exceptions import ConfigurationError
from repro.io import make_node_local_storage, make_parallel_fs
from repro.simulator import Environment
from repro.units import gbps


@pytest.fixture
def polaris():
    return PlatformSpec.polaris()


# ---------------------------------------------------------------------------
# Platform spec
# ---------------------------------------------------------------------------

def test_polaris_platform_matches_section_6_1(polaris):
    assert polaris.gpus_per_node == 4
    assert polaris.d2h_pinned_bandwidth == pytest.approx(gbps(25.0))
    assert polaris.d2d_bandwidth == pytest.approx(gbps(85.0))
    assert polaris.nvlink_bandwidth == pytest.approx(gbps(600.0))
    assert polaris.pfs_aggregate_bandwidth == pytest.approx(gbps(650.0))
    assert polaris.nvme_write_bandwidth == pytest.approx(gbps(2.0))


def test_platform_with_overrides(polaris):
    tweaked = polaris.with_overrides(gpus_per_node=8)
    assert tweaked.gpus_per_node == 8
    assert tweaked.d2h_pinned_bandwidth == polaris.d2h_pinned_bandwidth


def test_platform_validation_rejects_bad_values(polaris):
    with pytest.raises(ConfigurationError):
        polaris.with_overrides(d2h_pinned_bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        polaris.with_overrides(pfs_file_latency=-1.0)


# ---------------------------------------------------------------------------
# Cluster topology
# ---------------------------------------------------------------------------

def test_build_cluster_counts(polaris):
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=3)
    assert cluster.num_nodes == 3
    assert cluster.num_gpus == 12
    assert len(cluster.gpus) == 12


def test_global_rank_numbering_is_node_major(polaris):
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=2)
    gpu = cluster.gpu(5)
    assert gpu.node_id == 1
    assert gpu.local_index == 1
    assert cluster.node_of(5).node_id == 1


def test_each_gpu_has_its_own_pcie_link(polaris):
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=1)
    links = {id(gpu.pcie.link) for gpu in cluster.gpus}
    assert len(links) == 4


def test_cluster_shares_one_pfs(polaris):
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=2)
    assert cluster.pfs is not None
    assert cluster.nodes[0].nvme is not cluster.nodes[1].nvme


def test_cluster_for_gpus_rounds_up_nodes(polaris):
    env = Environment()
    cluster = cluster_for_gpus(env, polaris, num_gpus=6)
    assert cluster.num_nodes == 2
    assert cluster.num_gpus == 8


def test_cluster_rejects_bad_sizes(polaris):
    env = Environment()
    with pytest.raises(ConfigurationError):
        build_cluster(env, polaris, num_nodes=0)
    with pytest.raises(ConfigurationError):
        cluster_for_gpus(env, polaris, num_gpus=0)
    cluster = build_cluster(env, polaris, num_nodes=1)
    with pytest.raises(ConfigurationError):
        cluster.gpu(99)


# ---------------------------------------------------------------------------
# Interconnect timing
# ---------------------------------------------------------------------------

def test_pinned_d2h_copy_matches_bandwidth(polaris):
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=1)
    gpu = cluster.gpu(0)
    record = {}

    def proc():
        yield gpu.pcie.d2h(25e9, pinned=True)
        record["pinned"] = env.now
        yield gpu.pcie.d2h(6e9, pinned=False)
        record["pageable"] = env.now

    env.process(proc())
    env.run()
    assert record["pinned"] == pytest.approx(1.0, rel=1e-6)
    assert record["pageable"] - record["pinned"] == pytest.approx(1.0, rel=1e-6)


def test_concurrent_d2h_on_different_gpus_do_not_contend(polaris):
    """One GPU per NUMA domain: concurrent copies keep full PCIe bandwidth."""
    env = Environment()
    cluster = build_cluster(env, polaris, num_nodes=1)
    finish = {}

    def copy(rank):
        yield cluster.gpu(rank).pcie.d2h(25e9, pinned=True)
        finish[rank] = env.now

    for rank in range(4):
        env.process(copy(rank))
    env.run()
    assert all(t == pytest.approx(1.0, rel=1e-6) for t in finish.values())


def _finish_time(env, event_factory):
    record = {}

    def proc():
        yield event_factory()
        record["end"] = env.now

    env.process(proc())
    env.run()
    return record["end"]


def test_nvlink_transfer_matches_bandwidth(polaris):
    env = Environment()
    node = build_cluster(env, polaris, num_nodes=1).nodes[0]
    end = _finish_time(env, lambda: node.nvlink.transfer(polaris.nvlink_bandwidth * 2))
    assert end == pytest.approx(2.0, rel=1e-6)


def test_nic_transfer_matches_bandwidth(polaris):
    env = Environment()
    node = build_cluster(env, polaris, num_nodes=2).nodes[1]
    assert node.nic.latency == polaris.network_latency
    end = _finish_time(env, lambda: node.nic.transfer(polaris.nic_bandwidth * 0.5))
    assert end == pytest.approx(0.5, rel=1e-6)


# ---------------------------------------------------------------------------
# Storage models
# ---------------------------------------------------------------------------

def test_pfs_single_stream_capped(polaris):
    env = Environment()
    pfs = make_parallel_fs(env, polaris)
    record = {}

    def proc():
        yield pfs.write(polaris.pfs_per_stream_bandwidth * 10, new_file=False)
        record["end"] = env.now

    env.process(proc())
    env.run()
    assert record["end"] == pytest.approx(10.0, rel=1e-6)


def test_pfs_metadata_latency_charged_per_file(polaris):
    env = Environment()
    pfs = make_parallel_fs(env, polaris)
    record = {}

    def proc():
        yield pfs.write(polaris.pfs_per_stream_bandwidth * 1.0, new_file=True)
        record["with_meta"] = env.now

    env.process(proc())
    env.run()
    assert record["with_meta"] == pytest.approx(1.0 + polaris.pfs_file_latency, rel=1e-3)
    assert pfs.files_written == 1


def test_pfs_aggregate_capacity_limits_many_streams(polaris):
    """512 concurrent streams must not exceed the 650 GB/s Lustre aggregate."""
    env = Environment()
    pfs = make_parallel_fs(env, polaris)
    per_stream_bytes = 2.2e9  # 1 second at the per-stream cap
    finish_times = []

    def writer():
        yield pfs.write(per_stream_bytes, new_file=False)
        finish_times.append(env.now)

    num_streams = 512
    for _ in range(num_streams):
        env.process(writer())
    env.run()
    # Total work = 512 * 2.2 GB = 1126 GB at 650 GB/s aggregate -> >= 1.73 s.
    expected_min = num_streams * per_stream_bytes / polaris.pfs_aggregate_bandwidth
    assert max(finish_times) >= expected_min * 0.99
    assert pfs.bytes_written == pytest.approx(num_streams * per_stream_bytes)


def test_nvme_write_bandwidth(polaris):
    env = Environment()
    nvme = make_node_local_storage(env, polaris, node_id=0)
    record = {}

    def proc():
        yield nvme.write(polaris.nvme_write_bandwidth * 3)
        record["end"] = env.now

    env.process(proc())
    env.run()
    assert record["end"] == pytest.approx(3.0, rel=1e-6)
    assert nvme.bytes_written == pytest.approx(polaris.nvme_write_bandwidth * 3)


def test_nvme_bytes_written_accumulates_across_writes(polaris):
    env = Environment()
    nvme = make_node_local_storage(env, polaris, node_id=0)
    for nbytes in (1e9, 2.5e9):
        _finish_time(env, lambda: nvme.write(nbytes))
    assert nvme.bytes_written == pytest.approx(3.5e9)
    assert env.now == pytest.approx(3.5e9 / polaris.nvme_write_bandwidth, rel=1e-6)
