"""Interconnect models for the simulated platform.

Each physical link is a :class:`~repro.simulator.resources.FairShareLink`.
The topology follows Figure 1(c) of the paper:

* each GPU has its own PCIe Gen4 path to host memory (one GPU per NUMA
  domain on Polaris, so concurrent D2H copies do not contend with each
  other);
* GPUs within a node communicate over NVLink;
* nodes reach the parallel file system over the NIC;
* node-local NVMe and the PFS are modelled in :mod:`repro.io.sim_storage`.

The D2H path distinguishes pinned and pageable destinations: the paper's
"Asynchronous checkpointing" baseline copies into freshly allocated pageable
memory and pays both the lower bandwidth and the allocation/pinning cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PlatformSpec
from ..simulator import Environment, Event, FairShareLink


@dataclass
class PCIeLink:
    """The device-to-host path of one GPU."""

    gpu_id: int
    link: FairShareLink
    pinned_bandwidth: float
    pageable_bandwidth: float

    def d2h(self, nbytes: float, pinned: bool = True, tag: Optional[str] = None) -> Event:
        """Start a device-to-host copy and return its completion event."""
        cap = self.pinned_bandwidth if pinned else self.pageable_bandwidth
        return self.link.transfer(nbytes, cap=cap, tag=tag or "d2h")


@dataclass
class NVLinkFabric:
    """Intra-node GPU-to-GPU fabric (used by tensor-parallel collectives)."""

    link: FairShareLink

    def transfer(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Move ``nbytes`` across the fabric."""
        return self.link.transfer(nbytes, tag=tag or "nvlink")


@dataclass
class NetworkLink:
    """The node's NIC (inter-node collectives, consensus messages, PFS path)."""

    link: FairShareLink
    latency: float

    def transfer(self, nbytes: float, tag: Optional[str] = None) -> Event:
        """Move ``nbytes`` over the NIC."""
        return self.link.transfer(nbytes, tag=tag or "nic")


def make_pcie_link(env: Environment, platform: PlatformSpec, gpu_id: int) -> PCIeLink:
    """Create the PCIe path of one GPU from the platform spec."""
    link = FairShareLink(
        env,
        capacity=platform.d2h_pinned_bandwidth,
        name=f"pcie-gpu{gpu_id}",
    )
    return PCIeLink(
        gpu_id=gpu_id,
        link=link,
        pinned_bandwidth=platform.d2h_pinned_bandwidth,
        pageable_bandwidth=platform.d2h_pageable_bandwidth,
    )


def make_nvlink(env: Environment, platform: PlatformSpec, node_id: int) -> NVLinkFabric:
    """Create the NVLink fabric of one node."""
    return NVLinkFabric(
        link=FairShareLink(env, capacity=platform.nvlink_bandwidth, name=f"nvlink-node{node_id}")
    )


def make_nic(env: Environment, platform: PlatformSpec, node_id: int) -> NetworkLink:
    """Create the NIC of one node."""
    return NetworkLink(
        link=FairShareLink(env, capacity=platform.nic_bandwidth, name=f"nic-node{node_id}"),
        latency=platform.network_latency,
    )
