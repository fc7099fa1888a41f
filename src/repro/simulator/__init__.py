"""A small coroutine-based discrete-event simulator.

This is the substrate on which the paper's cluster-scale evaluation is
reproduced.  It provides:

* :class:`Environment` — event calendar and clock.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf` — the
  event types processes wait on.
* :class:`FairShareLink` — flow-level bandwidth sharing model used for PCIe,
  NVMe, NIC, and the Lustre parallel file system.
* :class:`TraceRecorder` — span/counter collection for the analysis layer.
"""

from .engine import Environment
from .events import AllOf, Event, Process, Timeout
from .failures import FAILURE_KINDS, FailureEvent, FailureTrace
from .resources import FairShareLink, Flow
from .sync import Barrier, SimHostBuffer, consensus_latency
from .trace import Span, TraceRecorder

__all__ = [
    "Environment",
    "FAILURE_KINDS",
    "FailureEvent",
    "FailureTrace",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "FairShareLink",
    "Flow",
    "Span",
    "TraceRecorder",
    "Barrier",
    "SimHostBuffer",
    "consensus_latency",
]
