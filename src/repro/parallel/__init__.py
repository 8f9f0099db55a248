"""Fault-tolerant sharded exploration (supervisor / worker processes).

Public surface:

* :func:`parallel_explore` -- drop-in parallel counterpart of
  :func:`repro.lang.client.explore` (byte-identical frozen result).
* :class:`ParallelConfig` -- worker count, shard size, hang window,
  fault plan and remote worker addresses.
* :class:`FaultPlan` -- injected failures for testing the policy.
"""

from .faults import Fault, FaultPlan, FaultPlanError
from .protocol import FrameDecoder, ProtocolError, read_frame, write_frame
from .supervisor import (
    STREAMING_SERIAL_REASON,
    ParallelConfig,
    Supervisor,
    maybe_parallel_explore,
    parallel_explore,
)

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultPlanError",
    "FrameDecoder",
    "ProtocolError",
    "read_frame",
    "write_frame",
    "STREAMING_SERIAL_REASON",
    "ParallelConfig",
    "Supervisor",
    "maybe_parallel_explore",
    "parallel_explore",
]
