"""Sidecar protocols: PEP-style assistance for paranoid transports.

The three protocols of the paper's Table 1, built on the quACK:

* :mod:`repro.sidecar.cc_division` -- congestion-control division
  (Section 2.1, experiment E7);
* :mod:`repro.sidecar.ack_reduction` -- ACK reduction (Section 2.2, E8);
* :mod:`repro.sidecar.retransmission` -- in-network retransmission
  (Section 2.3, E9);

plus the shared session machinery:

* :class:`~repro.sidecar.emitter.QuackEmitter` /
  :class:`~repro.sidecar.consumer.QuackConsumer` -- the receiver-side and
  sender-side quACK state of Sections 3.2-3.3;
* frequency policies (Section 4.3) in :mod:`repro.sidecar.frequency`;
* wire messages in :mod:`repro.sidecar.protocol`;
* host/proxy agents in :mod:`repro.sidecar.agents`, wiring over the
  session machines: the Section 3.3 reset handshake (``reset``),
  capability negotiation (``negotiate``), emitter checkpoint/restore
  (``snapshot``), plausibility gates and quarantine (``defense``) and
  the graceful-degradation ladder (``health``).
"""

from repro.sidecar.ack_reduction import AckReductionResult, run_ack_reduction
from repro.sidecar.agents import (
    DEFAULT_THRESHOLD,
    EmitterEndpoint,
    HostEmitterAgent,
    ProxyEmitterTap,
    ServerSidecar,
)
from repro.sidecar.cc_division import (
    CcDivisionResult,
    PacingProxy,
    run_cc_division,
)
from repro.sidecar.consumer import QuackConsumer, QuackFeedback
from repro.sidecar.defense import (
    AdversarialSignal,
    DefenseConfig,
    PlausibilityValidator,
    QuarantineLedger,
    SignalKind,
    missing_within_log,
)
from repro.sidecar.emitter import QuackEmitter
from repro.sidecar.frequency import (
    AdaptiveFrequency,
    FrequencyPolicy,
    IntervalFrequency,
    PacketCountFrequency,
)
from repro.sidecar.health import (
    HealthConfig,
    HealthMonitor,
    HealthState,
    HealthTransition,
)
from repro.sidecar.protocol import (
    ConfigMessage,
    CorruptFrame,
    QuackMessage,
    ResetMessage,
    ResumeMessage,
    decode_control,
    encode_control,
    quack_packet,
)
from repro.sidecar.retransmission import (
    RetransmissionResult,
    SenderSideRetxProxy,
    run_retransmission,
)
from repro.sidecar.snapshot import (
    CheckpointStore,
    EmitterCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
)

__all__ = [
    "QuackEmitter",
    "QuackConsumer",
    "QuackFeedback",
    "FrequencyPolicy",
    "IntervalFrequency",
    "PacketCountFrequency",
    "AdaptiveFrequency",
    "QuackMessage",
    "ConfigMessage",
    "ResetMessage",
    "ResumeMessage",
    "CorruptFrame",
    "quack_packet",
    "encode_control",
    "decode_control",
    "AdversarialSignal",
    "DefenseConfig",
    "PlausibilityValidator",
    "QuarantineLedger",
    "SignalKind",
    "missing_within_log",
    "CheckpointStore",
    "EmitterCheckpoint",
    "encode_checkpoint",
    "decode_checkpoint",
    "HealthConfig",
    "HealthMonitor",
    "HealthState",
    "HealthTransition",
    "EmitterEndpoint",
    "HostEmitterAgent",
    "ServerSidecar",
    "ProxyEmitterTap",
    "PacingProxy",
    "SenderSideRetxProxy",
    "run_cc_division",
    "run_ack_reduction",
    "run_retransmission",
    "CcDivisionResult",
    "AckReductionResult",
    "RetransmissionResult",
    "DEFAULT_THRESHOLD",
]
