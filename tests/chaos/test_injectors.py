"""The chaos corrupter reaches every sidecar datagram, control or quACK."""

import pytest

from repro.chaos.injectors import sidecar_corrupter
from repro.netsim.faults import Corruption
from repro.sidecar.protocol import (
    CONTROL_TYPES,
    ConfigMessage,
    CorruptFrame,
    HelloAckMessage,
    HelloMessage,
    ResetMessage,
    ResumeMessage,
    VersionSwitchMessage,
    control_packet,
)

MESSAGES = [
    ResetMessage(flow_id="flow0", epoch=3),
    ConfigMessage(flow_id="flow0", every_n=32, interval_s=0.025,
                  threshold=20),
    ResumeMessage(flow_id="flow0", epoch=2, count=100),
    HelloMessage(flow_id="flow0", min_version=1, max_version=2),
    HelloAckMessage(flow_id="flow0", version=2, threshold=20, bits=32,
                    interval_us=0, features=7),
    VersionSwitchMessage(flow_id="flow0", version=2, epoch=0),
]


def test_one_message_of_every_control_type():
    assert sorted(type(message).__name__ for message in MESSAGES) \
        == sorted(cls.__name__ for cls in CONTROL_TYPES)


@pytest.mark.parametrize("message", MESSAGES,
                         ids=lambda message: type(message).__name__)
def test_every_control_message_is_corrupted(message):
    injector = Corruption(rate=1.0, seed=1, corrupter=sidecar_corrupter)
    packet = control_packet("server", "proxy", message, now=0.0)
    decision = injector.on_transmit(packet, 0.0)
    assert decision.replacement is not None
    payload = decision.replacement.payload
    # A flip the CRC misses reparses as a message; anything else is a
    # frame the receiver counts and drops.
    assert isinstance(payload, (CorruptFrame, *CONTROL_TYPES))
    assert injector.stats.corrupted == 1
