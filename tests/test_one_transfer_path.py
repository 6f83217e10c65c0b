"""The single-path endpoints are single-path (extension X6 sits beside them).

``SenderConnection`` and ``ReceiverConnection`` carry no multipath
option and no multipath branch: the shared chunk source, the subflow's
assigned offsets, the shared reassembly set and the completion callback
live on ``SubflowSender`` / ``SubflowReceiver`` in
``repro.transport.multipath``, and path steering is
``Node.pin(flow_id, next_hop)``, not an argument of ``Node.send``.
Goodput is read off the receiver (``goodput_bps()``), so the per-delivery
flow monitor module is gone.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

from repro.netsim.node import Node
from repro.transport import connection
from repro.transport.connection import ReceiverConnection, SenderConnection

REMOVED = {
    SenderConnection.__init__: {"chunk_source", "via"},
    ReceiverConnection.__init__: {"monitor", "on_complete",
                                  "received_offsets", "via"},
    Node.send: {"via"},
}


@pytest.mark.parametrize("function", list(REMOVED),
                         ids=lambda function: function.__qualname__)
def test_no_multipath_parameter(function):
    parameters = set(inspect.signature(function).parameters)
    assert not parameters & REMOVED[function]


def test_the_flow_monitor_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.netsim.trace")


def test_connection_names_no_subflow_state():
    source = Path(connection.__file__).read_text()
    for name in ("chunk_source", "assigned_offsets"):
        assert name not in source, name
