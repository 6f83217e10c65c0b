"""Shared pytest plumbing: the ``slow`` marker and ``--runslow``.

Tier-1 (the default ``pytest`` invocation) skips tests marked
``@pytest.mark.slow`` -- the multi-second end-to-end protocol scenarios
-- to keep the edit-test loop fast.  CI's full-suite job and anyone
verifying a protocol change run ``pytest --runslow`` to include them.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run tests marked @pytest.mark.slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow; use --runslow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


#: Senders constructed since the last audit (by a test, or by a wider
#: scoped fixture it uses -- several suites run a scenario once per class).
_unaudited_senders: list = []


@pytest.fixture(scope="session", autouse=True)
def _record_constructed_senders():
    from repro.transport.connection import SenderConnection

    construct = SenderConnection.__init__

    def recording_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        _unaudited_senders.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SenderConnection, "__init__", recording_init)
        yield


@pytest.fixture(autouse=True)
def audited_senders():
    """Audit every ``SenderConnection`` a test constructs, when it ends.

    The end-of-run conservation check of ROADMAP 5(d): whatever a test
    drove -- a scenario entry point, a chaos plan, a hand-built pair --
    its senders must leave with bytes in flight, acked ranges, the acked
    packet numbers, the loss floor and the probe timeout all consistent
    with the sent log.  A test that breaks a sender on purpose clears the
    list it is handed.
    """
    from tests.transport.sender_oracle import audit_sender

    yield _unaudited_senders
    constructed = _unaudited_senders[:]
    _unaudited_senders.clear()
    for sender in constructed:
        audit_sender(sender)
