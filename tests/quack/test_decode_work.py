"""Work-counter gate: a decode's Python calls do not grow with the log.

Machine-independent, like ``tests/transport/test_ack_work.py``: the
count of Python-level function calls (``sys.setprofile`` "call"
events; C functions and numpy kernels are not counted) made by one
:func:`decode_delta` with m = 20 missing, on a 1,000- and a
10,000-entry log.  Selecting roots and matching them to the log in
numpy leaves Python the m roots and their entries; the candidates
decode it replaced built a ``Counter`` for every distinct residue of
the log, so its count grew tenfold with it.
"""

import sys

import pytest

from repro.bench.workloads import make_workload
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack

MISSING = 20


def python_calls_of_one_decode(n: int) -> int:
    made = make_workload(n=n, num_missing=MISSING, bits=32, seed=3)
    sent = made.sent.tolist()
    sender, receiver = PowerSumQuack(MISSING), PowerSumQuack(MISSING)
    sender.insert_many(sent)
    receiver.insert_many(made.received)
    delta = sender - receiver
    decode_delta(delta, sent)   # first-call imports and caches
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = decode_delta(delta, sent)
    finally:
        sys.setprofile(None)
    assert result.ok and result.missing == made.missing
    return calls


def test_python_calls_per_decode_do_not_grow_with_the_log():
    short = python_calls_of_one_decode(1_000)
    long = python_calls_of_one_decode(10_000)
    assert long == pytest.approx(short, rel=0.10)
