"""Reproduction of "Sidecar: In-Network Performance Enhancements in the
Age of Paranoid Transport Protocols" (Yuan et al., HotNets '22).

The package implements the paper's quACK primitive and the three sidecar
protocols built on it, over a discrete-event network simulator and a
QUIC-like E2E-encrypted transport:

* :mod:`repro.quack` -- the power-sum quACK, the two strawmen, wire
  format, collision analytics (paper Sections 1, 3, 4);
* :mod:`repro.arith` -- the finite-field substrate (power sums, Newton's
  identities, root finding);
* :mod:`repro.ids` -- pseudorandom packet identifiers;
* :mod:`repro.netsim` -- the simulator (links, loss models, topologies);
* :mod:`repro.transport` -- the paranoid transport (congestion control,
  loss detection, ACK frequency);
* :mod:`repro.sidecar` -- the sidecar protocols of Table 1 and their
  experiment runners;
* :mod:`repro.bench` -- the harness regenerating every paper table/figure.

Quickstart (the Fig. 2 interface)::

    from repro.ids.identifiers import random_identifiers
    from repro.quack.power_sum import PowerSumQuack

    sent = random_identifiers(1000, bits=32)
    quack = PowerSumQuack(threshold=20, bits=32)
    quack.insert_many(sent[:-5])          # receiver misses the last 5
    result = quack.decode(sent.tolist())  # sender decodes
    assert sorted(result.missing) == sorted(int(x) for x in sent[-5:])
"""
