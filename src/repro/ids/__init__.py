"""Packet identifiers: the "32 bits from a randomly-encrypted QUIC header".

The sidecar never sees protocol-level sequence numbers; it refers to
packets by pseudorandom identifiers extracted from their encrypted bytes
(paper, Section 3.2).  :class:`~repro.ids.identifiers.IdentifierFactory`
models that extraction as a keyed PRF over the packet number -- both ends
of a *connection* observe the same ciphertext, hence the same identifier,
while an observer without the ciphertext sees uniformly random values.
"""
