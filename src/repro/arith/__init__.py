"""Finite-field arithmetic substrate for the power-sum quACK.

Public surface:

* :func:`~repro.arith.primes.is_prime`, :func:`~repro.arith.primes.largest_prime_in_bits`
* :class:`~repro.arith.field.PrimeField`, :func:`~repro.arith.field.field_for_bits`
* :class:`~repro.arith.polynomial.Poly`
* Newton's identities in :mod:`repro.arith.newton`
* Root finding in :mod:`repro.arith.roots`

:mod:`repro.arith.montgomery` holds the E10 field-arithmetic ablation's
alternative reductions; no runtime path uses it.
"""
