"""Exception hierarchy for the ``repro`` package.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause.  Sub-families mirror the package layout:

* :class:`ArithmeticDomainError` -- misuse of the finite-field layer;
* :class:`QuackError` -- failures of quACK construction or decoding
  (the power-sum decoder reports its Section 3.2 failures as statuses);
* :class:`SimulationError` -- misconfiguration of the discrete-event
  simulator or the protocol agents that run on it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ArithmeticDomainError(ReproError, ValueError):
    """An operand is outside the domain of a finite-field operation.

    Raised, for example, when inverting zero, when a modulus is not prime,
    or when an element does not fit the field's bit width.
    """


class QuackError(ReproError):
    """Base class for quACK construction and decoding failures."""


class DecodeError(QuackError):
    """A quACK could not be decoded into a set of missing packets."""


class InconsistentQuackError(DecodeError):
    """The power-sum system has no solution within the sender's log.

    This is the symptom of a wrapped-around count difference (Section 3.2:
    "If the difference also wraps around, then the polynomial equations
    either cannot be solved or the solutions do not correspond to packets
    in S") or of subtracting quACKs from unrelated sessions.
    """


class WireFormatError(QuackError, ValueError):
    """A serialized quACK could not be parsed."""


def unsupported_version(format_name: str, got: int,
                        supported: tuple[int, ...]) -> WireFormatError:
    """The version-rejection error of every sidecar byte format, raised
    by the envelope's header check (:func:`repro.quack.wire.check_header`)."""
    return WireFormatError(f"{format_name}: unsupported version {got} "
                           f"(supported {min(supported)}..{max(supported)})")


class SimulationError(ReproError):
    """Misuse or misconfiguration of the network simulator."""


class ObservabilityError(ReproError, ValueError):
    """Misuse of the tracing/metrics layer (:mod:`repro.obs`).

    Raised for registry conflicts (re-registering a metric under a
    different type or label set), malformed trace events, and schema
    violations found by the JSONL validator.
    """


class TransportError(SimulationError):
    """Protocol violation inside the paranoid transport implementation."""


class SweepError(ReproError, ValueError):
    """A scenario sweep (:mod:`repro.sweep`) could not be run.

    Base class for everything the sweep engine raises on purpose:
    malformed specs, unknown scenarios, and incompatible resume
    artifacts.  Worker-side scenario failures are *not* raised -- they
    are recorded in the aggregate's ``failed_cells`` section.
    """


class SweepSpecError(SweepError):
    """A sweep spec file is malformed or internally inconsistent.

    Raised for missing/mis-typed required keys, empty grid axes, grid
    axes that shadow base parameters, and scenarios the registry does
    not know.
    """


class SweepResumeError(SweepError):
    """A partial aggregate cannot seed a resume.

    Raised when the partial artifact's spec fingerprint does not match
    the spec being run (different grid, scenario, or sweep seed), or the
    artifact is structurally unreadable.
    """
