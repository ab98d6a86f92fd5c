"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the simulator with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IdentifierSpaceError(ReproError):
    """An identifier or region is invalid for its identifier space."""


class RegionError(IdentifierSpaceError):
    """A region operation received inconsistent arguments."""


class DHTError(ReproError):
    """The DHT simulator was driven into an invalid state."""


class EmptyRingError(DHTError):
    """An operation required a non-empty Chord ring."""


class DuplicateIdError(DHTError):
    """Two virtual servers were assigned the same identifier."""


class TopologyError(ReproError):
    """Topology generation or querying failed."""


class ProximityError(ReproError):
    """Landmark/Hilbert proximity machinery received invalid input."""


class HilbertError(ProximityError):
    """Invalid parameters for the Hilbert space-filling curve."""


class TreeError(ReproError):
    """The K-nary tree was driven into an invalid state."""


class BalancerError(ReproError):
    """The load balancer was misconfigured or hit an invalid state."""


class ConfigError(BalancerError):
    """A configuration value is out of its documented range."""


class ConservationError(BalancerError):
    """A balancing step created or destroyed load instead of moving it."""


class FaultError(ReproError):
    """The fault-injection subsystem was misused or misconfigured."""


class FaultPlanError(FaultError):
    """A :class:`repro.faults.FaultPlan` knob is out of its valid range."""


class AdversaryError(ReproError):
    """The Byzantine-adversary subsystem was misused or misconfigured."""


class AdversaryPlanError(AdversaryError):
    """An :class:`repro.adversary.AdversaryPlan` knob is out of range."""


class ProcessCrashError(FaultError):
    """An injected whole-process crash fired at a protocol site.

    Raised by the fault injector when a :class:`repro.faults.CrashPoint`
    fires; carries the crash site name and round index so the recovery
    layer can journal the event and disarm it after restoring.  This is
    the *simulated* analogue of the balancing process dying — nothing
    above :mod:`repro.recovery` should catch it.
    """

    def __init__(self, round_index: int, site: str) -> None:
        super().__init__(
            f"injected process crash at {site} in round {round_index}"
        )
        self.round_index = round_index
        self.site = site


class RecoveryError(ReproError):
    """The crash-recovery subsystem hit corrupt or divergent state.

    Covers journal corruption beyond the repairable torn tail, replay
    divergence (a restored run re-executed differently from the
    journaled prefix), and snapshot/restore mismatches.
    """


class SimulationError(ReproError):
    """The discrete-event simulation engine hit an invalid state."""


class WorkloadError(ReproError):
    """Workload generation received invalid parameters."""


class LintError(ReproError):
    """The static-analysis engine received invalid input or configuration."""
