"""Partition tolerance: epochs, component views, and the heal protocol.

The paper's reliability story (Section 3.1.1) covers individual node
failures; this package covers the failure class above it — a **network
partition** that splits the ring into components which cannot exchange
protocol messages.  Three pieces make a partitioned system keep its
invariants:

* :class:`PartitionSpec` — a seeded, declarative partition event on a
  :class:`~repro.faults.FaultPlan`: split the node set into two or more
  components at a round boundary (or mid-round, during the VST batch)
  and heal after a bounded number of rounds.
* :class:`ComponentRingView` — a :class:`~repro.dht.chord.ChordRing`
  over one component's nodes and the servers they host: regions
  re-tile over the component's virtual servers, so each side of the
  split runs an internally consistent degraded round over its own
  epoch-tagged K-nary tree.
* :class:`MembershipManager` — the epoch state machine.  It activates
  partitions, suspends :class:`~repro.core.vst.TransferTransaction`\\ s
  caught in flight by a mid-round split, and runs the deterministic
  heal protocol: commit an in-flight transfer iff both endpoints are
  alive, roll it back (with successor rescue) otherwise, then assert
  load conservation globally.

Determinism contract: epoch numbers, component assignment, suspension
and the heal outcome are pure functions of ``(scenario seed, plan)`` —
the partition decision streams ride on the
:class:`~repro.faults.FaultInjector`'s seeded channels and every
activation/heal lands in the injector's signed fault log.
"""

from repro.faults.plan import PartitionSpec
from repro.membership.manager import MembershipManager, MembershipView
from repro.membership.views import ComponentRingView

__all__ = [
    "ComponentRingView",
    "MembershipManager",
    "MembershipView",
    "PartitionSpec",
]
