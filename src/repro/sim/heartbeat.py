"""Heartbeat-based failure detection for the K-nary tree (Section 3.1.1).

"Each KT node monitors all K children KT nodes for faults using
heartbeats sent periodically at certain time interval."  This module
runs that protocol on the discrete-event engine:

* every materialised KT node's *host virtual server* sends a heartbeat
  to its parent's host every ``heartbeat_interval``;
* a parent that misses ``miss_threshold`` consecutive heartbeats from a
  child declares it failed and triggers a tree repair (re-planting the
  subtree from the current ring state);
* the trace records detection latency (crash -> declaration) and repair
  latency (declaration -> tree stable), in simulated time.

The paper's claim that the tree "can be completely reconstructed in
O(log_K N) time in a top-down fashion" then becomes measurable: repair
latency is bounded by tree height x refresh-pass time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.churn import crash_node
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import SimulationError
from repro.faults.injector import FaultInjector, ensure_injector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.ktree.tree import KnaryTree
from repro.sim.engine import Simulator
from repro.util.rng import ensure_rng


@dataclass
class FailureEvent:
    """One detected failure and its handling latencies."""

    crashed_node: int
    crash_time: float
    detect_time: float
    repair_time: float
    refresh_passes: int

    @property
    def detection_latency(self) -> float:
        return self.detect_time - self.crash_time

    @property
    def repair_latency(self) -> float:
        return self.repair_time - self.detect_time


@dataclass
class HeartbeatTrace:
    """Outcome of a heartbeat-monitoring simulation."""

    heartbeats_sent: int = 0
    failures: list[FailureEvent] = field(default_factory=list)
    #: Heartbeats lost to injected faults (the child was alive).
    heartbeats_dropped: int = 0
    #: Verification probes dispatched after a suspicion built up.
    probes_sent: int = 0
    #: Suspicions that a probe refuted (the child's host was alive all
    #: along — its heartbeats were merely dropped in flight).
    false_suspicions: int = 0
    #: Heartbeats that could not cross an active partition (distinct
    #: from in-flight drops: the edge itself is severed).
    heartbeats_blocked: int = 0
    #: Parent-child edges declared orphaned after ``miss_threshold``
    #: blocked periods — each marks a subtree cut off by the partition.
    orphaned_subtrees: int = 0
    #: Tree refresh passes spent re-grafting orphaned subtrees at heal.
    regraft_passes: int = 0
    #: Partitions that healed during the simulated horizon.
    partitions_healed: int = 0


class HeartbeatMonitor:
    """Runs the tree's heartbeat protocol over a simulated clock.

    Parameters
    ----------
    ring, tree:
        The monitored system; the tree must be materialised (fully or
        the lazily-built working set).
    heartbeat_interval:
        Simulated time between heartbeats on every parent-child edge.
    miss_threshold:
        Consecutive missed heartbeats before a child is declared failed.
    faults:
        Optional fault plan/injector: each heartbeat on a live edge may
        be dropped in flight.  ``miss_threshold`` consecutive drops from
        a *live* child build a suspicion, which is checked by a direct
        probe one backoff later instead of immediately repairing the
        tree — the probe refutes it (a *false suspicion*) and the miss
        counter restarts, so drop faults cost probes but never trigger
        spurious reconstruction.
    retry:
        Backoff policy for suspicion probes (only used under faults).
    rng:
        Seed/generator for probe backoff jitter; only consumed when a
        suspicion actually fires, so fault-free runs are byte-identical
        to the pre-fault implementation.
    """

    def __init__(
        self,
        ring: ChordRing,
        tree: KnaryTree,
        heartbeat_interval: float = 1.0,
        miss_threshold: int = 3,
        faults: FaultPlan | FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        rng: int | None | np.random.Generator = None,
    ):
        if heartbeat_interval <= 0:
            raise SimulationError("heartbeat_interval must be positive")
        if miss_threshold < 1:
            raise SimulationError("miss_threshold must be >= 1")
        self.ring = ring
        self.tree = tree
        self.heartbeat_interval = heartbeat_interval
        self.miss_threshold = miss_threshold
        self.faults = ensure_injector(faults)
        self.retry = retry if retry is not None else RetryPolicy()
        self.gen = ensure_rng(rng)
        self.sim = Simulator()
        self.trace = HeartbeatTrace()
        self._crashed: dict[int, float] = {}  # node index -> crash time
        self._handled: set[int] = set()
        self._misses: dict[int, int] = {}  # child host vs_id -> consecutive drops
        self._probing: set[int] = set()  # child host vs_ids with a probe in flight
        self._component_of: dict[int, int] | None = None  # active partition map
        # Partition bookkeeping is keyed by the (parent vs, child vs)
        # pair: a host VS can carry several KT nodes, so the child vs_id
        # alone would conflate a severed edge with an intact one.
        self._blocked_misses: dict[tuple[int, int], int] = {}
        self._orphaned: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def schedule_crash(self, node_index: int, at_time: float) -> None:
        """Crash a physical node at a simulated instant."""
        node = self.ring.nodes[node_index]

        def do_crash(sim: Simulator) -> None:
            crash_node(self.ring, node)
            self._crashed[node_index] = sim.now

        self.sim.schedule_at(at_time, do_crash, label=f"crash-{node_index}")

    def schedule_partition(
        self,
        components: list[list[int]],
        at_time: float,
        heal_at: float,
    ) -> None:
        """Sever the network into components between two simulated instants.

        While the partition is active a heartbeat whose parent-child edge
        crosses components is *blocked* (the link is severed, not lossy);
        after ``miss_threshold`` blocked periods the parent declares the
        subtree below that edge orphaned — exactly once per edge, so the
        trace counts orphaned subtrees, not repeated timeouts.  No probe
        is dispatched for a blocked edge: a verification probe would be
        severed by the same cut.

        At ``heal_at`` the components reunify: the map is cleared, miss
        counters of orphaned edges restart, and bounded tree refresh
        passes re-graft any structure that drifted during the window
        (counted as ``regraft_passes``).
        """
        if heal_at <= at_time:
            raise SimulationError("heal_at must be after at_time")
        if len(components) < 2:
            raise SimulationError("a partition needs at least 2 components")
        component_of: dict[int, int] = {}
        for ci, members in enumerate(components):
            for node_index in members:
                if node_index in component_of:
                    raise SimulationError(
                        f"node {node_index} listed in two components"
                    )
                component_of[node_index] = ci

        def activate(sim: Simulator) -> None:
            self._component_of = component_of

        def heal(sim: Simulator) -> None:
            self._component_of = None
            self._blocked_misses.clear()
            self._orphaned.clear()
            passes = 0
            while passes < 64:
                passes += 1
                self.trace.regraft_passes += 1
                if sum(self.tree.refresh().values()) == 0:
                    break
            self.trace.partitions_healed += 1

        self.sim.schedule_at(at_time, activate, label="partition-activate")
        self.sim.schedule_at(heal_at, heal, label="partition-heal")

    def _edge_blocked(self, parent_index: int, child_index: int) -> bool:
        """Whether an active partition severs the parent-child edge."""
        assignment = self._component_of
        if assignment is None:
            return False
        return assignment.get(parent_index, 0) != assignment.get(child_index, 0)

    def run(self, until: float) -> HeartbeatTrace:
        """Run heartbeat rounds until the simulated horizon."""
        self._schedule_round(0.0)
        self.sim.run(until=until)
        return self.trace

    # ------------------------------------------------------------------
    def _schedule_round(self, at_time: float) -> None:
        self.sim.schedule_at(at_time, self._heartbeat_round, label="heartbeat-round")

    def _dispatch_probe(self, host_vs: VirtualServer) -> None:
        """Verify a suspicion with a direct probe before declaring failure.

        The probe flies one seeded backoff later (engine timer).  If the
        suspect's host turns out alive the suspicion was *false* — its
        heartbeats were dropped in flight — and the edge's miss counter
        restarts; a genuinely dead host is left to the crash-declaration
        path, which owns detection-latency accounting.
        """
        edge = host_vs.vs_id
        if edge in self._probing:
            return
        self._probing.add(edge)

        def probe(sim: Simulator) -> None:
            self._probing.discard(edge)
            self.trace.probes_sent += 1
            if host_vs.owner.alive:
                self.trace.false_suspicions += 1
                self._misses[edge] = 0

        self.sim.schedule_retry(
            self.retry, 1, probe, self.gen, label=f"probe-{edge}"
        )

    def _heartbeat_round(self, sim: Simulator) -> None:
        """One heartbeat period: every live child pings its parent.

        Parents notice children whose hosts died; after ``miss_threshold``
        periods without contact the failure is declared and repaired.
        Modelled at round granularity: a dead host misses every round, so
        declaration happens exactly ``miss_threshold`` rounds after the
        crash — matching the per-edge timer protocol without per-edge
        state.
        """
        # Send heartbeats (count live parent-child edges).  Under an
        # injected fault plan a heartbeat from a live child may be lost
        # in flight; miss_threshold consecutive losses on one edge make
        # the parent suspect the child and dispatch a verification probe.
        faults = self.faults
        host = self.tree.index.host
        parents, children = self.tree.edges()
        for p_slot, c_slot in zip(parents.tolist(), children.tolist()):
            parent_vs, child_vs = host[p_slot], host[c_slot]
            assert parent_vs is not None and child_vs is not None
            if not child_vs.owner.alive:
                continue
            edge = child_vs.vs_id
            if self._edge_blocked(parent_vs.owner.index, child_vs.owner.index):
                self.trace.heartbeats_blocked += 1
                cut = (parent_vs.vs_id, edge)
                blocked = self._blocked_misses.get(cut, 0) + 1
                self._blocked_misses[cut] = blocked
                if blocked >= self.miss_threshold and cut not in self._orphaned:
                    self._orphaned.add(cut)
                    self.trace.orphaned_subtrees += 1
                continue
            if faults is not None and faults.drop("heartbeat", f"edge:{edge}"):
                self.trace.heartbeats_dropped += 1
                misses = self._misses.get(edge, 0) + 1
                self._misses[edge] = misses
                if misses >= self.miss_threshold:
                    self._dispatch_probe(child_vs)
                continue
            self._misses[edge] = 0
            self.trace.heartbeats_sent += 1

        # Declare failures whose miss window has elapsed.
        for node_index, crash_time in list(self._crashed.items()):
            if node_index in self._handled:
                continue
            elapsed = sim.now - crash_time
            if elapsed >= self.miss_threshold * self.heartbeat_interval:
                self._handled.add(node_index)
                detect_time = sim.now
                passes = 0
                while passes < 64:
                    passes += 1
                    if sum(self.tree.refresh().values()) == 0:
                        break
                self.trace.failures.append(
                    FailureEvent(
                        crashed_node=node_index,
                        crash_time=crash_time,
                        detect_time=detect_time,
                        repair_time=sim.now + passes * self.heartbeat_interval,
                        refresh_passes=passes,
                    )
                )
        self._schedule_round(sim.now + self.heartbeat_interval)
