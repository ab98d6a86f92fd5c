""":class:`SystemSnapshot`: a complete durable image of protocol state.

A snapshot captures, at a round boundary, every byte of mutable state
the next round's outcome depends on — which is exactly what makes
crash-restart determinism provable rather than hoped for:

* ring membership and hosting: node order, capacities, sites,
  liveness, and each node's virtual servers in hosting order with
  exact (``float.hex``) loads;
* DHT store assignments: the object table and the per-VS name index
  (restored verbatim, never recomputed — ``rehome`` sums loads in an
  order-sensitive way);
* every named RNG stream's ``bit_generator.state`` — the balancer's
  four streams, the fault injector's eight, and any extra streams the
  embedding application registers (``P2PSystem`` passes its five);
* the fault-log position: the injector's ordered fault log, crash
  budget, partition component map and per-round crash bookkeeping;
* the membership epoch machine: epoch, active view, which plan
  partition is active, and each suspended in-flight transfer;
* the balancer's round cursor, stale-LBI cache and aggregate-sanity
  ledger;
* the Byzantine layer: the adversary engine's three decision streams,
  action log, drafted attacker set and round cursor, and — when the
  defense is armed — the trust layer's scores, EWMA envelopes,
  quarantine/probation sets and penalty bookkeeping, so a recovered
  run replays the identical attack *and* the identical defense.

All floats are encoded with ``float.hex`` (the
:meth:`~repro.core.report.BalanceReport.canonical_digest` idiom), so
:meth:`SystemSnapshot.canonical_digest` is byte-stable and
``capture(restore(s)) == s`` is assertable.  Restore is *in place*: it
overwrites the target balancer's ring/state through the same object
references its components already hold, then fires one ``bulk`` ring
notification so derived indices and incremental-engine caches rebuild.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.core.records import Assignment, ShedCandidate, SystemLBI
from repro.core.vst import TransferTransaction
from repro.dht.node import PhysicalNode
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import RecoveryError
from repro.faults.injector import FaultKind, InjectedFault
from repro.membership.manager import MembershipView
from repro.recovery.durable import atomic_write_json, read_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.balancer import LoadBalancer
    from repro.dht.storage import ObjectStore

#: Current snapshot payload schema version (2 added the Byzantine
#: adversary/trust sections).
SNAPSHOT_VERSION = 2


def _hex(value: float) -> str:
    """Exact float encoding (no decimal rounding)."""
    return float(value).hex()


def _unhex(text: str) -> float:
    """Inverse of :func:`_hex`."""
    return float.fromhex(text)


def _rng_state(gen: np.random.Generator) -> dict[str, Any]:
    """The generator's JSON-serializable bit-generator state."""
    return dict(gen.bit_generator.state)


def _set_rng_state(gen: np.random.Generator, state: Mapping[str, Any]) -> None:
    """Restore a captured state onto an existing generator object.

    Mutating the generator in place (instead of swapping it) means
    every component holding a reference — placement strategies, the
    VSA sweep's retry stream — sees the restored stream automatically.
    """
    gen.bit_generator.state = dict(state)


class SystemSnapshot:
    """One captured checkpoint payload (see the module docstring).

    Construct via :meth:`capture` (from a live balancer stack) or
    :meth:`load` (from an atomic snapshot file); apply via
    :meth:`restore`.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: dict[str, Any]) -> None:
        """Wrap an already-built payload (see :meth:`capture`)."""
        self.payload = payload

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """The round this checkpoint precedes (the next round to run)."""
        return int(self.payload["round_index"])

    def canonical_digest(self) -> str:
        """SHA-256 over the canonical payload JSON (restore witness)."""
        canonical = json.dumps(
            self.payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Durable round trip
    # ------------------------------------------------------------------
    def save(self, path: Any) -> None:
        """Atomically write the snapshot (rename-on-commit, never partial)."""
        atomic_write_json(path, self.payload)

    @classmethod
    def load(cls, path: Any) -> "SystemSnapshot":
        """Read a snapshot previously written by :meth:`save`."""
        payload = read_json(path)
        if not isinstance(payload, dict):
            raise RecoveryError(f"snapshot {path} is not a JSON object")
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise RecoveryError(
                f"snapshot {path} has version {version!r}, "
                f"expected {SNAPSHOT_VERSION}"
            )
        return cls(payload)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        balancer: "LoadBalancer",
        store: "ObjectStore | None" = None,
        extra_rngs: Mapping[str, np.random.Generator] | None = None,
    ) -> "SystemSnapshot":
        """Snapshot a balancer stack at a round boundary.

        ``store`` adds the DHT object assignments (the
        :class:`~repro.app.P2PSystem` case); ``extra_rngs`` captures
        additional named streams owned by the embedding application.
        """
        ring = balancer.ring
        nodes: list[dict[str, Any]] = []
        for node in ring.nodes:
            nodes.append(
                {
                    "index": int(node.index),
                    "capacity": _hex(node.capacity),
                    "site": None if node.site is None else int(node.site),
                    "alive": bool(node.alive),
                    "vs": [
                        [int(vs.vs_id), _hex(vs.load)]
                        for vs in node.virtual_servers
                    ],
                }
            )

        payload: dict[str, Any] = {
            "version": SNAPSHOT_VERSION,
            "round_index": int(balancer._round_index),
            "space_bits": int(ring.space.bits),
            "nodes": nodes,
            "balancer": {
                "stale_lbi": (
                    None
                    if balancer._stale_lbi is None
                    else [
                        _hex(balancer._stale_lbi.total_load),
                        _hex(balancer._stale_lbi.total_capacity),
                        _hex(balancer._stale_lbi.min_vs_load),
                    ]
                ),
                "stale_lbi_age": int(balancer._stale_lbi_age),
                "rngs": {
                    "lbi": _rng_state(balancer._lbi_rng),
                    "placement": _rng_state(balancer._placement_rng),
                    "landmark": _rng_state(balancer._landmark_rng),
                    "retry": _rng_state(balancer._retry_rng),
                },
            },
            "sanity": cls._capture_sanity(balancer),
            "adversary": cls._capture_adversary(balancer),
            "trust": cls._capture_trust(balancer),
            "injector": cls._capture_injector(balancer),
            "membership": cls._capture_membership(balancer),
            "store": cls._capture_store(store),
            "extra_rngs": (
                {}
                if extra_rngs is None
                else {
                    name: _rng_state(extra_rngs[name])
                    for name in sorted(extra_rngs)
                }
            ),
        }
        return cls(payload)

    @staticmethod
    def _capture_sanity(balancer: "LoadBalancer") -> dict[str, Any] | None:
        sanity = balancer._sanity
        if sanity is None:
            return None
        return {
            "epoch": int(sanity._epoch),
            "last_good": [
                [
                    int(node_index),
                    [_hex(t[0]), _hex(t[1]), _hex(t[2]), int(t[3])],
                ]
                for node_index, t in sorted(sanity._last_good.items())
            ],
        }

    @staticmethod
    def _capture_adversary(balancer: "LoadBalancer") -> dict[str, Any] | None:
        engine = balancer.adversary
        if engine is None:
            return None
        return {
            "rngs": {
                "assign": _rng_state(engine._assign_rng),
                "accuse": _rng_state(engine._accuse_rng),
                "audit": _rng_state(engine._audit_rng),
            },
            # seq is implied by list position (as for the fault log).
            "log": [[a.behavior, int(a.node), a.subject] for a in engine.log],
            "behavior_of": (
                None
                if engine._behavior_of is None
                else [
                    [int(k), v]
                    for k, v in sorted(engine._behavior_of.items())
                ]
            ),
            "accused": [
                [int(victim), int(accuser)]
                for victim, accuser in sorted(engine._accused.items())
            ],
            "reneged": [
                [int(s), int(v)] for s, v in engine._reneged
            ],
            "current_round": int(engine._current_round),
        }

    @staticmethod
    def _capture_trust(balancer: "LoadBalancer") -> dict[str, Any] | None:
        from repro.adversary.trust import TrustedAggregation

        sanity = balancer._sanity
        if not isinstance(sanity, TrustedAggregation):
            return None
        # The audit rng is the engine's, captured in the adversary
        # section; only the ledger state lives here.
        return {
            "trust": [
                [int(k), _hex(v)] for k, v in sorted(sanity._trust.items())
            ],
            "ewma": [
                [int(k), [_hex(m), _hex(d)]]
                for k, (m, d) in sorted(sanity._ewma.items())
            ],
            "quarantined": sorted(int(i) for i in sanity._quarantined),
            "probation": [
                [int(k), int(v)] for k, v in sorted(sanity._probation.items())
            ],
            "penalized": sorted(int(i) for i in sanity._penalized),
        }

    @staticmethod
    def _capture_injector(balancer: "LoadBalancer") -> dict[str, Any] | None:
        injector = balancer.faults
        if injector is None:
            return None
        return {
            "rngs": {
                "drop": _rng_state(injector._drop_rng),
                "delay": _rng_state(injector._delay_rng),
                "dup": _rng_state(injector._dup_rng),
                "crash": _rng_state(injector._crash_rng),
                "abort": _rng_state(injector._abort_rng),
                "corrupt": _rng_state(injector._corrupt_rng),
                "partition": _rng_state(injector._partition_rng),
                "process_crash": _rng_state(injector._process_crash_rng),
            },
            "log": [
                [f.kind.value, f.phase, f.subject] for f in injector.log
            ],
            "crashes_left": int(injector._crashes_left),
            "component_of": (
                None
                if injector._component_of is None
                else [
                    [int(k), int(v)]
                    for k, v in sorted(injector._component_of.items())
                ]
            ),
            "current_round": int(injector._current_round),
            "claimed_vst_crash": sorted(injector._claimed_vst_crash),
        }

    @staticmethod
    def _capture_membership(balancer: "LoadBalancer") -> dict[str, Any] | None:
        membership = balancer.membership
        if membership is None:
            return None
        injector = balancer.faults
        assert injector is not None  # membership only exists with faults
        active_spec_index = None
        if membership._active_spec is not None:
            active_spec_index = injector.plan.partitions.index(
                membership._active_spec
            )
        return {
            "epoch": int(membership.epoch),
            "active": (
                None
                if membership.active is None
                else {
                    "epoch": int(membership.active.epoch),
                    "components": [
                        [int(i) for i in comp]
                        for comp in membership.active.components
                    ],
                }
            ),
            "active_spec_index": active_spec_index,
            "suspended": [
                {
                    "vs_id": int(txn.vs.vs_id),
                    "load": _hex(txn.vs.load),
                    "source": int(txn.source.index),
                    "target": int(txn.target.index),
                    "assignment": {
                        "load": _hex(a.candidate.load),
                        "vs_id": int(a.candidate.vs_id),
                        "node_index": int(a.candidate.node_index),
                        "target_node": int(a.target_node),
                        "level": int(a.level),
                    },
                }
                for txn, a in membership._suspended
            ],
        }

    @staticmethod
    def _capture_store(store: "ObjectStore | None") -> dict[str, Any] | None:
        if store is None:
            return None
        return {
            "objects": [
                [
                    name,
                    int(obj.key),
                    _hex(obj.load),
                    _hex(obj.size),
                ]
                for name, obj in sorted(store._objects.items())
            ],
            "by_vs": [
                [int(vs_id), sorted(names)]
                for vs_id, names in sorted(store._by_vs.items())
            ],
        }

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore(
        self,
        balancer: "LoadBalancer",
        store: "ObjectStore | None" = None,
        extra_rngs: Mapping[str, np.random.Generator] | None = None,
    ) -> None:
        """Overwrite ``balancer`` (and optionally ``store``) in place.

        The target stack must be *shape-compatible*: built from the
        same constructor arguments (config, plan, seeds) as the one
        captured — which is exactly what the recovery manager's factory
        guarantees — so everything not captured (placement maps, oracle
        caches, config) is already identical by construction.
        """
        ring = balancer.ring
        if int(self.payload["space_bits"]) != int(ring.space.bits):
            raise RecoveryError(
                f"snapshot identifier space ({self.payload['space_bits']} "
                f"bits) does not match the ring ({ring.space.bits} bits)"
            )

        # Ring membership and hosting, in captured order.
        ring.nodes.clear()
        ring._vs_by_id.clear()
        for spec in self.payload["nodes"]:
            node = PhysicalNode(
                index=int(spec["index"]),
                capacity=_unhex(spec["capacity"]),
                site=spec["site"],
            )
            node.alive = bool(spec["alive"])
            for vs_id, load_hex in spec["vs"]:
                vs = VirtualServer(int(vs_id), node, _unhex(load_hex))
                node.virtual_servers.append(vs)
                ring._vs_by_id[vs.vs_id] = vs
            ring.nodes.append(node)

        self._restore_balancer(balancer)
        self._restore_sanity(balancer)
        self._restore_adversary(balancer)
        self._restore_trust(balancer)
        self._restore_injector(balancer)
        self._restore_membership(balancer)
        self._restore_store(store)
        captured_streams = self.payload["extra_rngs"]
        requested = {} if extra_rngs is None else dict(extra_rngs)
        if sorted(captured_streams) != sorted(requested):
            raise RecoveryError(
                "extra rng streams disagree: snapshot captured "
                f"{sorted(captured_streams)}, restore target provides "
                f"{sorted(requested)}"
            )
        for name in sorted(requested):
            _set_rng_state(requested[name], captured_streams[name])

        # One bulk notification re-derives every dependent index: the
        # ring's sorted-id index, the balancer's tree event log,
        # any registered listener.
        ring._invalidate()
        ring._notify("bulk", -1)

    def _restore_balancer(self, balancer: "LoadBalancer") -> None:
        spec = self.payload["balancer"]
        balancer._round_index = int(self.payload["round_index"])
        stale = spec["stale_lbi"]
        balancer._stale_lbi = (
            None
            if stale is None
            else SystemLBI(
                total_load=_unhex(stale[0]),
                total_capacity=_unhex(stale[1]),
                min_vs_load=_unhex(stale[2]),
            )
        )
        balancer._stale_lbi_age = int(spec["stale_lbi_age"])
        _set_rng_state(balancer._lbi_rng, spec["rngs"]["lbi"])
        _set_rng_state(balancer._placement_rng, spec["rngs"]["placement"])
        _set_rng_state(balancer._landmark_rng, spec["rngs"]["landmark"])
        _set_rng_state(balancer._retry_rng, spec["rngs"]["retry"])

    def _restore_sanity(self, balancer: "LoadBalancer") -> None:
        spec = self.payload["sanity"]
        sanity = balancer._sanity
        if spec is None or sanity is None:
            if (spec is None) != (sanity is None):
                raise RecoveryError(
                    "snapshot and target disagree on aggregate-sanity "
                    "presence (different fault plans?)"
                )
            return
        sanity._epoch = int(spec["epoch"])
        sanity._last_good = {
            int(node_index): (
                _unhex(t[0]),
                _unhex(t[1]),
                _unhex(t[2]),
                int(t[3]),
            )
            for node_index, t in spec["last_good"]
        }

    def _restore_adversary(self, balancer: "LoadBalancer") -> None:
        from repro.adversary.engine import AdversaryAction

        spec = self.payload["adversary"]
        engine = balancer.adversary
        if spec is None or engine is None:
            if (spec is None) != (engine is None):
                raise RecoveryError(
                    "snapshot and target disagree on adversary-engine "
                    "presence (different adversary plans?)"
                )
            return
        rngs = spec["rngs"]
        _set_rng_state(engine._assign_rng, rngs["assign"])
        _set_rng_state(engine._accuse_rng, rngs["accuse"])
        _set_rng_state(engine._audit_rng, rngs["audit"])
        engine._restore_log(
            [
                AdversaryAction(
                    seq=seq, behavior=behavior, node=int(node), subject=subject
                )
                for seq, (behavior, node, subject) in enumerate(spec["log"])
            ]
        )
        engine._behavior_of = (
            None
            if spec["behavior_of"] is None
            else {int(k): str(v) for k, v in spec["behavior_of"]}
        )
        engine._accused = {
            int(victim): int(accuser) for victim, accuser in spec["accused"]
        }
        engine._reneged = [(int(s), int(v)) for s, v in spec["reneged"]]
        engine._current_round = int(spec["current_round"])

    def _restore_trust(self, balancer: "LoadBalancer") -> None:
        from repro.adversary.trust import TrustedAggregation

        spec = self.payload["trust"]
        sanity = balancer._sanity
        target = sanity if isinstance(sanity, TrustedAggregation) else None
        if spec is None or target is None:
            if (spec is None) != (target is None):
                raise RecoveryError(
                    "snapshot and target disagree on trust-layer presence "
                    "(different adversary plans or defense flags?)"
                )
            return
        target._trust = {int(k): _unhex(v) for k, v in spec["trust"]}
        target._ewma = {
            int(k): (_unhex(m), _unhex(d)) for k, (m, d) in spec["ewma"]
        }
        target._quarantined = {int(i) for i in spec["quarantined"]}
        target._probation = {int(k): int(v) for k, v in spec["probation"]}
        target._penalized = {int(i) for i in spec["penalized"]}

    def _restore_injector(self, balancer: "LoadBalancer") -> None:
        spec = self.payload["injector"]
        injector = balancer.faults
        if spec is None or injector is None:
            if (spec is None) != (injector is None):
                raise RecoveryError(
                    "snapshot and target disagree on fault-injector "
                    "presence (different fault plans?)"
                )
            return
        rngs = spec["rngs"]
        _set_rng_state(injector._drop_rng, rngs["drop"])
        _set_rng_state(injector._delay_rng, rngs["delay"])
        _set_rng_state(injector._dup_rng, rngs["dup"])
        _set_rng_state(injector._crash_rng, rngs["crash"])
        _set_rng_state(injector._abort_rng, rngs["abort"])
        _set_rng_state(injector._corrupt_rng, rngs["corrupt"])
        _set_rng_state(injector._partition_rng, rngs["partition"])
        _set_rng_state(injector._process_crash_rng, rngs["process_crash"])
        injector._restore_log(
            [
                InjectedFault(
                    seq=seq, kind=FaultKind(kind), phase=phase, subject=subject
                )
                for seq, (kind, phase, subject) in enumerate(spec["log"])
            ]
        )
        injector._crashes_left = int(spec["crashes_left"])
        injector._component_of = (
            None
            if spec["component_of"] is None
            else {int(k): int(v) for k, v in spec["component_of"]}
        )
        injector._current_round = int(spec["current_round"])
        injector._claimed_vst_crash = {
            int(r) for r in spec["claimed_vst_crash"]
        }

    def _restore_membership(self, balancer: "LoadBalancer") -> None:
        spec = self.payload["membership"]
        membership = balancer.membership
        if spec is None or membership is None:
            if (spec is None) != (membership is None):
                raise RecoveryError(
                    "snapshot and target disagree on membership-manager "
                    "presence (different fault plans?)"
                )
            return
        injector = balancer.faults
        assert injector is not None
        ring = balancer.ring
        membership.epoch = int(spec["epoch"])
        membership.active = (
            None
            if spec["active"] is None
            else MembershipView(
                epoch=int(spec["active"]["epoch"]),
                components=tuple(
                    tuple(int(i) for i in comp)
                    for comp in spec["active"]["components"]
                ),
            )
        )
        membership._active_spec = (
            None
            if spec["active_spec_index"] is None
            else injector.plan.partitions[int(spec["active_spec_index"])]
        )
        node_by_index = {n.index: n for n in ring.nodes}
        membership._suspended = []
        for s in spec["suspended"]:
            source = node_by_index[int(s["source"])]
            target = node_by_index[int(s["target"])]
            # The suspended server is *in flight*: owned by its source
            # but hosted by no node, registered on the ring so staleness
            # checks still resolve it.
            vs = VirtualServer(int(s["vs_id"]), source, _unhex(s["load"]))
            ring._vs_by_id[vs.vs_id] = vs
            txn = TransferTransaction(
                ring, vs, source, target, journal=balancer.journal
            )
            txn.state = "prepared"
            a = s["assignment"]
            assignment = Assignment(
                candidate=ShedCandidate(
                    load=_unhex(a["load"]),
                    vs_id=int(a["vs_id"]),
                    node_index=int(a["node_index"]),
                ),
                target_node=int(a["target_node"]),
                level=int(a["level"]),
            )
            membership._suspended.append((txn, assignment))

    def _restore_store(self, store: "ObjectStore | None") -> None:
        spec = self.payload["store"]
        if spec is None or store is None:
            if (spec is None) != (store is None):
                raise RecoveryError(
                    "snapshot and target disagree on object-store presence"
                )
            return
        from repro.dht.storage import StoredObject

        store._objects = {
            name: StoredObject(
                key=int(key), name=name, load=_unhex(load), size=_unhex(size)
            )
            for name, key, load, size in spec["objects"]
        }
        store._by_vs = {
            int(vs_id): set(names) for vs_id, names in spec["by_vs"]
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SystemSnapshot(round={self.round_index}, "
            f"nodes={len(self.payload['nodes'])}, "
            f"digest={self.canonical_digest()[:12]})"
        )
