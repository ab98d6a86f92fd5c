"""Tests for balancing-trigger policies."""

import hashlib

import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.core.trigger import (
    ImbalanceTriggeredPolicy,
    PeriodicPolicy,
    run_with_policy,
)
from repro.exceptions import BalancerError, ConfigError
from repro.ktree import KnaryTree
from repro.sim import LoadDynamics
from repro.workloads import GaussianLoadModel, build_scenario


def make_balancer(rng=21):
    sc = build_scenario(
        GaussianLoadModel(mu=1e5, sigma=300.0), num_nodes=64, vs_per_node=4, rng=rng
    )
    return LoadBalancer(
        sc.ring, BalancerConfig(proximity_mode="ignorant", epsilon=0.05), rng=3
    )


class TestPolicies:
    def test_periodic_always_balances(self):
        policy = PeriodicPolicy()
        assert policy.should_balance(0.0)
        assert policy.should_balance(1.0)

    def test_triggered_threshold(self):
        policy = ImbalanceTriggeredPolicy(threshold=0.2)
        assert not policy.should_balance(0.2)
        assert policy.should_balance(0.21)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            ImbalanceTriggeredPolicy(threshold=1.5)


class TestRunWithPolicy:
    def test_periodic_runs_every_epoch(self):
        balancer = make_balancer()
        dynamics = LoadDynamics(drift_sigma=0.1, rng=5)
        trace = run_with_policy(balancer, dynamics, PeriodicPolicy(), epochs=4)
        assert trace.rounds_run == 4
        assert len(trace.epochs) == 4

    def test_triggered_skips_calm_epochs(self):
        balancer = make_balancer()
        # First epoch is wildly imbalanced (cold start); later epochs with
        # zero drift stay calm, so a triggered policy skips them.
        dynamics = LoadDynamics(drift_sigma=0.0, rng=5)
        trace = run_with_policy(
            balancer, dynamics, ImbalanceTriggeredPolicy(threshold=0.1), epochs=4
        )
        assert trace.epochs[0].balanced  # cold start exceeds threshold
        assert not any(e.balanced for e in trace.epochs[1:])
        assert trace.rounds_run == 1

    def test_triggered_cheaper_than_periodic(self):
        periodic = run_with_policy(
            make_balancer(), LoadDynamics(drift_sigma=0.02, rng=6),
            PeriodicPolicy(), epochs=5,
        )
        triggered = run_with_policy(
            make_balancer(), LoadDynamics(drift_sigma=0.02, rng=6),
            ImbalanceTriggeredPolicy(threshold=0.15), epochs=5,
        )
        assert triggered.rounds_run < periodic.rounds_run
        assert triggered.total_control_messages < periodic.total_control_messages

    def test_triggered_still_bounds_imbalance(self):
        balancer = make_balancer()
        dynamics = LoadDynamics(drift_sigma=0.15, rng=7)
        trace = run_with_policy(
            balancer, dynamics, ImbalanceTriggeredPolicy(threshold=0.25), epochs=6
        )
        # Whenever the fraction exceeded the threshold, balancing ran.
        for e in trace.epochs:
            if e.heavy_fraction > 0.25:
                assert e.balanced

    def test_invalid_epochs(self):
        with pytest.raises(ConfigError):
            run_with_policy(
                make_balancer(), LoadDynamics(rng=0), PeriodicPolicy(), epochs=0
            )

    def test_measurement_cost_charged_every_epoch(self):
        balancer = make_balancer()
        dynamics = LoadDynamics(drift_sigma=0.0, rng=8)
        trace = run_with_policy(
            balancer, dynamics, ImbalanceTriggeredPolicy(threshold=0.99), epochs=3
        )
        assert all(e.control_messages > 0 for e in trace.epochs)

    def test_measurement_reuses_the_persistent_tree(self, monkeypatch):
        # The measurement folds over the balancer's own tree: eight
        # epochs build one KnaryTree (the first fold's), not one per
        # epoch on top of it.
        builds = []
        tree_init = KnaryTree.__init__

        def counted_init(self, *args, **kwargs):
            builds.append(self)
            tree_init(self, *args, **kwargs)

        monkeypatch.setattr(KnaryTree, "__init__", counted_init)
        run_with_policy(
            make_balancer(), LoadDynamics(drift_sigma=0.05, rng=9),
            ImbalanceTriggeredPolicy(0.10), epochs=8,
        )
        assert len(builds) == 1

    def test_no_admitted_report_raises(self):
        # Every node down, its virtual servers still on the ring: the
        # tree builds, but no report reaches it.
        balancer = make_balancer()
        for node in balancer.ring.nodes:
            node.alive = False
        with pytest.raises(BalancerError, match="no LBI reports to aggregate"):
            run_with_policy(
                balancer, LoadDynamics(rng=0), PeriodicPolicy(), epochs=1
            )


# ----------------------------------------------------------------------
# Pinned policy runs: the measurement and the rounds it triggers
# ----------------------------------------------------------------------
POLICIES = {
    "periodic": PeriodicPolicy,
    "trigger-0.10": lambda: ImbalanceTriggeredPolicy(0.10),
    "trigger-0.25": lambda: ImbalanceTriggeredPolicy(0.25),
}

#: Per-epoch ``(heavy_fraction, balanced, moved_load, transfers,
#: control_messages)`` of each pinned run.
EPOCH_PINS = {
    'periodic': [
        ('0x1.5800000000000p-1', True, '0x1.ee91f511edf0ep+15', 131, 1602),
        ('0x1.4000000000000p-3', True, '0x1.2f57ccfba2f7ep+10', 11, 1775),
        ('0x1.0000000000000p-3', True, '0x1.087cc4a2a56fep+10', 8, 1716),
        ('0x1.2000000000000p-3', True, '0x1.47e5a4853bddcp+9', 9, 1723),
        ('0x1.4000000000000p-4', True, '0x1.8c75e6c33eecbp+8', 5, 1727),
        ('0x1.c000000000000p-4', True, '0x1.4ea265956e417p+9', 7, 1744),
        ('0x1.4000000000000p-4', True, '0x1.0d8a673eaeb56p+9', 6, 1693),
        ('0x1.0000000000000p-3', True, '0x1.519d39391074ep+9', 8, 1710),
    ],
    'trigger-0.10': [
        ('0x1.5800000000000p-1', True, '0x1.ee91f511edf0ep+15', 131, 1602),
        ('0x1.4000000000000p-3', True, '0x1.2f57ccfba2f7ep+10', 11, 1775),
        ('0x1.0000000000000p-3', True, '0x1.087cc4a2a56fep+10', 8, 1716),
        ('0x1.2000000000000p-3', True, '0x1.47e5a4853bddcp+9', 9, 1723),
        ('0x1.4000000000000p-4', False, '0x0.0p+0', 0, 696),
        ('0x1.0000000000000p-3', True, '0x1.a9857f3f50a30p+9', 8, 1723),
        ('0x1.8000000000000p-4', False, '0x0.0p+0', 0, 696),
        ('0x1.0000000000000p-3', True, '0x1.a891eb8370b06p+9', 8, 1743),
    ],
    'trigger-0.25': [
        ('0x1.5800000000000p-1', True, '0x1.ee91f511edf0ep+15', 131, 1602),
        ('0x1.4000000000000p-3', False, '0x0.0p+0', 0, 708),
        ('0x1.0000000000000p-3', False, '0x0.0p+0', 0, 714),
        ('0x1.a000000000000p-3', False, '0x0.0p+0', 0, 702),
        ('0x1.a000000000000p-3', False, '0x0.0p+0', 0, 716),
        ('0x1.c000000000000p-3', False, '0x0.0p+0', 0, 696),
        ('0x1.6000000000000p-3', False, '0x0.0p+0', 0, 692),
        ('0x1.6000000000000p-3', False, '0x0.0p+0', 0, 694),
    ],
}
RING_PINS = {
    'periodic': (
        'ddb0bb86b04b3b865b828ecc0e283dc9'
        '8334a72f33b230cc0d41da8957515574'
    ),
    'trigger-0.10': (
        'acd7ae8f877751a7b83656b5792b72c9'
        'd3bb8405b676f55a9827c8bc98d32d3b'
    ),
    'trigger-0.25': (
        '5e16af3585033e299800bf745aac248d'
        'fff1e230953597f5f40f2af14920148c'
    ),
}


def _pinned_run(policy_name):
    """Eight drift-0.05 epochs: per-epoch fields (floats as hex) plus a
    hash of every node's ``(vs_id, load.hex())`` after the run."""
    balancer = make_balancer()
    trace = run_with_policy(
        balancer, LoadDynamics(drift_sigma=0.05, rng=9),
        POLICIES[policy_name](), epochs=8,
    )
    epochs = [
        (
            e.heavy_fraction.hex(),
            e.balanced,
            e.moved_load.hex(),
            e.transfers,
            e.control_messages,
        )
        for e in trace.epochs
    ]
    ring = repr(
        [
            (n.index, [(vs.vs_id, vs.load.hex()) for vs in n.virtual_servers])
            for n in balancer.ring.alive_nodes
        ]
    )
    return epochs, hashlib.sha256(ring.encode()).hexdigest()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_policy_runs_match_pins(policy_name):
    epochs, ring_hash = _pinned_run(policy_name)
    assert epochs == EPOCH_PINS[policy_name]
    assert ring_hash == RING_PINS[policy_name]


if __name__ == "__main__":
    for name in POLICIES:
        print(name, _pinned_run(name))
