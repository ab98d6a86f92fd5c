"""Shared fixtures: small deterministic rings, topologies, scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dht import ChordRing
from repro.idspace import IdentifierSpace
from repro.recovery import durable
from repro.topology import (
    DistanceOracle,
    TransitStubParams,
    generate_transit_stub,
)
from repro.workloads import GaussianLoadModel, build_scenario


@pytest.fixture
def fsync_calls(monkeypatch) -> list[int]:
    """Every ``os.fsync`` the durable layer makes, in order (still synced)."""
    calls: list[int] = []
    real_fsync = durable.os.fsync

    def counting_fsync(fd: int) -> None:
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(durable.os, "fsync", counting_fsync)
    return calls


@pytest.fixture
def space16() -> IdentifierSpace:
    return IdentifierSpace(bits=16)


@pytest.fixture
def space8() -> IdentifierSpace:
    return IdentifierSpace(bits=8)


@pytest.fixture
def small_ring(space16) -> ChordRing:
    """20 nodes x 3 virtual servers on a 16-bit ring, equal capacities."""
    ring = ChordRing(space16)
    ring.populate(20, 3, [1.0] * 20, rng=7)
    return ring


@pytest.fixture
def loaded_ring(space16) -> ChordRing:
    """Ring with deterministic loads proportional to region fractions."""
    ring = ChordRing(space16)
    ring.populate(16, 4, [1.0, 2.0, 4.0, 8.0] * 4, rng=3)
    fractions = ring.fractions()
    for vs, f in zip(ring.virtual_servers, fractions):
        vs.load = 1000.0 * f
    return ring


MINI_TS = TransitStubParams(
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
    stub_nodes_mean=6,
    name="mini-ts",
)


@pytest.fixture
def mini_topology():
    return generate_transit_stub(MINI_TS, rng=5)


@pytest.fixture
def mini_oracle(mini_topology):
    return DistanceOracle(mini_topology)


@pytest.fixture
def mini_scenario():
    """Small full scenario with topology, for integration tests."""
    return build_scenario(
        GaussianLoadModel(mu=1e5, sigma=500.0),
        num_nodes=24,
        vs_per_node=3,
        topology_params=MINI_TS,
        rng=11,
    )
