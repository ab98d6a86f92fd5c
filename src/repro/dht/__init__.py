"""A Chord DHT simulator with virtual servers.

The simulator models the structural level of Chord that the paper's load
balancer depends on:

* physical nodes with heterogeneous capacities, each hosting multiple
  *virtual servers* (VS);
* a consistent-hashing ring: the VS with identifier ``s`` owns the region
  ``(predecessor(s), s]`` of the identifier space;
* iterative finger-table lookups (for hop-count accounting);
* churn primitives — VS join/leave, node join/leave/crash — and the
  *virtual server transfer* operation (a leave followed by a join on a
  different physical node) that is the unit of load movement.
"""

from repro.dht.node import PhysicalNode
from repro.dht.virtual_server import VirtualServer
from repro.dht.chord import ChordRing
from repro.dht.lookup import lookup_hops, lookup_path
from repro.dht.churn import ChurnStats, crash_node, join_node, leave_node
from repro.dht.events import RingDelta, RingEventLog
from repro.dht.storage import ObjectStore, StoredObject
from repro.dht.split import split_until_movable, split_virtual_server

__all__ = [
    "PhysicalNode",
    "VirtualServer",
    "ChordRing",
    "lookup_hops",
    "lookup_path",
    "ChurnStats",
    "RingDelta",
    "RingEventLog",
    "crash_node",
    "join_node",
    "leave_node",
    "ObjectStore",
    "StoredObject",
    "split_virtual_server",
    "split_until_movable",
]
