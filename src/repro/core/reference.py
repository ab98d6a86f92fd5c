"""The object-walk round kernels, kept as the reference for tests.

:class:`SerialLoadBalancer` runs :class:`~repro.core.balancer.LoadBalancer`'s
round body with the literal protocol's tree kernels: every part builds a
fresh K-nary tree, and its reports and publications are folded and swept
node by node (:func:`~repro.core.lbi.aggregate_lbi`,
:class:`~repro.core.vsa.VSASweep`).  Digests, journals and traced event
streams must equal :class:`LoadBalancer`'s; no production caller uses it.
"""

from __future__ import annotations

from repro.adversary.stats import AdversaryRoundStats
from repro.core.balancer import LoadBalancer, RoundPart
from repro.core.lbi import AggregationTrace, aggregate_lbi, collect_lbi_reports
from repro.core.records import SystemLBI
from repro.core.soa import NodeStateArrays
from repro.core.vsa import VSAEntries, VSAResult, VSASweep
from repro.faults.stats import FaultRoundStats
from repro.ktree.tree import KnaryTree


class SerialLoadBalancer(LoadBalancer):
    """:class:`LoadBalancer` with a fresh tree per part, walked object by object.

    The part's tree is built by the LBI kernel and extended by the sweep.
    """

    _part_tree: KnaryTree | None = None

    def _fold_lbi(
        self,
        part: RoundPart,
        arrays: NodeStateArrays,
        stats: FaultRoundStats,
        adv_stats: AdversaryRoundStats,
    ) -> tuple[SystemLBI, AggregationTrace] | None:
        """Phase 1 kernel: build the part's KT, collect and fold LBI.

        Returns ``None`` when every report was lost or rejected.
        """
        tree = KnaryTree(part.ring, self.config.tree_degree, metrics=self.metrics)
        self._part_tree = tree
        reports = collect_lbi_reports(
            part.ring,
            tree,
            rng=self._lbi_rng,
            tracer=self.tracer,
            faults=self.faults,
            retry=self.retry,
            fault_stats=stats,
            sanity=self._sanity,
            epoch=stats.epoch,
            adversary=self.adversary,
            adversary_stats=adv_stats,
        )
        if not reports:
            return None
        return aggregate_lbi(tree, reports, tracer=self.tracer)

    def _sweep_vsa(
        self,
        part: RoundPart,
        published: VSAEntries,
        min_vs_load: float,
        stats: FaultRoundStats,
    ) -> tuple[VSAResult, int, int]:
        """Phase 3b kernel: the bottom-up sweep over the part's KT.

        Returns the result plus the tree's final height and node count.
        """
        tree = self._part_tree
        assert tree is not None
        result = VSASweep(
            tree,
            threshold=self.config.rendezvous_threshold,
            min_vs_load=min_vs_load,
            strict_heaviest_first=self.config.strict_heaviest_first,
            tracer=self.tracer,
            faults=self.faults,
            retry=self.retry,
            rng=self._retry_rng,
            fault_stats=stats,
        ).run(published)
        return result, tree.height(), tree.node_count
