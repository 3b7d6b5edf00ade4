"""Batch flip repair: conflict groups, group order, proactive flips."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import GraphError
from repro.graph.generators import union_of_random_forests
from repro.graph.graph import Graph
from repro.stream.dynamic_graph import DynamicGraph
from repro.stream.orientation import IncrementalOrientation, plan_conflict_groups
from repro.stream.service import StreamingService
from repro.stream.updates import UpdateBatch
from repro.stream.workloads import (
    densifying_core_trace,
    sliding_window_trace,
    uniform_churn_trace,
)


class TestConflictGroupPlanning:
    def test_disjoint_updates_get_singleton_groups(self):
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 2, 3), ("+", 4, 5)])
        assert plan_conflict_groups(batch.updates) == [[0], [1], [2]]

    def test_shared_endpoint_merges_groups(self):
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 2, 3), ("+", 1, 2)])
        assert plan_conflict_groups(batch.updates) == [[0, 1, 2]]

    def test_groups_are_vertex_disjoint_and_cover_the_batch(self):
        rng = random.Random(0)
        ops = []
        live = set()
        for _ in range(300):
            u, v = rng.randrange(64), rng.randrange(64)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in live:
                live.discard(e)
                ops.append(("-", *e))
            else:
                live.add(e)
                ops.append(("+", *e))
        batch = UpdateBatch.from_ops(ops)
        groups = plan_conflict_groups(batch.updates)
        seen_updates = [i for group in groups for i in group]
        assert sorted(seen_updates) == list(range(len(batch)))
        touched: list[set[int]] = []
        for group in groups:
            vertices = set()
            for index in group:
                vertices.add(batch.updates[index].u)
                vertices.add(batch.updates[index].v)
            touched.append(vertices)
        for i, a in enumerate(touched):
            for b in touched[i + 1:]:
                assert not (a & b)

    def test_group_order_is_deterministic(self):
        batch = UpdateBatch.from_ops([("+", 5, 6), ("+", 0, 1), ("+", 6, 7)])
        assert plan_conflict_groups(batch.updates) == [[0, 2], [1]]


class TestApplyBatch:
    def test_batch_equals_flat_state(self):
        """Grouped application must land on a legal, cap-respecting state
        covering exactly the live edges."""
        base = union_of_random_forests(96, arboricity=2, seed=5)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic)
        batch = UpdateBatch.from_ops(
            [("-", *e) for e in list(base.edges)[:20]]
            + [("+", 90, 91), ("+", 91, 92), ("+", 90, 92)]
        )
        for update in batch.updates:
            if update.is_insert:
                dynamic.add_edge(update.u, update.v)
            else:
                dynamic.remove_edge(update.u, update.v)
        report = orientation.apply_batch(batch.updates)
        assert report.num_updates == len(batch)
        assert report.num_groups >= 2
        assert orientation.oriented_edge_count() == dynamic.num_edges
        assert orientation.max_outdegree() <= orientation.outdegree_cap

    def test_empty_batch_is_a_noop(self):
        orientation = IncrementalOrientation(DynamicGraph.empty(4))
        report = orientation.apply_batch(())
        assert report.num_updates == 0
        assert report.num_groups == 0

    def test_drifted_state_raises_instead_of_silently_skipping(self):
        """Without a mid-batch rebuild, a delete of an unoriented edge (or an
        insert of an oriented one) means the orientation drifted from the
        live edge set — the batch path must raise like delete() does."""
        dynamic = DynamicGraph.empty(6)
        orientation = IncrementalOrientation(dynamic)
        dynamic.add_edge(0, 1)
        orientation.insert(0, 1)
        orientation._out[0].discard(1)  # induce drift: live edge unoriented
        dynamic.remove_edge(0, 1)
        with pytest.raises(GraphError, match="not oriented"):
            orientation.apply_batch(UpdateBatch.from_ops([("-", 0, 1)]).updates)

        dynamic2 = DynamicGraph.empty(6)
        orientation2 = IncrementalOrientation(dynamic2)
        orientation2._out[0].add(1)  # induce drift: phantom orientation
        dynamic2.add_edge(0, 1)
        with pytest.raises(GraphError, match="drifted"):
            orientation2.apply_batch(UpdateBatch.from_ops([("+", 0, 1)]).updates)

    @staticmethod
    def _hand_built(num_vertices, directed_edges, cap):
        """An orientation holding exactly ``directed_edges`` (tail, head)."""
        dynamic = DynamicGraph.empty(num_vertices)
        orientation = IncrementalOrientation(dynamic, lambda_bound=cap // 2, flip_slack=2)
        assert orientation.outdegree_cap == cap
        for tail, head in directed_edges:
            dynamic.add_edge(tail, head)
            orientation._out[tail].add(head)
            orientation._outdeg[tail] += 1
        return dynamic, orientation

    @pytest.mark.parametrize(
        "directed_edges, ops, message",
        [
            # Insert of an edge the orientation already holds.
            ([(0, 1)], [("+", 0, 1)], "drifted"),
            # Delete of an edge nobody orients.
            ([], [("-", 0, 1)], "not oriented"),
            # A group run without repair that overflows the cap.
            ([(0, 2), (0, 3), (1, 4), (1, 5)], [("+", 0, 1)], "precheck is broken"),
        ],
        ids=["insert-drift", "delete-unoriented", "cap-overflow"],
    )
    def test_cap_safe_group_apply_rejects_drift(self, directed_edges, ops, message):
        """The in-process guards of a group run without repair: drift raises
        like the per-update path, and a cap overflow means the precheck is
        broken, so it raises instead of starting a flip search."""
        _dynamic, orientation = self._hand_built(6, directed_edges, cap=2)
        group = list(UpdateBatch.from_ops(ops).updates)
        with pytest.raises(GraphError, match=message):
            orientation._apply_group(group, allow_repair=False, rebuilds_before=0)

    def test_cap_safe_groups_run_before_flip_path_groups(self):
        """Group 0 needs a flip path that can end at vertex 2, which group 1
        (cap-safe) touches.  Cap-safe groups run first, so group 1 claims
        2's spare slot and the flip path ends at 3 instead; group order
        would flip 2 -> 0 and then orient {2, 6} out of 6."""
        edges = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 8), (6, 9)]
        dynamic, orientation = self._hand_built(10, edges, cap=2)
        batch = UpdateBatch.from_ops([("+", 0, 1), ("+", 2, 6)])
        dynamic.apply_ops(*batch.columns())
        report = orientation.apply_batch(batch.updates)
        assert (report.num_groups, report.parallel_groups) == (2, 1)
        assert orientation.head(2, 6) == 6
        assert orientation.head(0, 3) == 0
        assert orientation.head(0, 2) == 2
        assert orientation.flips == 1
        assert orientation.max_outdegree() <= orientation.outdegree_cap


class TestServiceDeterminism:
    """Same seed, same trace ⇒ byte-identical structures, on every trace
    family (including rebuild-heavy ones)."""

    @staticmethod
    def _fingerprint(service: StreamingService):
        return (
            tuple(tuple(sorted(out)) for out in service.orientation._out),
            tuple(service.coloring._colors),
            service.orientation.flips,
            service.orientation.opportunistic_flips,
            service.orientation.rebuilds,
            service.cluster.stats.num_rounds,
            tuple(report.parallel_groups for report in service.summary.reports),
        )

    @pytest.mark.parametrize(
        "make_trace",
        [
            lambda: uniform_churn_trace(192, num_batches=5, batch_size=120, seed=2),
            lambda: sliding_window_trace(128, window=256, num_batches=5,
                                         batch_size=80, seed=3),
            lambda: densifying_core_trace(96, core_size=32, num_batches=6,
                                          batch_size=100, seed=4),
        ],
        ids=["churn", "window", "densify"],
    )
    def test_state_roundtrip_mid_trace_is_byte_identical(self, make_trace):
        """A service rebuilt from a JSON round trip of its state halfway
        through a trace finishes exactly where the uninterrupted one does."""
        trace = make_trace()
        uninterrupted = StreamingService(trace.initial, seed=7)
        uninterrupted.apply_all(trace.batches)
        uninterrupted.verify()

        trace = make_trace()
        half = len(trace.batches) // 2
        first = StreamingService(trace.initial, seed=7)
        first.apply_all(trace.batches[:half])
        state = json.loads(json.dumps(first.state_dict()))
        resumed = StreamingService.from_state(state)
        resumed.apply_all(trace.batches[half:])
        resumed.verify()
        assert self._fingerprint(resumed) == self._fingerprint(uninterrupted)

    def test_parallel_groups_are_reported(self):
        trace = uniform_churn_trace(256, num_batches=3, batch_size=150, seed=8)
        service = StreamingService(trace.initial, seed=8)
        summary = service.apply_all(trace.batches)
        assert all(r.conflict_groups >= r.parallel_groups for r in summary.reports)
        assert sum(r.parallel_groups for r in summary.reports) > 0


class TestProactiveFlips:
    def test_proactive_flip_drains_an_at_cap_vertex(self):
        """Direct scenario: w sits at the cap with an out-edge into t; a
        deletion frees a slot at t; the maintainer must flip w->t to t->w."""
        n = 6
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(dynamic, lambda_bound=2, flip_slack=2)
        cap = orientation.outdegree_cap
        out = orientation._out
        # Hand-build the state (legal: edge-set matches, caps respected).
        # w = 0 at cap: 0 -> 1, 0 -> 2, 0 -> 3, 0 -> 4 (cap = 4)
        for w in range(1, cap + 1):
            dynamic.add_edge(0, w)
            out[0].add(w)
        # t = 1 owns one extra edge 1 -> 5.
        dynamic.add_edge(1, 5)
        out[1].add(5)
        assert orientation.outdegree(0) == cap
        # Deleting {1, 5} frees a slot at 1; 0 is an at-cap in-neighbor of 1.
        dynamic.remove_edge(1, 5)
        orientation.delete(1, 5)
        assert orientation.opportunistic_flips == 1
        assert orientation.outdegree(0) == cap - 1
        assert orientation.head(0, 1) == 0  # flipped toward the freed slot
        assert orientation.max_outdegree() <= cap

    def test_disabled_proactive_flips_change_nothing_on_delete(self):
        n = 6
        dynamic = DynamicGraph.empty(n)
        orientation = IncrementalOrientation(
            dynamic, lambda_bound=2, flip_slack=2, proactive_flips=False
        )
        cap = orientation.outdegree_cap
        out = orientation._out
        for w in range(1, cap + 1):
            dynamic.add_edge(0, w)
            out[0].add(w)
        dynamic.add_edge(1, 5)
        out[1].add(5)
        dynamic.remove_edge(1, 5)
        orientation.delete(1, 5)
        assert orientation.opportunistic_flips == 0
        assert orientation.outdegree(0) == cap

    @pytest.mark.parametrize("seed", [1, 4])
    def test_churn_property_invariants_hold_with_proactive_flips(self, seed):
        """ISSUE 3 satellite: under random churn with deletions, proactive
        flips fire, the cap invariant holds at every checkpoint, and the
        oriented set tracks the live set exactly."""
        n = 64
        rng = random.Random(seed)
        base = union_of_random_forests(n, arboricity=3, seed=seed)
        dynamic = DynamicGraph(base)
        orientation = IncrementalOrientation(dynamic, lambda_bound=2, flip_slack=2,
                                             quality_interval=10**9)
        mirror = set(base.edges)
        for step in range(900):
            if mirror and rng.random() < 0.55:
                e = sorted(mirror)[rng.randrange(len(mirror))]
                mirror.discard(e)
                dynamic.remove_edge(*e)
                orientation.delete(*e)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e in mirror:
                    continue
                mirror.add(e)
                dynamic.add_edge(*e)
                orientation.insert(*e)
            if step % 90 == 89:
                assert orientation.max_outdegree() <= orientation.outdegree_cap
                assert orientation.oriented_edge_count() == len(mirror)
        assert orientation.opportunistic_flips > 0
        assert orientation.opportunistic_flips <= orientation.flips
