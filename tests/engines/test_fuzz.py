"""Self-tests of the seeded random ModelGraph generator.

The conformance corpus is only as trustworthy as its generator: these pin
determinism (same seed, byte-identical graph), structural validity (every
graph passes ``ModelGraph`` validation and the compiler's fusion
precondition), the linearize round-trip and operator coverage -- plus
minimized regression fixtures for the gnarliest shapes the corpus grows
(self-concat, spatial collapse to 1x1, SIMD-only chains, stacked
softmaxes), each held to full cross-engine conformance.
"""

import pytest

from repro.api.configs import get_config
from repro.compiler.schedule import plan_elementwise_fusion
from repro.arch.config import SPARSITY_VARIANTS
from repro.sim.engines import ENGINE_SPECS
from repro.sim.engines.conformance import (
    REFERENCE_ENGINE,
    assert_conformance,
)
from repro.workloads.fuzz import (
    DEFAULT_MAX_NODES,
    DEFAULT_MIN_NODES,
    fuzz_corpus,
    fuzz_graph,
    fuzz_workload,
    graph_fingerprint,
)
from repro.workloads.graph import GraphBuilder, OpKind
from repro.workloads.models import ModelWorkload
from repro.workloads.profiles import profile_model

SEEDS = tuple(range(40))


class TestDeterminism:
    @pytest.mark.parametrize("seed", (0, 1, 7, 13, 99, 12345))
    def test_same_seed_same_graph(self, seed):
        first = fuzz_graph(seed)
        second = fuzz_graph(seed)
        assert graph_fingerprint(first) == graph_fingerprint(second)
        assert [n.name for n in first] == [n.name for n in second]

    def test_different_seeds_differ(self):
        prints = {graph_fingerprint(fuzz_graph(seed)) for seed in SEEDS}
        # Collisions would mean the rng is not actually driving growth.
        assert len(prints) == len(SEEDS)

    def test_workload_knobs_are_deterministic(self):
        a = fuzz_workload(17)
        b = fuzz_workload(17)
        assert a.redundancy == b.redundancy
        assert a.activation_density == b.activation_density
        assert graph_fingerprint(a.graph) == graph_fingerprint(b.graph)

    def test_corpus_is_one_workload_per_seed(self):
        corpus = fuzz_corpus(range(5))
        assert [w.name for w in corpus] == [f"fuzz-{s}" for s in range(5)]


class TestValidity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_graphs_validate_and_fuse(self, seed):
        """Every graph builds (ModelGraph validation) and satisfies the
        fusion precondition (every SIMD node has a weighted anchor)."""
        graph = fuzz_graph(seed)
        decisions = plan_elementwise_fusion(graph)
        assert all(decision.anchor >= 0 for decision in decisions)
        assert len(decisions) == len(graph.simd_nodes())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linearize_round_trip(self, seed):
        graph = fuzz_graph(seed)
        layers = graph.linearize()
        assert len(layers) == len(graph.weighted_nodes())
        workload = fuzz_workload(seed)
        assert workload.layers == workload.graph.linearize()
        # Weighted shapes are all constructible (LayerShape validated on
        # build) and have positive output geometry.
        assert all(layer.output_positions > 0 for layer in layers)

    def test_node_bounds_are_respected(self):
        for seed in range(20):
            graph = fuzz_graph(seed, min_nodes=4, max_nodes=9)
            # Atomic attention blocks may overshoot by at most their size-1.
            assert 4 <= len(graph) <= 9 + 7

    def test_bad_bounds_are_rejected(self):
        with pytest.raises(ValueError, match="node bounds"):
            fuzz_graph(0, min_nodes=5, max_nodes=3)
        with pytest.raises(ValueError, match="node bounds"):
            fuzz_graph(0, min_nodes=0)

    def test_default_bounds(self):
        graph = fuzz_graph(2)
        assert DEFAULT_MIN_NODES <= len(graph) <= DEFAULT_MAX_NODES + 7

    def test_operator_coverage(self):
        """Across a modest seed range every IR operator occurs."""
        seen = set()
        for seed in range(150):
            for node in fuzz_graph(seed):
                seen.add(node.op)
        assert seen == set(OpKind.WEIGHTED) | set(OpKind.SIMD)


def _minimized_fixtures():
    """Minimized pathological graphs the corpus grows, pinned forever.

    The 200-seed corpus sweep across every preset and variant surfaced no
    engine divergence; these fixtures pin the structurally hardest shapes
    it reaches so any future regression fails on a five-node reproducer
    instead of a 30-node random graph.
    """
    fixtures = []

    g = GraphBuilder("fuzz-min-self-concat")
    x = g.conv("c1", 3, 8, 3, 8)
    g.concat("cat", x, x)  # the same value concatenated with itself
    g.conv("c2", 16, 8, 3, 8, inputs="cat")
    fixtures.append(g.build())

    g = GraphBuilder("fuzz-min-collapse")
    g.conv("c1", 3, 8, 3, 4, stride=2)  # 4 -> 2
    g.conv("c2", 8, 8, 3, 2, stride=2)  # 2 -> 1
    g.conv("c3", 8, 8, 3, 1)  # 3x3 kernel on a 1x1 feature map
    fixtures.append(g.build())

    g = GraphBuilder("fuzz-min-simd-chain")
    a = g.conv("c1", 3, 8, 3, 8)
    b = g.conv("c2", 8, 8, 3, 8, inputs=a)
    c = g.conv("c3", 8, 8, 3, 8, inputs=b)
    s1 = g.add("a1", a, b)
    s2 = g.add("a2", s1, c)
    g.add("a3", s1, s2)  # an add consuming only SIMD outputs
    g.conv("c4", 8, 8, 3, 8, inputs="a3")
    fixtures.append(g.build())

    g = GraphBuilder("fuzz-min-double-softmax")
    g.matmul("m1", 4, 8, 4)
    g.softmax("s1")
    g.softmax("s2")  # softmax of a softmax: both fuse to the same anchor
    g.matmul("m2", 4, 4, 8)
    fixtures.append(g.build())

    return fixtures


class TestMinimizedFixtures:
    @pytest.mark.parametrize(
        "graph", _minimized_fixtures(), ids=lambda g: g.name
    )
    def test_fixture_conforms_on_every_engine(self, graph):
        workload = ModelWorkload.from_graph(
            graph, redundancy=0.5, activation_density=0.5
        )
        profile = profile_model(workload, seed=0)
        config = get_config("paper-28nm")
        for engine in ENGINE_SPECS:
            if engine.name == REFERENCE_ENGINE:
                continue
            for variant in SPARSITY_VARIANTS:
                assert_conformance(
                    engine,
                    profile,
                    config,
                    variant,
                    case=f"{graph.name}/{engine.name}/{variant}",
                )
