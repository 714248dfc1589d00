"""Seeded random :class:`~repro.workloads.graph.ModelGraph` generator.

The cross-engine conformance harness (:mod:`repro.sim.engines.conformance`,
``tests/engines/``) needs far more structural variety than the seven stock
:data:`~repro.workloads.models.WORKLOAD_FAMILIES` graphs provide: residual
adds landing on SIMD outputs, concat joins of uneven branches, attention
blocks at odd token counts, depthwise stacks behind concats -- the shapes a
hand-written model zoo never quite covers.  This module grows such graphs
randomly, but under the full legality rules of the IR, so every generated
graph:

* passes :class:`~repro.workloads.graph.ModelGraph` validation (topological
  order, arity, weighted/SIMD typing);
* is *shape-legal* edge by edge -- producer and consumer geometries agree
  (channel counts match convolution fan-in, element-wise adds join
  identical geometries, concats sum channels over a shared spatial size,
  attention matmuls contract matching token/feature dims);
* satisfies the compiler's fusion contract (every SIMD node has a weighted
  producer upstream, because everything descends from the weighted stem);
* is **deterministic per seed**: the same seed always yields a
  byte-identical graph (pinned by :func:`graph_fingerprint` and
  ``tests/engines/test_fuzz.py``), so a failing corpus seed is a permanent
  reproducer.

Generated values carry one of three geometries -- spatial feature maps
``(channels, size)``, token matrices ``(tokens, dim)`` and flat vectors
``(features,)`` -- and each growth step draws an operator whose operand
requirements the current value pool can satisfy.  Attention is grown as a
whole idiomatic block (Q/K/V projections, scores matmul, softmax, context
matmul, output projection, optional residual add), mirroring
``transformer_tiny``.

The conformance suite feeds :func:`fuzz_corpus` workloads through every
engine of :data:`repro.sim.engines.ENGINE_SPECS`; CI runs a pinned-seed
smoke subset on every push and the full corpus behind the ``fuzz`` pytest
marker (see ``docs/testing.md``).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, Tuple

from .graph import GraphBuilder, ModelGraph
from .models import ModelWorkload

__all__ = [
    "DEFAULT_MIN_NODES",
    "DEFAULT_MAX_NODES",
    "fuzz_graph",
    "fuzz_workload",
    "fuzz_corpus",
    "graph_fingerprint",
]

#: Default node-count bounds of one generated graph.  Small enough that a
#: whole corpus profiles and simulates in seconds, large enough that joins,
#: attention blocks and mixed-geometry chains all occur.
DEFAULT_MIN_NODES = 6
DEFAULT_MAX_NODES = 14

# Small palettes keep sparsity-profiling and compile cost bounded while
# still varying every geometry axis the mapper and fusion passes branch on.
_CHANNELS = (4, 8, 16, 32)
_SIZES = (4, 8, 16)
_DIMS = (8, 16, 32)

_SPATIAL = "spatial"
_TOKENS = "tokens"
_FLAT = "flat"


class _Grower:
    """Mutable growth state: the builder plus the typed value pool."""

    def __init__(self, rng: random.Random, name: str) -> None:
        self.rng = rng
        self.g = GraphBuilder(name)
        # Every produced value with its geometry tag:
        # ("spatial", channels, size) | ("tokens", tokens, dim) | ("flat", n).
        self.values: List[Tuple[str, Tuple]] = []
        self.count = 0

    def fresh(self, op: str) -> str:
        """Allocate the next deterministic node name."""
        name = f"n{self.count}_{op}"
        self.count += 1
        return name

    def emit(self, name: str, geom: Tuple) -> None:
        """Record a produced value and its geometry."""
        self.values.append((name, geom))

    def pool(self, kind: str) -> List[Tuple[str, Tuple]]:
        """All produced values of one geometry kind, in creation order."""
        return [(n, g) for n, g in self.values if g[0] == kind]

    # -- operator emitters ------------------------------------------------
    # Each returns the number of nodes appended (0 when its preconditions
    # were not met after sampling), so the growth loop can track the budget.

    def grow_conv(self) -> int:
        """A 3x3 or 1x1 convolution off a random spatial value."""
        spatial = self.pool(_SPATIAL)
        source, (_, cin, size) = self.rng.choice(spatial)
        kernel = self.rng.choice((1, 3))
        stride = self.rng.choice((1, 2)) if size >= 2 else 1
        # Half-padding keeps out = (size - 1) // stride + 1 positive.
        out_size = (size - 1) // stride + 1
        # Frequently re-use the input channel count at stride 1 so later
        # residual adds find same-geometry partners.
        if stride == 1 and kernel == 3 and self.rng.random() < 0.5:
            cout = cin
        else:
            cout = self.rng.choice(_CHANNELS)
        name = self.g.conv(
            self.fresh("conv"), cin, cout, kernel, size,
            stride=stride, inputs=source,
        )
        self.emit(name, (_SPATIAL, cout, out_size))
        return 1

    def grow_depthwise(self) -> int:
        """A 3x3 depthwise convolution off a random spatial value."""
        spatial = self.pool(_SPATIAL)
        source, (_, channels, size) = self.rng.choice(spatial)
        stride = self.rng.choice((1, 2)) if size >= 2 else 1
        out_size = (size - 1) // stride + 1
        name = self.g.depthwise(
            self.fresh("dw"), channels, 3, size, stride=stride, inputs=source
        )
        self.emit(name, (_SPATIAL, channels, out_size))
        return 1

    def grow_linear(self) -> int:
        """A fully connected layer flattening a spatial value (or chaining
        off an existing flat one)."""
        flat = self.pool(_FLAT)
        spatial = self.pool(_SPATIAL)
        candidates = flat + spatial
        source, geom = self.rng.choice(candidates)
        cin = geom[1] if geom[0] == _FLAT else geom[1] * geom[2] * geom[2]
        cout = self.rng.choice(_CHANNELS)
        name = self.g.linear(self.fresh("fc"), cin, cout, inputs=source)
        self.emit(name, (_FLAT, cout))
        return 1

    def grow_patches(self) -> int:
        """Reinterpret a spatial value as tokens via a patch projection
        (the ViT patch-embedding idiom): ``size*size`` tokens of ``channels``
        features each, projected to a model dim."""
        spatial = [
            (n, g) for n, g in self.pool(_SPATIAL) if g[2] <= 8
        ]  # cap token count at 64
        if not spatial:
            return 0
        source, (_, channels, size) = self.rng.choice(spatial)
        dim = self.rng.choice(_DIMS)
        name = self.g.matmul(
            self.fresh("patch"), size * size, channels, dim, inputs=source
        )
        self.emit(name, (_TOKENS, size * size, dim))
        return 1

    def grow_project(self) -> int:
        """A token-parallel projection matmul off a random token value."""
        tokens = self.pool(_TOKENS)
        source, (_, count, dim) = self.rng.choice(tokens)
        cout = self.rng.choice(_DIMS)
        name = self.g.matmul(
            self.fresh("proj"), count, dim, cout, inputs=source
        )
        self.emit(name, (_TOKENS, count, cout))
        return 1

    def grow_attention(self) -> int:
        """One idiomatic attention block off a random token value:
        Q/K/V projections, activation-activation scores matmul, softmax,
        context matmul, output projection and (geometry permitting) the
        closing residual add -- 7 nodes total."""
        tokens = self.pool(_TOKENS)
        source, (_, count, dim) = self.rng.choice(tokens)
        base = self.fresh("attn")
        q = self.g.matmul(f"{base}_q", count, dim, dim, inputs=source)
        k = self.g.matmul(f"{base}_k", count, dim, dim, inputs=source)
        v = self.g.matmul(f"{base}_v", count, dim, dim, inputs=source)
        scores = self.g.matmul(
            f"{base}_scores", count, dim, count, inputs=(q, k)
        )
        attn = self.g.softmax(f"{base}_softmax", inputs=scores)
        context = self.g.matmul(
            f"{base}_ctx", count, count, dim, inputs=(attn, v)
        )
        out = self.g.matmul(f"{base}_out", count, dim, dim, inputs=context)
        self.emit(out, (_TOKENS, count, dim))
        residual = self.g.add(f"{base}_res", source, out)
        self.emit(residual, (_TOKENS, count, dim))
        return 8

    def grow_add(self) -> int:
        """An element-wise residual add of two same-geometry values."""
        pair = self._same_geometry_pair()
        if pair is None:
            return 0
        (a, geom), (b, _) = pair
        name = self.g.add(self.fresh("add"), a, b)
        self.emit(name, geom)
        return 1

    def grow_concat(self) -> int:
        """A channel concat of two spatial values sharing a spatial size
        (or two token values sharing a token count)."""
        groups = {}
        for name, geom in self.values:
            if geom[0] == _SPATIAL:
                groups.setdefault(("s", geom[2]), []).append((name, geom))
            elif geom[0] == _TOKENS:
                groups.setdefault(("t", geom[1]), []).append((name, geom))
        eligible = sorted(
            (key for key, members in groups.items() if len(members) >= 2),
        )
        if not eligible:
            return 0
        key = self.rng.choice(eligible)
        a, b = self.rng.sample(groups[key], 2)
        name = self.g.concat(self.fresh("cat"), a[0], b[0])
        if key[0] == "s":
            geom = (_SPATIAL, a[1][1] + b[1][1], key[1])
        else:
            geom = (_TOKENS, key[1], a[1][2] + b[1][2])
        self.emit(name, geom)
        return 1

    def grow_softmax(self) -> int:
        """A standalone softmax over a random token value."""
        tokens = self.pool(_TOKENS)
        source, geom = self.rng.choice(tokens)
        name = self.g.softmax(self.fresh("sm"), inputs=source)
        self.emit(name, geom)
        return 1

    def _same_geometry_pair(self):
        """Two distinct values with identical geometry, or ``None``."""
        groups = {}
        for value in self.values:
            groups.setdefault(value[1], []).append(value)
        eligible = sorted(
            (geom for geom, members in groups.items() if len(members) >= 2),
            key=str,
        )
        if not eligible:
            return None
        geom = self.rng.choice(eligible)
        return tuple(self.rng.sample(groups[geom], 2))


def fuzz_graph(
    seed: int,
    min_nodes: int = DEFAULT_MIN_NODES,
    max_nodes: int = DEFAULT_MAX_NODES,
    name: Optional[str] = None,
) -> ModelGraph:
    """Grow one random, valid, shape-legal :class:`ModelGraph`.

    Args:
        seed: RNG seed; the same seed always produces a byte-identical
            graph (compare with :func:`graph_fingerprint`).
        min_nodes: lower bound on the node count.
        max_nodes: upper bound on the node count (attention blocks may
            overshoot by a few nodes -- blocks are grown atomically).
        name: graph name; defaults to ``"fuzz-<seed>"``.

    Returns:
        A validated :class:`ModelGraph` whose every SIMD node has a
        weighted producer upstream (the compiler's fusion precondition).
    """
    if min_nodes < 1 or max_nodes < min_nodes:
        raise ValueError("node bounds must satisfy 1 <= min_nodes <= max_nodes")
    rng = random.Random(seed)
    grower = _Grower(rng, name if name is not None else f"fuzz-{seed}")
    budget = rng.randint(min_nodes, max_nodes)

    # The weighted stem: everything descends from it, so every later SIMD
    # node anchors at a weighted layer (plan_elementwise_fusion's rule).
    size = rng.choice(_SIZES)
    cout = rng.choice(_CHANNELS)
    stem = grower.g.conv(grower.fresh("conv"), 3, cout, 3, size)
    grower.emit(stem, (_SPATIAL, cout, size))
    grown = 1

    # (emitter, weight, headroom): an op is drawn only when its operand
    # pool is non-empty and at least `headroom` budget remains.
    menu = (
        (grower.grow_conv, 5, 1, _SPATIAL),
        (grower.grow_depthwise, 2, 1, _SPATIAL),
        (grower.grow_linear, 1, 1, None),
        (grower.grow_patches, 1, 2, _SPATIAL),
        (grower.grow_project, 2, 1, _TOKENS),
        (grower.grow_attention, 2, 8, _TOKENS),
        (grower.grow_add, 3, 1, None),
        (grower.grow_concat, 2, 1, None),
        (grower.grow_softmax, 1, 1, _TOKENS),
    )
    while grown < budget:
        remaining = budget - grown
        choices = []
        weights = []
        for emitter, weight, headroom, needs in menu:
            if headroom > remaining:
                continue
            if needs is not None and not grower.pool(needs):
                continue
            choices.append(emitter)
            weights.append(weight)
        emitter = rng.choices(choices, weights=weights, k=1)[0]
        appended = emitter()
        if appended == 0:
            # Preconditions not satisfiable right now (e.g. no two values
            # share a geometry yet); fall back to the always-available conv.
            appended = grower.grow_conv()
        grown += appended
    return grower.g.build()


def fuzz_workload(
    seed: int,
    min_nodes: int = DEFAULT_MIN_NODES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ModelWorkload:
    """Wrap :func:`fuzz_graph` into a profile-ready
    :class:`~repro.workloads.models.ModelWorkload`.

    The redundancy / activation-density knobs are themselves drawn
    deterministically from the seed (quantised to two decimals so the
    workload reprs stay stable), spanning the over-parameterised-to-compact
    range the stock model zoo covers.
    """
    # A string seed hashes through SHA-512 inside random.Random, so the
    # knobs are deterministic across processes (tuple seeds would go
    # through PYTHONHASHSEED-randomised hash()).
    rng = random.Random(f"fuzz-knobs-{seed}")
    graph = fuzz_graph(seed, min_nodes=min_nodes, max_nodes=max_nodes)
    return ModelWorkload.from_graph(
        graph,
        redundancy=round(rng.uniform(0.3, 0.95), 2),
        activation_density=round(rng.uniform(0.3, 0.9), 2),
    )


def fuzz_corpus(
    seeds: Sequence[int],
    min_nodes: int = DEFAULT_MIN_NODES,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> List[ModelWorkload]:
    """Generate one workload per seed (the conformance corpus helper)."""
    return [
        fuzz_workload(seed, min_nodes=min_nodes, max_nodes=max_nodes)
        for seed in seeds
    ]


def graph_fingerprint(graph: ModelGraph) -> str:
    """A stable content hash of a graph's full structure.

    Covers every node's name, op, input edges and (for weighted nodes) the
    complete :class:`~repro.workloads.layers.LayerShape` record, plus the
    graph name and output node -- two graphs fingerprint equal iff they are
    structurally byte-identical.  The determinism self-tests pin
    ``fuzz_graph(seed)`` to a constant fingerprint per seed.
    """
    parts = [graph.name, graph.output]
    for node in graph.nodes:
        layer = "-" if node.layer is None else repr(node.layer)
        parts.append(f"{node.name}|{node.op}|{','.join(node.inputs)}|{layer}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest
