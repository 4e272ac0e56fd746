"""Synthetic social-graph generators.

The paper grows its incentive tree over the SNAP ego-Twitter follower graph
(>80k users).  That dataset is not redistributable here, so these generators
produce synthetic stand-ins.  The incentive tree consumes the graph only
through a BFS spanning forest, so the *relevant* property is the shape of
that forest — depth profile and branching — which is governed by the degree
distribution and local connectivity.  The generators below cover the design
space:

* :func:`preferential_attachment` — Barabási–Albert style heavy-tailed
  degrees (the dominant feature of follower graphs);
* :func:`watts_strogatz` — high clustering / small-world control case;
* :func:`random_graph` — Erdős–Rényi (G(n, m)) control case;
* :func:`forest_fire` — recursive-burning model producing shrinking
  diameters, commonly fit to social networks;
* :func:`configuration_model` — arbitrary target degree sequence;
* :func:`twitter_like` — the default substitute: preferential attachment
  calibrated to the ego-Twitter summary profile (mean degree ≈ 22,
  heavy-tailed hubs) at any requested node count.

All generators return a directed :class:`~repro.socialnet.graph.SocialGraph`
where edge ``u → v`` means "u can recruit v", and take an explicit RNG.
The graph is read-only and built once: each generator appends its edges to
two ``array('q')`` columns, and one whose draws read the graph it is growing
keeps the state those reads need (a set of the current node's targets, a set
of edge keys, per-node neighbour lists) to itself.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator
from repro.socialnet.graph import SocialGraph

__all__ = [
    "preferential_attachment",
    "watts_strogatz",
    "random_graph",
    "forest_fire",
    "configuration_model",
    "twitter_like",
]

#: ego-Twitter summary profile (SNAP): 81,306 nodes, 1,768,149 edges.
TWITTER_MEAN_OUT_DEGREE: float = 1768149 / 81306  # ≈ 21.75


def preferential_attachment(
    num_nodes: int, edges_per_node: int = 11, rng: SeedLike = None
) -> SocialGraph:
    """Barabási–Albert preferential attachment, directed variant.

    Nodes arrive one at a time; each new node attaches to
    ``edges_per_node`` existing nodes chosen proportionally to their
    current degree (plus-one smoothing).  For each attachment we add
    *both* directions' social tie but orient the recruiting edge from the
    older (established, influential) node to the newcomer **and** the
    reverse follow edge with probability 1/2 — follower graphs are largely
    asymmetric.  The result is a heavy-tailed out-degree distribution.

    Mean out-degree ≈ ``1.5 × edges_per_node``.
    """
    gen = as_generator(rng)
    if num_nodes <= 0:
        raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
    if edges_per_node <= 0:
        raise ConfigurationError(
            f"edges_per_node must be positive, got {edges_per_node}"
        )
    # Every edge touches the arriving node and its picks are distinct, so no
    # edge repeats and the columns need no membership test.
    influencers, followers = array("q"), array("q")
    # Repeated-node list trick: sampling uniformly from `targets` is
    # equivalent to degree-proportional sampling.
    targets: list[int] = [0]
    for new in range(1, num_nodes):
        m = min(edges_per_node, new)
        picks = set()
        while len(picks) < m:
            picks.add(targets[int(gen.integers(len(targets)))])
            # Plus-one smoothing: occasionally pick a uniform node so
            # zero-degree nodes stay reachable.
            if len(picks) < m and gen.random() < 0.05:
                picks.add(int(gen.integers(new)))
        for old in picks:
            # The established node can recruit the newcomer.
            influencers.append(old)
            followers.append(new)
            if gen.random() < 0.5:
                influencers.append(new)
                followers.append(old)
            targets.append(old)
            targets.append(new)
    del targets  # as large as the columns: free it before the build
    return SocialGraph(num_nodes, influencers, followers)


def random_graph(num_nodes: int, num_edges: int, rng: SeedLike = None) -> SocialGraph:
    """Erdős–Rényi ``G(n, m)`` digraph (uniform random directed edges)."""
    gen = as_generator(rng)
    if num_nodes <= 1:
        raise ConfigurationError(f"need at least 2 nodes, got {num_nodes}")
    if num_edges < 0:
        raise ConfigurationError(f"num_edges must be >= 0, got {num_edges}")
    max_edges = num_nodes * (num_nodes - 1)
    if num_edges > max_edges:
        raise ConfigurationError(
            f"num_edges={num_edges} exceeds the maximum {max_edges}"
        )
    influencers, followers = array("q"), array("q")
    seen: set[int] = set()  # u * num_nodes + v of every edge drawn so far
    added = 0
    while added < num_edges:
        batch = max(64, num_edges - added)
        us = gen.integers(0, num_nodes, size=batch)
        vs = gen.integers(0, num_nodes, size=batch)
        for u, v in zip(us.tolist(), vs.tolist()):
            key = u * num_nodes + v
            if u != v and key not in seen:
                seen.add(key)
                influencers.append(u)
                followers.append(v)
                added += 1
                if added == num_edges:
                    break
    return SocialGraph(num_nodes, influencers, followers)


def watts_strogatz(
    num_nodes: int,
    neighbors: int = 6,
    rewire_prob: float = 0.1,
    rng: SeedLike = None,
) -> SocialGraph:
    """Watts–Strogatz ring lattice with random rewiring, directed.

    Each node points to its ``neighbors`` clockwise successors; every edge
    is rewired to a uniform target with probability ``rewire_prob``.
    """
    gen = as_generator(rng)
    if num_nodes <= neighbors:
        raise ConfigurationError(
            f"need num_nodes > neighbors, got {num_nodes} <= {neighbors}"
        )
    if not 0.0 <= rewire_prob <= 1.0:
        raise ConfigurationError(f"rewire_prob must be in [0,1], got {rewire_prob}")
    influencers, followers = array("q"), array("q")
    for u in range(num_nodes):
        linked: set[int] = set()  # u's targets so far: only u adds edges from u
        for off in range(1, neighbors + 1):
            v = (u + off) % num_nodes
            if gen.random() < rewire_prob:
                v = int(gen.integers(num_nodes))
                attempts = 0
                while (v == u or v in linked) and attempts < 16:
                    v = int(gen.integers(num_nodes))
                    attempts += 1
                if v == u or v in linked:
                    continue
            if v != u and v not in linked:
                linked.add(v)
                influencers.append(u)
                followers.append(v)
    return SocialGraph(num_nodes, influencers, followers)


def forest_fire(
    num_nodes: int,
    forward_prob: float = 0.35,
    backward_prob: float = 0.2,
    rng: SeedLike = None,
) -> SocialGraph:
    """Forest-fire model (Leskovec et al.): new nodes "burn" through links.

    Each arriving node picks a random ambassador, links to it, then
    recursively links to geometric numbers of the ambassador's out- and
    in-neighbors.  Produces heavy tails and densification like real social
    graphs.  Burning is bounded to keep generation near-linear.
    """
    gen = as_generator(rng)
    if num_nodes <= 0:
        raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
    for name, p in (("forward_prob", forward_prob), ("backward_prob", backward_prob)):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"{name} must be in [0,1), got {p}")
    # Every edge points at the arriving node, so appending it keeps each
    # successor list sorted, and a node's predecessors are final (and
    # sorted once) when its arrival ends.  The burn never reads the arriving
    # node's own lists, and its picks are distinct: out-neighbours are newer
    # than the burning node, in-neighbours older.
    succ: list[list[int]] = [[] for _ in range(num_nodes)]
    pred: list[list[int]] = [[] for _ in range(num_nodes)]
    burn_cap = 64  # hard bound on burned nodes per arrival
    for new in range(1, num_nodes):
        ambassador = int(gen.integers(new))
        visited = {ambassador}
        frontier = [ambassador]
        succ[ambassador].append(new)
        pred[new].append(ambassador)
        burned = 1
        while frontier and burned < burn_cap:
            node = frontier.pop()
            fwd = int(gen.geometric(1.0 - forward_prob)) - 1
            bwd = int(gen.geometric(1.0 - backward_prob)) - 1
            out_nb = [v for v in succ[node] if v not in visited and v != new]
            in_nb = [v for v in pred[node] if v not in visited and v != new]
            picks: list[int] = []
            if out_nb and fwd > 0:
                idx = gen.choice(len(out_nb), size=min(fwd, len(out_nb)), replace=False)
                picks.extend(out_nb[i] for i in np.atleast_1d(idx))
            if in_nb and bwd > 0:
                idx = gen.choice(len(in_nb), size=min(bwd, len(in_nb)), replace=False)
                picks.extend(in_nb[i] for i in np.atleast_1d(idx))
            for target in picks:
                if burned >= burn_cap:
                    break
                visited.add(target)
                frontier.append(target)
                succ[target].append(new)
                pred[new].append(target)
                burned += 1
        pred[new].sort()
    return SocialGraph.from_edges(
        num_nodes, ((u, v) for u, row in enumerate(succ) for v in row)
    )


def configuration_model(
    out_degrees: Sequence[int], rng: SeedLike = None
) -> SocialGraph:
    """Directed configuration model for a target out-degree sequence.

    Every node receives exactly its requested number of out-stubs; stubs
    are matched to uniform random distinct targets (collisions and
    self-loops are re-drawn a bounded number of times, then dropped, so the
    realized sequence can fall slightly short for adversarial inputs).
    """
    gen = as_generator(rng)
    n = len(out_degrees)
    if n <= 1:
        raise ConfigurationError("configuration model needs at least 2 nodes")
    if any(d < 0 for d in out_degrees):
        raise ConfigurationError("out-degrees must be non-negative")
    if any(d > n - 1 for d in out_degrees):
        raise ConfigurationError("an out-degree exceeds n-1 (simple digraph)")
    influencers, followers = array("q"), array("q")
    for u, d in enumerate(out_degrees):
        linked: set[int] = set()  # u's targets so far: only u adds edges from u
        attempts = 0
        while len(linked) < d and attempts < 8 * d + 16:
            v = int(gen.integers(n))
            attempts += 1
            if v != u and v not in linked:
                linked.add(v)
                influencers.append(u)
                followers.append(v)
    return SocialGraph(n, influencers, followers)


def twitter_like(
    num_nodes: int = 81306, rng: SeedLike = None, mean_out_degree: Optional[float] = None
) -> SocialGraph:
    """Default substitute for the paper's ego-Twitter graph.

    Preferential attachment calibrated so the mean out-degree matches the
    SNAP ego-Twitter profile (≈ 21.75) by default, at any node count.  The
    tree builder then produces the same shallow, hub-dominated spanning
    forests the paper's solicitation process yields on real Twitter data.
    """
    target = TWITTER_MEAN_OUT_DEGREE if mean_out_degree is None else mean_out_degree
    if target <= 0:
        raise ConfigurationError(f"mean_out_degree must be positive, got {target}")
    # preferential_attachment yields mean out-degree ≈ 1.5 * edges_per_node.
    m = max(1, round(target / 1.5))
    return preferential_attachment(num_nodes, edges_per_node=m, rng=rng)
