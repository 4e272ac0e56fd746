"""Social-graph persistence and dataset loading.

The paper builds its tree over the SNAP *ego-Twitter* dataset [21].  We
cannot redistribute it, but its on-disk format is a plain edge list —
one ``u v`` pair per line, ``#`` comments — so this module provides:

* :func:`load_snap_edges` — read a SNAP-style edge list into a
  :class:`~repro.socialnet.graph.SocialGraph`, densifying arbitrary node
  ids to ``0 … n-1`` (with the mapping returned for traceability).  Drop
  the real ``twitter_combined.txt`` in and the whole evaluation runs on
  the paper's actual graph;
* :func:`save_edges` / :func:`load_edges` — round-trip our own graphs.

Edge direction: in ego-Twitter a line ``u v`` means "u follows v", i.e.
``v`` has influence over ``u`` and may recruit it — so a SNAP line maps to
the recruiting edge ``v → u``.  Our native format stores recruiting edges
directly.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.core.exceptions import GraphError
from repro.socialnet.graph import SocialGraph

__all__ = ["load_snap_edges", "save_edges", "load_edges"]


def _parse_lines(lines: Iterable[str], path: str) -> Iterator[Tuple[int, int]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            yield (int(parts[0]), int(parts[1]))
        except ValueError:
            raise GraphError(
                f"{path}:{lineno}: non-integer node ids in {line!r}"
            ) from None


def load_snap_edges(
    path: Union[str, Path],
    *,
    limit_nodes: Optional[int] = None,
) -> Tuple[SocialGraph, Dict[int, int]]:
    """Load a SNAP-style ``u v`` edge list as a recruiting graph.

    Parameters
    ----------
    path:
        The edge-list file (e.g. SNAP's ``twitter_combined.txt``).
    limit_nodes:
        Keep only the first ``limit_nodes`` distinct node ids encountered
        (in file order) — handy for sampled runs on the 81k-node original.

    Returns
    -------
    (graph, id_map)
        The graph over dense ids and the ``{original_id: dense_id}`` map.
        A SNAP line ``u v`` ("u follows v") becomes the edge
        ``dense(v) → dense(u)`` ("v can recruit u").
    """
    path = Path(path)
    if limit_nodes is not None and limit_nodes <= 0:
        raise GraphError(f"limit_nodes must be positive, got {limit_nodes}")
    id_map: Dict[int, int] = {}
    influencers, followers = array("q"), array("q")

    def dense(original: int) -> Optional[int]:
        if original in id_map:
            return id_map[original]
        if limit_nodes is not None and len(id_map) >= limit_nodes:
            return None
        id_map[original] = len(id_map)
        return id_map[original]

    with path.open() as handle:
        for u, v in _parse_lines(handle, str(path)):
            du = dense(u)
            dv = dense(v)
            if du is None or dv is None or du == dv:
                continue
            influencers.append(dv)  # follower edge -> recruiting edge
            followers.append(du)
    return SocialGraph(len(id_map), influencers, followers), id_map


def save_edges(graph: SocialGraph, path: Union[str, Path]) -> None:
    """Write the recruiting edges (``influencer follower`` per line)."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# repro social graph: {graph.num_nodes} nodes\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def load_edges(path: Union[str, Path]) -> SocialGraph:
    """Read a graph previously written by :func:`save_edges`.

    Node count is inferred as ``max id + 1``; ids must already be dense
    non-negative integers.
    """
    path = Path(path)
    influencers, followers = array("q"), array("q")
    max_node = -1
    with path.open() as handle:
        for u, v in _parse_lines(handle, str(path)):
            if u < 0 or v < 0:
                raise GraphError(f"{path}: negative node id in edge ({u}, {v})")
            influencers.append(u)
            followers.append(v)
            max_node = max(max_node, u, v)
    return SocialGraph(max_node + 1, influencers, followers)
