"""Expected answers from sequential Tarjan, looked up without the index.

The labels come from ``repro.biconnected_components(algorithm="sequential")``;
every lookup below is plain Python over those labels (dicts and sets), so
a bug in :class:`repro.service.BCCIndex`'s kernels cannot hide by being
shared with the check.  Canonical block ids (first-occurrence order over
the canonical edge list) are the same for every algorithm, so
``component_of_edge`` answers compare by value.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import repro
from repro.graph import Graph


def plain(answer):
    """An engine answer as plain Python values (arrays become lists)."""
    if isinstance(answer, dict):
        return {k: plain(v) for k, v in answer.items()}
    if isinstance(answer, np.ndarray):
        return answer.tolist()
    if isinstance(answer, np.generic):
        return answer.item()
    return answer


class Oracle:
    """Biconnectivity answers for one graph version."""

    def __init__(self, graph: Graph):
        labels = repro.biconnected_components(graph, algorithm="sequential").edge_labels
        self.num_components = int(labels.max()) + 1 if labels.size else 0
        self._graph = graph
        self._labels = labels
        self._edges = None

    def _lookups(self):
        if self._edges is None:
            us, vs, labels = (self._graph.u.tolist(), self._graph.v.tolist(),
                              self._labels.tolist())
            self._edges = dict(zip(zip(us, vs), labels))
            self._blocks = [set() for _ in range(self._graph.n)]
            for a, b, c in zip(us, vs, labels):
                self._blocks[a].add(c)
                self._blocks[b].add(c)
            self._bridges = {c for c, size in Counter(labels).items() if size == 1}
        return self._edges, self._blocks, self._bridges

    def block(self, u: int, v: int):
        edges, _, _ = self._lookups()
        return edges.get((min(u, v), max(u, v)))

    def has_edge(self, u: int, v: int) -> bool:
        return self.block(u, v) is not None

    def same_bcc(self, u: int, v: int) -> bool:
        _, blocks, _ = self._lookups()
        if u == v:
            return bool(blocks[u])
        return bool(blocks[u] & blocks[v])

    def is_articulation(self, v: int) -> bool:
        _, blocks, _ = self._lookups()
        return len(blocks[v]) >= 2

    def is_bridge(self, u: int, v: int) -> bool:
        _, _, bridges = self._lookups()
        return self.block(u, v) in bridges

    def component_of_edge(self, u: int, v: int):
        return self.block(u, v)

    def answer(self, op: dict):
        """The expected answer to one query record, as :func:`plain` values."""
        kind = op["op"]
        if kind == "num_components":
            return self.num_components
        if kind == "is_articulation":
            return self.is_articulation(op["v"])
        if kind in ("same_bcc", "is_bridge", "component_of_edge"):
            return getattr(self, kind)(op["u"], op["v"])
        params = op["params"]
        if kind == "is_articulation_many":
            return [self.is_articulation(v) for v in params["vs"]]
        pairs = params["pairs"]
        if kind == "same_bcc_many":
            return [self.same_bcc(u, v) for u, v in pairs]
        if kind == "is_bridge_many":
            return [self.is_bridge(u, v) for u, v in pairs]
        if kind == "component_of_edge_many":
            return [-1 if (c := self.block(u, v)) is None else c for u, v in pairs]
        if kind == "classify_edges":
            return {
                "block": [-1 if (c := self.block(u, v)) is None else c for u, v in pairs],
                "is_bridge": [self.is_bridge(u, v) for u, v in pairs],
            }
        raise ValueError(f"no oracle for op {kind!r}")


class EdgeSet:
    """The oracle's own replay of edge updates (independent of ``updates``)."""

    def __init__(self, graph: Graph):
        self.n = graph.n
        self.edges = set(zip(graph.u.tolist(), graph.v.tolist()))

    def _canonical(self, pairs) -> set:
        return {(min(u, v), max(u, v)) for u, v in pairs if u != v}

    def apply(self, op: dict) -> int:
        """Apply one update record; returns its effective edge count."""
        pairs = self._canonical(op["edges"])
        if op["op"] == "add_edges":
            new = pairs - self.edges
            self.edges |= new
            return len(new)
        gone = pairs & self.edges
        self.edges -= gone
        return len(gone)

    def graph(self) -> Graph:
        ordered = sorted(self.edges)
        u = np.fromiter((a for a, _ in ordered), dtype=np.int64, count=len(ordered))
        v = np.fromiter((b for _, b in ordered), dtype=np.int64, count=len(ordered))
        return Graph(self.n, u, v)
