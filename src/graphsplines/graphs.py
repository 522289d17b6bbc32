"""Edge-labeled graphs: validation, vertex ordering, JSON ingestion.

A graph pairs a connected undirected multigraph with nonzero ring-element
edge labels. The vertex order is fixed at load time; all flow-up notions in
the rest of the package refer to that order.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .errors import GraphError, ParseError, excerpt
from .rings import Ring, ring_from_document


@dataclass(frozen=True)
class Edge:
    """Undirected edge between vertex indices ``u`` and ``v`` (0-based)."""

    u: int
    v: int
    label: object


def is_connected(vertex_count: int, pairs) -> bool:
    """Connectivity over undirected index pairs, by union-find.

    Each pair that joins two components merges them, so the graph is
    connected as soon as ``vertex_count - 1`` pairs have merged; the pairs
    after that are not read.
    """
    if vertex_count <= 1:
        return True
    parent = list(range(vertex_count))
    merges_left = vertex_count - 1
    for u, v in pairs:
        while parent[u] != u:  # path halving
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            merges_left -= 1
            if not merges_left:
                return True
    return False


class LabeledGraph:
    """Connected graph with ordered, named vertices and nonzero edge labels."""

    def __init__(self, ring: Ring, vertices, edges):
        vertices = tuple(vertices)
        if not vertices:
            raise GraphError("EMPTY_GRAPH", "a graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise GraphError("DUPLICATE_VERTEX", "vertex names must be distinct")
        n = len(vertices)
        checked = []
        for index, edge in enumerate(edges):
            u, v = edge.u, edge.v
            # exactly int: a bool is an int, and a float compares with ints but
            # indexes nothing
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise GraphError("UNKNOWN_VERTEX", f"edge {index + 1} has a bad endpoint")
            if u == v:
                raise GraphError(
                    "SELF_LOOP", f"edge {index + 1} joins {vertices[u]!r} to itself"
                )
            label = ring.check(edge.label)
            if not label:  # a checked element is falsy exactly when it is zero
                raise GraphError("ZERO_LABEL", f"edge {index + 1} has label 0")
            # an Edge whose label passed the check unchanged is kept, not rebuilt
            if label is not edge.label or type(edge) is not Edge:
                edge = Edge(u, v, label)
            checked.append(edge)
        if not is_connected(n, [(e.u, e.v) for e in checked]):
            raise GraphError("DISCONNECTED", "the graph is not connected")
        self.ring = ring
        self.vertices = vertices
        self.edges = tuple(checked)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def labels(self) -> list:
        return [e.label for e in self.edges]

    def incident_labels(self, vertex: int) -> list:
        """Labels of all edges touching the vertex (0-based), in declaration order."""
        if not 0 <= vertex < self.n:
            raise IndexError(f"vertex index {vertex} out of range")
        return [e.label for e in self.edges if vertex in (e.u, e.v)]

    @functools.cached_property
    def label_scan(self):
        """``(product, k, common)``: the label product up to the first shared factor.

        ``k`` is the index of the first label whose gcd ``common`` with the
        product of the labels before it is not a unit, and ``product`` is
        that product. With pairwise coprime labels ``k`` is the label count,
        ``common`` is ``None`` and ``product`` is the product of all the
        labels (``ring.one`` for none). The label rings are UFDs, where a
        prime dividing a product divides a factor, so one gcd per label,
        with the product before it, decides. Computed on first read and
        kept, since a graph does not change after it is built:
        ``pairwise_coprime_labels``, ``basis.compute_q`` and
        ``basis.label_lcm`` all read it.
        """
        ring = self.ring
        labels = self.labels()
        product = labels[0] if labels else ring.one
        for k in range(1, len(labels)):
            common = ring.gcd(product, labels[k])
            if not ring.is_unit(common):
                return product, k, common
            product = product * labels[k]
        return product, len(labels), None

    def pairwise_coprime_labels(self) -> bool:
        """True iff every pair of edge labels has a unit gcd.

        Read from ``label_scan``, so the gcds are taken once per graph, on
        the first call, and ``basis.compute_q`` and ``basis.label_lcm``
        reuse the scan and its product.
        """
        return self.label_scan[2] is None

    def describe(self) -> str:
        return f"{self.n} vertices, {len(self.edges)} edges over {self.ring.description}"

    def edge_name(self, index: int) -> str:
        e = self.edges[index]
        return f"{self.vertices[e.u]}~{self.vertices[e.v]}"

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.ring == other.ring
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.ring, self.vertices, self.edges))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_document(cls, document: dict) -> "LabeledGraph":
        if not isinstance(document, dict):
            raise GraphError("BAD_DOCUMENT", "graph document must be a JSON object")
        for key in ("ring", "vertices", "edges"):
            if key not in document:
                raise GraphError("BAD_DOCUMENT", f"missing {key!r}")
        ring_doc = document["ring"]
        if isinstance(ring_doc, dict) and ring_doc.get("kind") not in ("int", "poly"):
            raise GraphError("BAD_RING", "graph rings must have kind 'int' or 'poly'")
        ring = ring_from_document(ring_doc)
        vertices = document["vertices"]
        if not isinstance(vertices, list) or not all(
            isinstance(v, str) for v in vertices
        ):
            raise GraphError("BAD_DOCUMENT", "'vertices' must be a list of names")
        if len(set(vertices)) != len(vertices):
            raise GraphError("DUPLICATE_VERTEX", "vertex names must be distinct")
        index = {name: i for i, name in enumerate(vertices)}
        edges = []
        raw_edges = document["edges"]
        if not isinstance(raw_edges, list):
            raise GraphError("BAD_DOCUMENT", "'edges' must be a list")
        for k, raw in enumerate(raw_edges):
            if not (isinstance(raw, dict) and "u" in raw and "v" in raw and "label" in raw):
                raise GraphError(
                    "BAD_DOCUMENT", f"edge {k + 1} needs 'u', 'v', and 'label'"
                )
            u, v, text = raw["u"], raw["v"], raw["label"]
            # the isinstance test keeps get() from hashing a list or an object
            iu = index.get(u) if isinstance(u, str) else None
            if iu is None:
                raise GraphError("UNKNOWN_VERTEX", f"edge {k + 1} references {u!r}")
            iv = index.get(v) if isinstance(v, str) else None
            if iv is None:
                raise GraphError("UNKNOWN_VERTEX", f"edge {k + 1} references {v!r}")
            if not isinstance(text, str):
                raise GraphError("LABEL_PARSE", f"edge {k + 1} label {text!r} is not a string")
            try:
                label = ring.element_from_text(text)
            except ParseError as exc:
                raise GraphError(
                    "LABEL_PARSE", f"edge {k + 1} label {excerpt(text)}: {exc}"
                ) from exc
            edges.append(Edge(iu, iv, label))
        return cls(ring, vertices, edges)

    def to_document(self) -> dict:
        return {
            "ring": self.ring.to_document(),
            "vertices": list(self.vertices),
            "edges": [
                {
                    "u": self.vertices[e.u],
                    "v": self.vertices[e.v],
                    "label": self.ring.to_text(e.label),
                }
                for e in self.edges
            ],
        }

    def reorder(self, names) -> "LabeledGraph":
        """Same graph with the vertex order permuted to ``names``."""
        names = tuple(names)
        if sorted(names) != sorted(self.vertices):
            raise GraphError(
                "BAD_DOCUMENT", "vertex order must be a permutation of the vertex names"
            )
        old_name = self.vertices
        position = {name: i for i, name in enumerate(names)}
        edges = [
            Edge(position[old_name[e.u]], position[old_name[e.v]], e.label)
            for e in self.edges
        ]
        return LabeledGraph(self.ring, names, edges)

    # -- convenience constructors (used by tests and scripts) ---------------

    @classmethod
    def cycle(cls, ring: Ring, labels, names=None) -> "LabeledGraph":
        n = len(labels)
        if n < 3:
            raise ValueError("a cycle needs at least three edges")
        names = tuple(names) if names else tuple(f"v{i + 1}" for i in range(n))
        edges = [Edge(i, (i + 1) % n, labels[i]) for i in range(n)]
        return cls(ring, names, edges)

    @classmethod
    def path(cls, ring: Ring, labels, names=None) -> "LabeledGraph":
        n = len(labels) + 1
        names = tuple(names) if names else tuple(f"v{i + 1}" for i in range(n))
        edges = [Edge(i, i + 1, labels[i]) for i in range(len(labels))]
        return cls(ring, names, edges)

    @classmethod
    def complete(cls, ring: Ring, labels, names=None) -> "LabeledGraph":
        """Complete graph; labels are given in (i, j) lexicographic pair order."""
        n = 1
        while n * (n - 1) // 2 < len(labels):
            n += 1
        if n * (n - 1) // 2 != len(labels):
            raise ValueError("label count must be a binomial coefficient C(n, 2)")
        names = tuple(names) if names else tuple(f"v{i + 1}" for i in range(n))
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                edges.append(Edge(i, j, labels[k]))
                k += 1
        return cls(ring, names, edges)


def load_graph(text: str) -> LabeledGraph:
    """Parse and validate a graph JSON document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError("BAD_DOCUMENT", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        # the json decoder recurses once per nesting level
        raise GraphError("BAD_DOCUMENT", "JSON nested too deeply") from exc
    return LabeledGraph.from_document(document)
