"""Complete attribute graphs: one per side of a data sample.

Edges are never materialized. Every unordered pair of nodes is an
implicit same-side interaction edge, so a p-node graph has p*(p-1)/2 of
them and each node's neighborhood is all p-1 other nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeId, DataSample, EmbeddingTable


@dataclass(frozen=True)
class AttributeGraph:
    """Ordered node list over one side's attribute-value pairs."""

    atts: tuple[AttributeId, ...]
    nodes: tuple[np.ndarray, ...]  # representations u = val * v, length dim each

    @property
    def n_nodes(self) -> int:
        return len(self.atts)

    @property
    def n_edges(self) -> int:
        p = len(self.atts)
        return p * (p - 1) // 2

    def neighborhood(self, i: int) -> tuple[int, ...]:
        """Indices of every node except i (no self-loops)."""
        return tuple(j for j in range(len(self.atts)) if j != i)


def build_graphs(sample: DataSample, table: EmbeddingTable) -> tuple[AttributeGraph, AttributeGraph]:
    """User and item attribute graphs for one sample.

    Node order follows the sample's attribute order; a pure function of
    (sample, table).
    """

    def graph(chars) -> AttributeGraph:
        vectors = table.vectors([p.att for p in chars])
        return AttributeGraph(atts=tuple(p.att for p in chars), nodes=tuple(p.val * v for p, v in zip(chars, vectors)))

    return graph(sample.user_chars), graph(sample.item_chars)
