"""The analytic factorization-machine reduction of the model.

The FM identity used as a correctness oracle: when every interaction is an
elementwise product over the union of both node sets, the fused node is
u_i + half the summed products, and the match is the sum of both graph
representations' elements, the score equals

    sum_i sum(v_i) * val_i  +  sum_{i<j} <v_i, v_j> * val_i * val_j

over all attributes of the sample (no bias term), because
sum(u_i * u_j) = <v_i, v_j> * val_i * val_j.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Parameter
from .data import DataSample, EmbeddingTable
from .model import FM_REDUCTION, ModelParams, score_samples

__all__ = ["fm_predict", "fm_reduction_predict"]


def fm_predict(sample: DataSample, table: EmbeddingTable) -> float:
    """Factorization-machine score over the union of both attribute sets.

    The per-attribute linear weight is the sum of the attribute's embedding
    entries; the bias term is omitted.
    """
    pairs = sample.user_chars + sample.item_chars
    vectors = table.vectors([p.att for p in pairs])
    total = 0.0
    for p, v in zip(pairs, vectors):
        total += float(v.sum()) * p.val
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            total += float(np.dot(vectors[i], vectors[j])) * pairs[i].val * pairs[j].val
    return total


def fm_reduction_predict(sample: DataSample, table: EmbeddingTable) -> float:
    """Score of the reduced pipeline; must equal fm_predict up to rounding.

    Runs the real engine in its fm mode (union-set elementwise products,
    linear fusing, element-sum match) rather than re-deriving the closed
    form, so the identity actually exercises the model path. fm mode has
    no matrix product, so this is predict()'s score without its per-node
    diagnostics.
    """
    mp = ModelParams(table=table, emb=Parameter(table.matrix, "embeddings"), variant=FM_REDUCTION)
    return float(score_samples([sample], mp)[0])
