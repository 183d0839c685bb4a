"""Ranking and probability metrics, plus attribute-matrix export.

AUC is computed globally over all scored samples (ties get half credit);
NDCG@k is computed per user over that user's items, with ties broken by
stable input order, then averaged over users that have at least one
relevant item.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .autodiff import stable_sigmoid
from .data import EmbeddingTable, side_key
from .errors import UndefinedMetricError
from .model import CANONICAL, ModelParams, VariantConfig, score_samples

PROB_EPS = 1e-12


@dataclass(frozen=True)
class ScoredSample:
    user: Hashable  # groups the per-user metrics; score_dataset gives the user side tuple
    score: float
    label: float


def _arrays(scored: Sequence[ScoredSample]):
    scores = np.array([s.score for s in scored], dtype=np.float64)
    labels = np.array([s.label for s in scored], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise UndefinedMetricError("scores must be finite")
    return scores, labels


def auc(scored: Sequence[ScoredSample]) -> float:
    """Probability that a random (positive, negative) pair is ordered correctly.

    Rank-based: with average ranks for ties, the count of correctly ordered
    pairs (ties half) equals rank_sum(positives) - n_pos*(n_pos+1)/2, which
    this computes exactly in floats (all terms are multiples of 1/2).
    """
    scores, labels = _arrays(scored)
    n_pos = int((labels == 1.0).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # A tie group of c scores ending at rank r holds ranks r-c+1 .. r: their
    # average, r - (c-1)/2, is an exact multiple of 1/2.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(ranks[labels == 1.0].sum())
    numerator = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(numerator / (n_pos * n_neg))


def logloss(scored: Sequence[ScoredSample]) -> float:
    """Mean binary cross entropy, scores interpreted as probabilities."""
    scores, labels = _arrays(scored)
    p = np.clip(scores, PROB_EPS, 1.0 - PROB_EPS)
    losses = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return float(losses.mean())


def _by_user(scored: Sequence[ScoredSample]) -> dict[Hashable, list[ScoredSample]]:
    by_user: dict[Hashable, list[ScoredSample]] = {}
    for s in scored:
        by_user.setdefault(s.user, []).append(s)
    return by_user


def _user_ndcg(items: Sequence[ScoredSample], ks) -> list[float]:
    """One user's NDCG at each cutoff in ks, ties broken by input order;
    empty if the user has no relevant item."""
    if min(ks, default=1) < 1:
        raise UndefinedMetricError(f"k must be >= 1, got {min(ks)}")
    labels = np.array([s.label for s in items], dtype=np.float64)
    n_pos = int((labels == 1.0).sum())
    if n_pos == 0:
        return []
    gains = labels[np.argsort(-np.array([s.score for s in items], dtype=np.float64), kind="stable")].tolist()
    out = []
    for k in ks:
        dcg = sum(gains[r] / math.log2(r + 2) for r in range(min(k, len(items))))
        ideal = sum(1.0 / math.log2(r + 2) for r in range(min(k, n_pos)))
        out.append(dcg / ideal)
    return out


def ndcg_at_k(scored: Sequence[ScoredSample], k: int) -> float:
    """Mean per-user NDCG at cutoff k with binary relevance.

    Users without a relevant item are excluded; if no user qualifies the
    metric is undefined.
    """
    total, eligible = 0.0, 0
    for items in _by_user(scored).values():
        for value in _user_ndcg(items, (k,)):
            total += value
            eligible += 1
    if eligible == 0:
        raise UndefinedMetricError("NDCG needs at least one user with a relevant item")
    return float(total / eligible)


def probability_from_score(score: np.ndarray) -> np.ndarray:
    """Sigmoid link applied to raw matching scores."""
    return stable_sigmoid(np.asarray(score, dtype=np.float64))


def score_dataset(samples, mp: ModelParams, variant: VariantConfig = CANONICAL) -> list[ScoredSample]:
    """Score samples with the model and wrap them with their user side tuples.

    The stored score is the sigmoid probability; AUC and NDCG are invariant
    under the monotone link and logloss needs the probability anyway.
    """
    raw = score_samples(samples, mp, variant)
    probs = probability_from_score(raw)
    return [
        ScoredSample(user=s.user_chars, score=float(p), label=float(s.label))
        for s, p in zip(samples, probs)
    ]


def metric_report(scored: Sequence[ScoredSample], ks=(5, 10)) -> dict:
    """AUC, logloss and NDCG at each cutoff of score_dataset's output."""
    report = {"auc": auc(scored), "logloss": logloss(scored)}
    for k in ks:
        report[f"ndcg@{k}"] = ndcg_at_k(scored, k)
    return report


def evaluate_model(samples, mp: ModelParams, variant: VariantConfig = CANONICAL, ks=(5, 10)) -> dict:
    return metric_report(score_dataset(samples, mp, variant), ks)


def format_metric_report(report: dict) -> str:
    return " ".join(f"{key}={value!r}" for key, value in report.items())


def per_user_report(scored: Sequence[ScoredSample], ks=(5, 10)) -> str:
    """One line per user of score_dataset's output, labelled by its side_key:
    sample count, positives, and per-user NDCG values."""
    lines = []
    for user, items in _by_user(scored).items():
        n_pos = sum(1 for s in items if s.label == 1.0)
        parts = [f"user={side_key(user)!r}", f"n={len(items)}", f"positives={n_pos}"]
        parts += [f"ndcg@{k}={value!r}" for k, value in zip(ks, _user_ndcg(items, ks))]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Attribute similarity and matching grids
# --------------------------------------------------------------------------


def export_matrices(table: EmbeddingTable, group_a, group_b):
    """Cosine similarities within group A and matching strengths A x B.

    similarity(a, a') is the cosine of the two embedding vectors (0 if
    either is the zero vector); matching(a, b) is the summed elementwise
    product, the same quantity node matching aggregates.
    """
    if not group_a or not group_b:
        raise UndefinedMetricError("attribute groups must be nonempty")
    va = table.vectors(group_a)
    vb = table.vectors(group_b)
    norms = np.linalg.norm(va, axis=1)
    sim = va @ va.T
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = sim / norms[:, None] / norms[None, :]
    sim[~np.isfinite(sim)] = 0.0
    match = va @ vb.T
    return sim, match


def format_matrix(matrix: np.ndarray, row_labels, col_labels, title: str) -> str:
    width = max([len(str(c)) for c in col_labels] + [8])
    row_width = max(len(str(r)) for r in row_labels)
    lines = [title]
    header = " " * row_width + " " + " ".join(f"{str(c):>{width}}" for c in col_labels)
    lines.append(header)
    for label, row in zip(row_labels, matrix):
        cells = " ".join(f"{v:>{width}.4f}" for v in row)
        lines.append(f"{str(label):<{row_width}} {cells}")
    return "\n".join(lines) + "\n"
