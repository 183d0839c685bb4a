"""Randomized self-checks: gradients vs finite differences, and the
factorization-machine identity of the reduced pipeline."""
from __future__ import annotations

import numpy as np

from .autodiff import ArrayOps, Tape, gradient_check
from .data import ITEM, USER, AttributeId, AttributeValuePair, DataSample, init_embeddings
from .model import (
    CANONICAL,
    VariantConfig,
    _forward,
    build_plan,
    init_model_params,
)
from .variants import fm_predict, fm_reduction_predict


def _sample(user_ids, item_ids, vals) -> DataSample:
    """A positive sample pairing the attributes, users then items, with vals."""
    pairs = tuple(AttributeValuePair(a, float(v)) for a, v in zip(user_ids + item_ids, vals))
    return DataSample(pairs[:len(user_ids)], pairs[len(user_ids):], 1.0)


def random_instance(d: int, seed: int, max_attrs: int = 4):
    """A random sample plus seeded model parameters over a matching universe."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    p = int(rng.integers(1, max_attrs + 1))
    q = int(rng.integers(1, max_attrs + 1))
    user_ids = [AttributeId(i, USER) for i in range(p)]
    item_ids = [AttributeId(p + j, ITEM) for j in range(q)]
    vals = rng.uniform(0.5, 1.5, size=p + q)
    sample = _sample(user_ids, item_ids, vals)
    init_seed = int(rng.integers(0, 2**31))
    return sample, user_ids + item_ids, init_seed


def gradcheck_problem(d: int, seed: int, max_attrs: int = 4, variant: VariantConfig = CANONICAL):
    """The forward, the model and the batched value_fn of one random
    instance; gradient_check(forward, mp.parameters(), step, value_fn)
    checks it.

    value_fn runs the same forward on ArrayOps with the perturbed parameter
    substituted by its whole stack, so one call evaluates every row; the
    values are the tape's bit for bit, without recording them.
    """
    sample, universe, init_seed = random_instance(d, seed, max_attrs)
    mp = init_model_params(universe, d, init_seed, variant)
    plan = build_plan([sample], mp.table, variant)

    def forward():
        tape = Tape()
        return tape.sum_reduce(_forward(tape, plan, mp, variant).scores)

    def value(p, stack):
        return _forward(ArrayOps({p: stack}), plan, mp, variant).scores[..., 0]

    return forward, mp, value


def run_gradcheck(
    instances: int = 20,
    d: int = 8,
    seed: int = 0,
    step: float = 1e-5,
    max_attrs: int = 4,
    variant: VariantConfig = CANONICAL,
) -> float:
    """Worst relative error over seeded random instances of the full forward."""
    worst = 0.0
    for k in range(instances):
        forward, mp, value = gradcheck_problem(d, seed + k, max_attrs, variant)
        worst = max(worst, gradient_check(forward, mp.parameters(), step, value_fn=value))
    return float(worst)


def run_fmcheck(n: int = 50, d_max: int = 8, seed: int = 0, max_attrs: int = 4) -> float:
    """Max |reduced-pipeline score - analytic FM score| over random instances."""
    worst = 0.0
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7, k]))
        d = int(rng.integers(1, d_max + 1))
        p = int(rng.integers(1, max_attrs + 1))
        q = int(rng.integers(1, max_attrs + 1))
        user_ids = [AttributeId(i, USER) for i in range(p)]
        item_ids = [AttributeId(p + j, ITEM) for j in range(q)]
        table = init_embeddings(user_ids + item_ids, d, int(rng.integers(0, 2**31)))
        vals = rng.uniform(-2.0, 2.0, size=p + q)
        sample = _sample(user_ids, item_ids, vals)
        deviation = abs(fm_reduction_predict(sample, table) - fm_predict(sample, table))
        worst = max(worst, deviation)
    return float(worst)
