"""Training: regularized binary cross entropy minimized with Adam.

The objective is the mean BCE over a mini-batch plus lambda times the
squared L2 norm of the parameters. The probability is the sigmoid of the
matching score, so on the tape the per-sample loss is computed in its
logit form softplus(score) - label * score, which is the same quantity
without the intermediate clamp. The embedding table enters the penalty
only through the rows used by the current batch.

Splits are per user: every user's samples are shuffled with the seeded
generator and cut 60/20/20, rounding in favour of the training split. A
user is a user side tuple, grouped by tuple equality; the parser interns
sides by value, so on parsed data that is the user's value (data.side_key).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .autodiff import Parameter, Tape, Value
from .data import DataSample, side_key, universe_of
from .errors import ContractError, InvalidConfigError, SamplingError, TrainingError, UndefinedMetricError
from .metrics import evaluate_model, metric_report, score_dataset
from .model import (
    CANONICAL,
    ModelParams,
    SampleIndex,
    VariantConfig,
    _forward,
    build_plan,
    index_samples,
    init_model_params,
)

# Adam's moment decay rates and the denominator's guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Largest embedding dimension a TrainConfig accepts. The inner MLP alone
# holds 8 * dim**2 weights, 64 MB at this bound; a larger dim would try to
# allocate tables of many gigabytes before training starts.
MAX_DIM = 1024


@dataclass
class TrainConfig:
    dim: int = 64
    learning_rate: float = 1e-3
    lam: float = 1e-5
    epochs: int = 50
    batch_size: int = 256
    seed: int = 0
    variant: VariantConfig = CANONICAL
    patience: int = 5

    def __post_init__(self):
        for name, low in (("dim", 1), ("epochs", 0), ("batch_size", 1), ("patience", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise InvalidConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}", name)
        if self.dim > MAX_DIM:
            raise InvalidConfigError(f"dim must be <= {MAX_DIM}, got {self.dim!r}", "dim")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}", "learning_rate"
            )
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidConfigError(f"lam must be finite and non-negative, got {self.lam!r}", "lam")


@dataclass
class SplitDataset:
    train: list[DataSample]
    valid: list[DataSample]
    test: list[DataSample]
    by_user: dict = field(default_factory=dict)  # user side tuple -> (n_train, n_valid, n_test)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_auc: float
    val_logloss: float

    def __str__(self) -> str:
        return (
            f"epoch={self.epoch} train_loss={self.train_loss!r} "
            f"val_auc={self.val_auc!r} val_logloss={self.val_logloss!r}"
        )


@dataclass
class TrainResult:
    params: ModelParams
    logs: list[EpochLog]
    best_epoch: int


def l2_penalty(tape: Tape, values: Sequence[Value], lam: float) -> Value:
    """lam times the summed squared entries of the given tracked arrays, as
    two recorded nodes: one sq_norm_sum over all of them, then its scale."""
    if not values:
        raise ContractError("l2_penalty: no values given")
    return tape.scale(tape.sq_norm_sum(*values), lam)


def regularized_risk(
    batch: Sequence[DataSample],
    mp: ModelParams,
    lam: float,
    *,
    index: SampleIndex | None = None,
) -> Value:
    """Tracked mean BCE plus the squared-L2 penalty for one mini-batch of
    mp's variant, on a new tape (risk.tape). index, one holding the batch's sides, goes to build_plan."""
    if not batch:
        raise ContractError("regularized_risk: batch is empty")
    if not (math.isfinite(lam) and lam >= 0):
        raise ContractError(f"regularized_risk: lam must be finite and non-negative, got {lam!r}")
    tape = Tape()
    plan = build_plan(batch, mp, index=index)
    out = _forward(tape, plan, mp)
    labels = tape.constant(np.array([s.label for s in batch], dtype=np.float64))
    per_sample = tape.sub(tape.softplus(out.scores), tape.mul(out.scores, labels))
    risk = tape.scale(tape.sum_reduce(per_sample), 1.0 / len(batch))
    if lam > 0:
        tracked = [tape.param(p) for p in mp.parameters() if p is not mp.emb]
        batch_rows = np.unique(plan.attr_rows)
        tracked.append(tape.gather_rows(tape.param(mp.emb), batch_rows))
        risk = tape.add(risk, l2_penalty(tape, tracked, lam))
    return risk


class AdamState:
    """Moments and two scratch buffers per block (Parameter), and the step counter."""

    def __init__(self, params: Sequence[Parameter]):
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]
        self.scratch = [(np.empty_like(p.values), np.empty_like(p.values)) for p in params]
        self.t = 0


def adam_step(params: Sequence[Parameter], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update per block, in place, with the per-array bits, via the scratch."""
    if len(state.m) != len(params):
        raise ContractError("adam_step: state does not match parameters")
    for k, (p, m) in enumerate(zip(params, state.m)):
        if not p.grad.shape == m.shape == p.values.shape:
            raise ContractError(f"adam_step: block {k} {p!r}: gradient shape {p.grad.shape}, state shape {m.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, m, v, (step, root) in zip(params, state.m, state.v, state.scratch):
        m *= ADAM_BETA1
        m += np.multiply(p.grad, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(p.grad, 1.0 - ADAM_BETA2, out=step), p.grad, out=step)
        np.multiply(np.divide(m, c1, out=step), lr, out=step)  # lr * (m / c1)
        np.add(np.sqrt(np.divide(v, c2, out=root), out=root), ADAM_EPS, out=root)  # sqrt(v / c2) + eps
        p.values -= np.divide(step, root, out=step)


def split_per_user(samples: Sequence[DataSample], seed: int) -> SplitDataset:
    """Seeded per-user shuffle, then a 60/20/20 cut favouring train.

    Users with fewer than 5 samples go entirely to train, with a warning.
    """
    groups: dict = {}
    for s in samples:
        groups.setdefault(s.user_chars, []).append(s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    split = SplitDataset(train=[], valid=[], test=[])
    for user, items in groups.items():
        shuffled = [items[k] for k in rng.permutation(len(items))]
        n_valid = n_test = len(items) // 5  # 0 below 5 samples
        n_train = len(items) - n_valid - n_test
        split.train.extend(shuffled[:n_train])
        split.valid.extend(shuffled[n_train:n_train + n_valid])
        split.test.extend(shuffled[n_train + n_valid:])
        split.by_user[user] = (n_train, n_valid, n_test)
    short_users = sum(1 for items in groups.values() if len(items) < 5)
    if short_users:
        warnings.warn(f"{short_users} user(s) had fewer than 5 samples; all their samples went to train")
    return split


def item_pool_of(samples: Sequence[DataSample]) -> list[tuple]:
    """Distinct item side tuples in first-appearance order."""
    return list(dict.fromkeys(s.item_chars for s in samples))


def negative_sample(
    positives: Sequence[DataSample],
    item_pool: Sequence[tuple],
    seed: int,
) -> list[DataSample]:
    """Per user, as many label-0 samples as positives, items drawn without
    replacement from the pool entries the user did not interact with."""
    by_user: dict = {}
    for s in positives:
        by_user.setdefault(s.user_chars, []).append(s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    out: list[DataSample] = []
    for user, items in by_user.items():
        interacted = {s.item_chars for s in items}
        candidates = [i for i, chars in enumerate(item_pool) if chars not in interacted]
        if len(candidates) < len(items):
            raise SamplingError(
                f"item pool exhausted for user {side_key(user)!r}: "
                f"{len(candidates)} candidates for {len(items)} positives"
            )
        chosen = rng.choice(len(candidates), size=len(items), replace=False)
        out += [DataSample(user, item_pool[candidates[c]], 0.0) for c in chosen]
    return out


def train(split: SplitDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch Adam per ModelParams block on the regularized risk of a non-empty training split, each batch
    planned from one index of its sides; keeps the best-validation-AUC parameters; bit-reproducible per config."""
    if not split.train:
        raise ContractError("train: the training split is empty")
    universe = universe_of(list(split.train) + list(split.valid) + list(split.test))
    mp = init_model_params(universe, config.dim, config.seed, config.variant)
    blocks = mp.blocks()
    state = AdamState(blocks)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    logs: list[EpochLog] = []
    best_auc = -np.inf
    best_values: list[np.ndarray] | None = None
    best_epoch = 0
    stall = 0
    train_samples, valid = list(split.train), list(split.valid)
    index = index_samples(train_samples, mp.table)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_samples))
        loss_sum, seen = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_samples[k] for k in order[start:start + config.batch_size]]
            for p in blocks:
                p.zero_grad()
            risk = regularized_risk(batch, mp, config.lam, index=index)
            value = float(risk.data)
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch starting at {start}"
                )
            risk.tape.backward(risk)
            del risk  # frees the tape before the next forward
            adam_step(blocks, state, config.learning_rate)
            loss_sum += value * len(batch)
            seen += len(batch)
        train_loss = loss_sum / seen
        val_auc, val_logloss = _validation_metrics(valid, mp)
        logs.append(EpochLog(epoch, train_loss, val_auc, val_logloss))
        if np.isfinite(val_auc):
            if val_auc > best_auc:
                best_auc = val_auc
                best_values = mp.copy_values()
                best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
    if best_values is not None:
        mp.load_values(best_values)
    return TrainResult(params=mp, logs=logs, best_epoch=best_epoch)


def ablate(samples: Sequence[DataSample], variants: Sequence[VariantConfig], seeds: Sequence[int],
           config: TrainConfig) -> list[dict]:
    """Each variant's evaluate_model report on the test split, averaged over
    the seeds, in variant order. Each seed is split once, before any model
    trains, and a variant trains on it with config's seed and variant set to
    its own; the first seed whose test split is empty raises UndefinedMetricError.
    An empty variants or seeds list raises ContractError before any split."""
    for name, given in (("variants", variants), ("seeds", seeds)):
        if not given:
            raise ContractError(f"ablate: no {name} given")
    splits = [split_per_user(samples, seed) for seed in seeds]
    for seed, split in zip(seeds, splits):
        if not split.test:
            raise UndefinedMetricError(f"seed {seed}: no samples in the test split")
    reports = [[evaluate_model(split.test, train(split, replace(config, seed=seed, variant=variant)).params)
                for seed, split in zip(seeds, splits)] for variant in variants]
    return [{k: float(np.mean([r[k] for r in per_seed])) for k in per_seed[0]} for per_seed in reports]


def _validation_metrics(valid: list[DataSample], mp) -> tuple[float, float]:
    if not valid:
        return float("nan"), float("nan")
    report = metric_report(score_dataset(valid, mp), ks=())
    return report["auc"], report["logloss"]
