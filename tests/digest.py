"""Hash digests of the program's outputs, for checking that a refactor keeps
every bit, or which bits it changes.

Run as `python tests/digest.py` (pytest does not collect it). It first
prints the BLAS thread setting it ran under (OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS as set, or "default"), then the numpy version and the name
and version of the BLAS numpy was built against: the matmul bits, and so
some digests, depend on both. Then it prints one sha256 per group; two
commits that print the same lines under one setting and build give
bit-identical results on:

  forward      for each of the 25 variants, on two fixed batches (one that
               repeats side tuples as shared objects, one with +0, -0 and
               last-bit values): regularized_risk values, score_samples,
               and predict scores and diagnostics;
  grads-gru    the Tape gradients of those regularized_risk values, for the
  grads-other  8 fuse=gru variants and for the other 17: Tape.gru's
               backward holds a tolerance, not the bits of the chain of
               primitives it replaced, so a change to it shows here alone;
  train-small  epoch logs and final parameters of train() on the bench
  train-wide   generators' seed-2001 inputs, with the bench's first config;
  criterion-1  the worst relative error of acceptance criterion 1, which is
               also printed as a number;
  grouping     for both bench inputs and a copy with each line's tokens
               shuffled (parsed with the inputs' vocabulary): the parse
               reports, the splits as side keys and labels in order with
               min_positives 0 and 6, and the per-user report of a fixed
               model on each split's test part;
  ablate       the reports of training.ablate for the canonical variant and
               mode=fm on the train-small seed-2001 input, seed 2001, d=8,
               one epoch, and the trained parameter blocks of each
               (variant, seed) run with that configuration, so that a change
               to training's low bits shows even where the averaged
               reports round it away.

Last it prints `tape-nodes N`: a count, not a hash. N is the number of
nodes one canonical train-small step records on its tape (the seed-2001
input's first 64 training samples, d=16, the default L2 weight), so a
change in the tape's size shows without a traced bench run. It is 30, two
of them the GRU runs; tests/test_training.py pins both numbers on the same
setup (train_small_step below).
"""
import hashlib
import io
import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "bench")]

import inputs  # noqa: E402  (bench/inputs.py)
from conftest import all_variants, shuffle_tokens  # noqa: E402
from gmrec.data import (  # noqa: E402
    ITEM,
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    sample_item_key,
    sample_user_key,
    universe_of,
)
from gmrec.dataio import ParseOptions, parse_dataset_lines  # noqa: E402
from gmrec.metrics import per_user_report, score_dataset  # noqa: E402
from gmrec.model import CANONICAL, FM_REDUCTION, init_model_params, predict, score_samples  # noqa: E402
from gmrec.selfcheck import run_gradcheck  # noqa: E402
from gmrec.training import TrainConfig, ablate, regularized_risk, split_per_user, train  # noqa: E402

SEED = 2001


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._hash.update(f"{item.dtype}{item.shape}".encode())
                self._hash.update(np.ascontiguousarray(item).tobytes())
            else:
                self._hash.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _side(ids, vals, side):
    return tuple(AttributeValuePair(AttributeId(i, side), float(v)) for i, v in zip(ids, vals))


def fixed_batches():
    """Two batches over user ids 0-9 and item ids 10-19. Every side that
    repeats is one shared tuple, so no two separate tuples are equal."""
    rng = np.random.default_rng(7)
    users = [_side(rng.permutation(10)[:n], rng.uniform(-2, 2, n), USER) for n in (1, 2, 3, 5)]
    items = [_side(10 + rng.permutation(10)[:n], rng.uniform(-2, 2, n), ITEM) for n in (1, 2, 4, 6)]
    shared = [DataSample(u, i, float((a + b) % 2)) for a, u in enumerate(users) for b, i in enumerate(items)]
    shared += [shared[3], shared[0], shared[9]]
    x = 0.7
    bits = [
        DataSample(_side((0, 1), (0.0, x), USER), _side((10,), (0.0,), ITEM), 1.0),
        DataSample(_side((0, 1), (-0.0, x), USER), _side((10,), (-0.0,), ITEM), 0.0),
        DataSample(_side((0, 1), (0.0, np.nextafter(x, 1.0)), USER), _side((10, 11), (x, 1.0), ITEM), 1.0),
        DataSample(_side((1,), (np.nextafter(x, 0.0),), USER), _side((10, 11), (np.nextafter(x, 1.0), 1.0), ITEM), 0.0),
    ]
    universe = [AttributeId(i, USER) for i in range(10)] + [AttributeId(i, ITEM) for i in range(10, 20)]
    return universe, [shared, bits]


def variants_digests() -> tuple[str, str, str]:
    """The forward, grads-gru and grads-other digests."""
    out, grads = Digest(), {True: Digest(), False: Digest()}
    universe, batches = fixed_batches()
    for variant in all_variants():
        for batch in batches:
            mp = init_model_params(universe, 8, seed=4, variant=variant)
            risk = regularized_risk(batch, mp, 0.1)
            risk.tape.backward(risk)
            out.add(repr(variant), float(risk.data))
            grads[variant.fuse == "gru"].add(repr(variant), *(p.grad for p in mp.parameters()))
            out.add(score_samples(batch, mp))
            for sample in batch:
                res = predict(sample, mp)
                out.add(res.score, res.user_repr, res.item_repr)
                for node in res.user_nodes + res.item_nodes:
                    out.add(node.att, node.representation, node.message, node.match, node.fused)
    return out.hexdigest(), grads[True].hexdigest(), grads[False].hexdigest()


def train_digest(text: str, dim: int) -> str:
    dataset = parse_dataset_lines(io.StringIO(text))
    split = split_per_user(dataset.samples, SEED)
    config = TrainConfig(dim=dim, learning_rate=3e-3, epochs=2, batch_size=64, seed=1000 * SEED, patience=2)
    result = train(split, config)
    out = Digest()
    out.add("\n".join(map(str, result.logs)), result.best_epoch, *(p.values for p in result.params.parameters()))
    return out.hexdigest()


def grouping_digest() -> str:
    out = Digest()
    for text in (inputs.train_small_text(SEED), inputs.train_wide_text(SEED)):
        lines = text.splitlines()
        shuffled = shuffle_tokens(lines, np.random.default_rng(SEED))
        for copy, vocab in ((lines, None), (shuffled, parse_dataset_lines(lines).vocab)):
            for min_positives in (0, 6):
                dataset = parse_dataset_lines(copy, ParseOptions(min_positives=min_positives), vocab)
                split = split_per_user(dataset.samples, SEED)
                out.add(str(dataset.report), list(split.by_user.values()))
                for part in (split.train, split.valid, split.test):
                    out.add([(sample_user_key(s), sample_item_key(s), s.label) for s in part])
                mp = init_model_params(universe_of(dataset.samples), 8, seed=SEED)
                out.add(per_user_report(score_dataset(split.test, mp)))
    return out.hexdigest()


def ablate_digest() -> str:
    dataset = parse_dataset_lines(io.StringIO(inputs.train_small_text(SEED)))
    config = TrainConfig(dim=8, learning_rate=3e-3, epochs=1, batch_size=64, patience=1)
    variants, seeds = [CANONICAL, FM_REDUCTION], [SEED]
    out = Digest()
    out.add(ablate(dataset.samples, variants, seeds, config))
    for seed in seeds:  # the runs ablate makes, as it makes them
        split = split_per_user(dataset.samples, seed)
        for variant in variants:
            out.add(*(p.values for p in train(split, replace(config, seed=seed, variant=variant)).params.blocks()))
    return out.hexdigest()


def train_small_step():
    """The batch, model and L2 weight of one canonical train-small step: the
    seed-2001 input's first 64 training samples, d=16, the default L2 weight."""
    dataset = parse_dataset_lines(io.StringIO(inputs.train_small_text(SEED)))
    split = split_per_user(dataset.samples, SEED)
    config = TrainConfig(dim=16, seed=1000 * SEED)
    mp = init_model_params(universe_of(dataset.samples), config.dim, config.seed)
    return split.train[:64], mp, config.lam


def tape_nodes() -> int:
    batch, mp, lam = train_small_step()
    return len(regularized_risk(batch, mp, lam).tape.nodes)


def blas_threads() -> str:
    setting = [f"{k}={os.environ[k]}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ]
    return " ".join(setting) or "default"


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} {blas['name']} {blas['version']}"


def main() -> None:
    print("blas-threads", blas_threads())
    print("blas-build  ", blas_build())
    forward, grads_gru, grads_other = variants_digests()
    print("forward    ", forward)
    print("grads-gru  ", grads_gru)
    print("grads-other", grads_other)
    print("train-small", train_digest(inputs.train_small_text(SEED), 16))
    print("train-wide ", train_digest(inputs.train_wide_text(SEED), 64))
    worst = run_gradcheck(instances=20, d=8, seed=0, step=1e-5, max_attrs=4)
    out = Digest()
    out.add(worst)
    print("criterion-1", out.hexdigest(), repr(worst))
    print("grouping   ", grouping_digest())
    print("ablate     ", ablate_digest())
    print("tape-nodes ", tape_nodes())


if __name__ == "__main__":
    main()
