import math
import tracemalloc
import weakref

import numpy as np
import pytest

import gmrec.training
from gmrec.autodiff import Parameter, Tape, gradient_check
from gmrec.data import sample_user_key, universe_of
from gmrec.dataio import SynthSpec, generate_synthetic, load_checkpoint, parse_dataset_lines, save_checkpoint
from gmrec.errors import ContractError, InvalidConfigError, SamplingError, UndefinedMetricError
from gmrec.metrics import auc, bce_loss, evaluate_model
from gmrec.model import CANONICAL, FM_REDUCTION, VariantConfig, build_plan, init_model_params, score_samples
from gmrec.training import (
    AdamState,
    MAX_DIM,
    SplitDataset,
    TrainConfig,
    ablate,
    adam_step,
    item_pool_of,
    l2_penalty,
    negative_sample,
    regularized_risk,
    split_per_user,
    train,
)

from conftest import all_variants, make_sample
from oracles import adam_per_array, gru_chain, sigmoid


def make_labeled_samples(n_users, per_user, rng, n_item_pool=None, id_base=1000):
    """Users share a pool of item characteristics; labels alternate."""
    n_item_pool = n_item_pool or (2 * per_user)
    samples = []
    for u in range(n_users):
        user_sample = make_sample(2, 1, id_offset=id_base + 10 * u)
        items = rng.choice(n_item_pool, size=per_user, replace=False)
        for k, item in enumerate(items):
            proto = make_sample(1, 2, id_offset=50_000 + 10 * int(item))
            samples.append(
                type(proto)(
                    user_chars=user_sample.user_chars,
                    item_chars=proto.item_chars,
                    label=float(k % 2 == 0),
                )
            )
    return samples


class TestBceLoss:
    def test_half_probability(self):
        assert abs(bce_loss(0.5, 1.0) - math.log(2.0)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        assert bce_loss(1.0 - 1e-12, 1.0) < 1e-11

    def test_wrong_with_point_nine(self):
        assert abs(bce_loss(0.9, 0.0) - (-math.log(0.1))) < 1e-12

    def test_clamping_keeps_loss_finite(self):
        assert math.isfinite(bce_loss(0.0, 1.0))
        assert math.isfinite(bce_loss(1.0, 0.0))


class TestPenalty:
    def test_squared_norm_example(self):
        p = Parameter([3.0, 4.0])
        tape = Tape()
        out = l2_penalty(tape, [tape.param(p)], 0.1)
        assert abs(float(out.data) - 2.5) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            l2_penalty(Tape(), [], 0.1)

    def test_two_nodes_with_the_bits_of_the_chain(self, rng):
        """On a canonical model, the penalty records 2 nodes, and its value
        and every gradient have the bits of a mul/sum_reduce/add chain."""
        samples = [make_sample(2, 2, vals=list(rng.uniform(0.5, 1.5, size=4))) for _ in range(3)]
        mp = init_model_params(universe_of(samples), 8, 3, CANONICAL)

        def chain(tape, values, lam):
            total = None
            for v in values:
                sq = tape.sum_reduce(tape.mul(v, v))
                total = sq if total is None else tape.add(total, sq)
            return tape.scale(total, lam)

        def run(penalty):
            for p in mp.parameters():
                p.zero_grad()
            tape = Tape()
            values = [tape.param(p) for p in mp.parameters() if p is not mp.emb]
            values.append(tape.gather_rows(tape.param(mp.emb), np.arange(0, mp.emb.shape[0], 2)))
            recorded = len(tape.nodes)
            out = penalty(tape, values, 0.1)
            recorded = len(tape.nodes) - recorded
            tape.backward(out)
            return recorded, np.asarray(out.data).tobytes(), [p.grad.tobytes() for p in mp.parameters()]

        nodes, value, grads = run(l2_penalty)
        chain_nodes, chain_value, chain_grads = run(chain)
        assert nodes == 2 and chain_nodes == 3 * len(mp.parameters())
        assert value == chain_value
        assert grads == chain_grads


def test_train_small_step_records_30_nodes_two_of_them_gru(monkeypatch):
    """The setup of digest.py's tape-nodes line: a canonical train-small step
    records 30 nodes. Two are the GRU runs, one node each: steps 1-2 over
    the distinct sides' nodes, then step 3 over the samples' nodes."""
    import digest

    runs, gru = [], Tape.gru

    def recording(tape, steps, weights, h0=None):
        before = len(tape.nodes)
        out = gru(tape, steps, weights, h0)
        runs.append((len(steps), h0 is None, out.shape[0], len(tape.nodes) - before))
        return out

    monkeypatch.setattr(Tape, "gru", recording)
    assert digest.tape_nodes() == 30
    batch, mp, _ = digest.train_small_step()
    plan = build_plan(batch, mp)
    assert plan.node_src is not None  # the batch repeats sides, so the two runs differ in rows
    assert runs == [(2, True, len(plan.attr_rows), 1), (1, False, plan.n_nodes, 1)]


@pytest.fixture(scope="module")
def bench_batches():
    """The first 64 training samples and the universe of each bench input
    (seed 2001), with the bench's d: train-small at 16, train-wide at 64."""
    import digest

    out = []
    for text, dim in ((digest.inputs.train_small_text(digest.SEED), 16),
                      (digest.inputs.train_wide_text(digest.SEED), 64)):
        samples = parse_dataset_lines(text.splitlines()).samples
        out.append((split_per_user(samples, digest.SEED).train[:64], universe_of(samples), dim))
    return out


@pytest.mark.parametrize("variant", [v for v in all_variants() if v.fuse == "gru"], ids=repr)
def test_gru_node_gradients_are_within_tolerance_of_the_chain(variant, bench_batches, monkeypatch):
    """regularized_risk's gradients with Tape.gru are within 1e-14 of each
    parameter's largest gradient entry with the per-primitive chain in its
    place, on both bench inputs: the two GRU runs share their weights, and
    the L2 penalty's contributions reach them before the runs'."""
    for batch, universe, dim in bench_batches:
        mp = init_model_params(universe, dim, seed=5, variant=variant)

        def grads():
            for p in mp.parameters():
                p.zero_grad()
            risk = regularized_risk(batch, mp, TrainConfig().lam)
            risk.tape.backward(risk)
            return [p.grad.copy() for p in mp.parameters()]

        node = grads()
        with monkeypatch.context() as m:
            m.setattr(Tape, "gru", lambda tape, steps, weights, h0=None: gru_chain(tape, steps, weights, h0))
            chain = grads()
        for p, a, b in zip(mp.parameters(), node, chain):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), (dim, p.name)


class TestRegularizedRisk:
    def _setup(self, rng, n=4):
        samples = [
            make_sample(2, 2, vals=list(rng.uniform(0.5, 1.5, size=4)), label=float(k % 2))
            for k in range(n)
        ]
        mp = init_model_params(universe_of(samples), 8, 3)
        return samples, mp

    def test_lambda_zero_is_mean_bce(self, rng):
        samples, mp = self._setup(rng)
        risk = regularized_risk(samples, mp, 0.0)
        scores = score_samples(samples, mp)
        expected = np.mean(
            [bce_loss(float(sigmoid(s)), smp.label) for s, smp in zip(scores, samples)]
        )
        assert abs(float(risk.data) - expected) < 1e-12

    def test_matches_sum_of_parts_oracle(self, rng):
        samples, mp = self._setup(rng)
        lam = 0.01
        risk = regularized_risk(samples, mp, lam)
        scores = score_samples(samples, mp)
        bce_part = np.mean(
            [bce_loss(float(sigmoid(s)), smp.label) for s, smp in zip(scores, samples)]
        )
        norm_part = sum(float((p.values ** 2).sum()) for p in mp.parameters())
        assert abs(float(risk.data) - (bce_part + lam * norm_part)) < 1e-12

    def test_empty_batch_rejected(self, rng):
        _, mp = self._setup(rng)
        with pytest.raises(ContractError):
            regularized_risk([], mp, 0.0)

    @pytest.mark.parametrize("lam", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_lam_rejected(self, rng, lam):
        """A lam that is not finite or is negative is an error naming lam,
        not a risk without its penalty (or an infinite one)."""
        samples, mp = self._setup(rng)
        with pytest.raises(ContractError, match="lam"):
            regularized_risk(samples, mp, lam)

    def test_gradients_pass_finite_difference_check(self, rng):
        samples, mp = self._setup(rng, n=3)

        def forward():
            return regularized_risk(samples, mp, 0.001)

        assert gradient_check(forward, mp.parameters(), step=1e-5) < 1e-4


class TestAdam:
    def test_first_step_moves_by_lr_sign(self):
        p = Parameter([1.0, -1.0, 2.0])
        state = AdamState([p])
        g = np.array([0.3, -0.7, 0.001])
        p.grad[...] = g
        adam_step([p], state, lr=0.01)
        expected = np.array([1.0, -1.0, 2.0]) - 0.01 * np.sign(g) * (
            np.abs(g) / (np.abs(g) + 1e-8)
        )
        assert np.allclose(p.values, expected, rtol=0, atol=1e-9)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter([1.0, 2.0])
        state = AdamState([p])
        for _ in range(5):
            p.zero_grad()
            adam_step([p], state, lr=0.1)
        assert np.array_equal(p.values, [1.0, 2.0])

    def test_three_steps_descend_quadratic(self):
        # f(t) = t^2 from t = 1 with lr 0.1: |t| strictly decreases
        p = Parameter(np.ones(()))
        state = AdamState([p])
        values = [float(np.abs(p.values))]
        for _ in range(3):
            p.grad[...] = 2.0 * p.values
            adam_step([p], state, lr=0.1)
            values.append(float(np.abs(p.values)))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_state_mismatch_rejected(self):
        p = Parameter([1.0])
        q = Parameter([1.0])
        state = AdamState([p])
        with pytest.raises(ContractError):
            adam_step([p, q], state, lr=0.1)

    def test_shape_mismatch_rejected_before_the_state_changes(self):
        """A list as long as the state but of other shapes is a ContractError
        naming the mismatch; the step counter, the moments and the values
        are as they were."""
        p = Parameter([1.0, -1.0, 2.0])
        state = AdamState([p])
        p.grad[...] = [0.3, -0.7, 0.1]
        adam_step([p], state, lr=0.01)
        q = Parameter(np.ones((2, 3)))
        q.grad[...] = 0.5

        def snapshot():
            return state.t, state.m[0].tobytes(), state.v[0].tobytes(), q.values.tobytes()

        before = snapshot()
        with pytest.raises(ContractError, match=r"gradient shape \(2, 3\), state shape \(3,\)"):
            adam_step([q], state, lr=0.01)
        assert snapshot() == before

    def test_blocks_match_the_per_array_update_bit_for_bit(self):
        """Five steps on random gradients: Adam over a canonical model's
        blocks, and over a lone Parameter, gives every value the bytes of
        oracles.adam_per_array, which updates one array at a time."""
        universe = universe_of([make_sample(2, 3)])
        arena, apart = (init_model_params(universe, 8, 3, CANONICAL) for _ in range(2))
        assert len(arena.blocks()) == 2
        cases = [
            (arena.parameters(), arena.blocks(), apart.parameters()),
            ([Parameter(np.linspace(-1.0, 1.0, 7))], None, [Parameter(np.linspace(-1.0, 1.0, 7))]),
        ]
        for params, blocks, ref in cases:
            blocks = blocks or params
            state = AdamState(blocks)
            m, v = [np.zeros(p.shape) for p in ref], [np.zeros(p.shape) for p in ref]
            got = _five_adam_steps(params, lambda t: adam_step(blocks, state, 0.01))
            assert got == _five_adam_steps(ref, lambda t: adam_per_array(ref, m, v, t, 0.01))

    def test_a_step_allocates_less_than_the_dense_arrays(self):
        """Under tracemalloc, one adam_step on a d=64 canonical model peaks
        below the summed size of its MLP and GRU arrays: the update writes
        into the state's scratch, not into temporaries."""
        mp = init_model_params(universe_of([make_sample(3, 3)]), 64, 0, CANONICAL)
        blocks = mp.blocks()
        state = AdamState(blocks)
        for p in blocks:
            p.grad[...] = 0.25
        adam_step(blocks, state, 1e-3)
        tracemalloc.start()
        try:
            adam_step(blocks, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(p.values.nbytes for p in mp.parameters()[1:])


def _five_adam_steps(params, update):
    """The parameters' value bytes after five updates, each from fresh
    seeded random gradients; update(t) runs step t."""
    rng = np.random.default_rng(11)
    for t in range(1, 6):
        for p in params:
            p.grad[...] = rng.normal(size=p.shape)
        update(t)
    return [p.values.tobytes() for p in params]


def _assert_views_of_the_arena(mp):
    """Every MLP and GRU Parameter's values and grad are still the views
    into mp.dense that init_model_params made, in registry order."""
    offset = 0
    for p in mp.parameters()[1:]:
        for array, buffer in ((p.values, mp.dense.values), (p.grad, mp.dense.grad)):
            assert array.base is buffer and array.ctypes.data == buffer.ctypes.data + 8 * offset, p
        offset += p.values.size
    assert offset == mp.dense.values.size


class TestArena:
    """Writes into parameters are in place, so no entry point detaches a
    Parameter from the arena."""

    @pytest.mark.parametrize("variant", [CANONICAL, VariantConfig(inner="mlp", cross="mlp_separate", fuse="mlp")],
                             ids=["gru", "three-mlps"])
    def test_entry_points_keep_the_views(self, rng, tmp_path, variant):
        text, _ = generate_synthetic(SynthSpec(users=8, items=8, samples=80, seed=3))
        dataset = parse_dataset_lines(text.splitlines())
        split = split_per_user(dataset.samples, 0)
        mp = init_model_params(universe_of(dataset.samples), 2, 1, variant)
        _assert_views_of_the_arena(mp)
        risk = regularized_risk(split.train[:8], mp, 1e-3)
        risk.tape.backward(risk)
        assert np.abs(mp.dense.grad).max() > 0
        _assert_views_of_the_arena(mp)
        assert gradient_check(lambda: regularized_risk(split.train[:2], mp, 1e-3), mp.parameters()) < 1e-4
        _assert_views_of_the_arena(mp)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, variant, path, dataset.vocab)
        loaded = load_checkpoint(path)[0]
        _assert_views_of_the_arena(loaded)
        assert [p.values.tobytes() for p in loaded.parameters()] == [p.values.tobytes() for p in mp.parameters()]
        result = train(split, TrainConfig(dim=2, epochs=3, batch_size=16, seed=1, patience=3, variant=variant))
        assert result.best_epoch >= 1
        _assert_views_of_the_arena(result.params)


class TestSplitPerUser:
    def test_ten_samples_split_622(self, rng):
        samples = make_labeled_samples(3, 10, rng)
        split = split_per_user(samples, seed=0)
        for counts in split.by_user.values():
            assert counts == (6, 2, 2)

    def test_five_samples_split_311(self, rng):
        samples = make_labeled_samples(2, 5, rng)
        split = split_per_user(samples, seed=0)
        for counts in split.by_user.values():
            assert counts == (3, 1, 1)

    def test_same_seed_identical(self, rng):
        samples = make_labeled_samples(4, 8, rng)
        a = split_per_user(samples, seed=3)
        b = split_per_user(samples, seed=3)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test

    def test_disjoint_and_complete(self, rng):
        samples = make_labeled_samples(4, 9, rng)
        split = split_per_user(samples, seed=1)
        ids = lambda part: {id(s) for s in part}
        assert not (ids(split.train) & ids(split.valid))
        assert not (ids(split.train) & ids(split.test))
        assert not (ids(split.valid) & ids(split.test))
        assert len(split.train) + len(split.valid) + len(split.test) == len(samples)

    def test_short_users_all_to_train_with_warning(self, rng):
        samples = make_labeled_samples(1, 4, rng)
        with pytest.warns(UserWarning):
            split = split_per_user(samples, seed=0)
        assert len(split.train) == 4
        assert not split.valid and not split.test


class TestNegativeSample:
    def _positives(self, rng, n_users=3, per_user=4):
        samples = make_labeled_samples(n_users, per_user, rng, n_item_pool=3 * per_user)
        return [s for s in samples if s.label == 1.0], samples

    def test_counts_and_disjointness(self, rng):
        positives, all_samples = self._positives(rng)
        pool = item_pool_of(all_samples)
        negatives = negative_sample(positives, pool, seed=0)
        assert len(negatives) == len(positives)
        by_user_pos = {}
        for s in positives:
            by_user_pos.setdefault(sample_user_key(s), set()).add(tuple(s.item_chars))
        for s in negatives:
            assert s.label == 0.0
            assert tuple(s.item_chars) not in by_user_pos[sample_user_key(s)]

    def test_forced_choice_with_pool_of_one_extra(self, rng):
        positives, _ = self._positives(rng, n_users=1, per_user=1)
        extra = make_sample(1, 2, id_offset=90_000)
        pool = [positives[0].item_chars, extra.item_chars]
        negatives = negative_sample(positives, pool, seed=0)
        assert len(negatives) == 1
        assert negatives[0].item_chars == extra.item_chars

    def test_same_seed_identical(self, rng):
        positives, all_samples = self._positives(rng)
        pool = item_pool_of(all_samples)
        a = negative_sample(positives, pool, seed=5)
        b = negative_sample(positives, pool, seed=5)
        assert a == b

    def test_pool_exhaustion_names_user(self, rng):
        positives, _ = self._positives(rng, n_users=1, per_user=3)
        pool = [positives[0].item_chars]
        with pytest.raises(SamplingError, match="user"):
            negative_sample(positives, pool, seed=0)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
        ("lam", math.nan), ("lam", math.inf), ("lam", -1e-9),
        ("dim", 0), ("dim", MAX_DIM + 1), ("dim", 10**11),
        ("epochs", -1), ("batch_size", 0), ("patience", 0), ("seed", -1),
    ])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(InvalidConfigError, match=field) as info:
            TrainConfig(**{field: value})
        assert info.value.field == field

    def test_defaults_and_edges_accepted(self):
        TrainConfig()
        TrainConfig(epochs=0, lam=0.0, seed=0, learning_rate=1e300)
        TrainConfig(dim=MAX_DIM)


class TestTrain:
    def _split(self, rng, n_users=6, per_user=6):
        samples = make_labeled_samples(n_users, per_user, rng)
        return split_per_user(samples, seed=0)

    def test_zero_epochs_returns_initial_params(self, rng):
        split = self._split(rng)
        config = TrainConfig(dim=4, epochs=0, seed=1, batch_size=8)
        result = train(split, config)
        fresh = init_model_params(
            universe_of(split.train + split.valid + split.test), 4, 1, CANONICAL
        )
        for a, b in zip(result.params.parameters(), fresh.parameters()):
            assert np.array_equal(a.values, b.values)
        assert result.logs == []

    def test_same_seed_bit_identical_logs(self, rng):
        split = self._split(rng)
        config = TrainConfig(dim=4, epochs=3, seed=2, batch_size=8)
        a = train(split, config)
        b = train(split, config)
        assert [str(x) for x in a.logs] == [str(x) for x in b.logs]
        for pa, pb in zip(a.params.parameters(), b.params.parameters()):
            assert np.array_equal(pa.values, pb.values)

    def test_empty_training_split_rejected(self):
        """A split with no training samples is a ContractError before epoch
        1, not epochs of train_loss=0.0 without a step."""
        text, _ = generate_synthetic(SynthSpec(users=8, items=6, samples=80, seed=5))
        split = split_per_user(parse_dataset_lines(text.splitlines()).samples, 5)
        split.train = []
        with pytest.raises(ContractError, match="^train: the training split is empty$"):
            train(split, TrainConfig(dim=4, epochs=2, seed=5))

    def test_single_sample_descent(self, rng):
        sample = make_sample(2, 2, label=1.0)
        split = SplitDataset(train=[sample], valid=[], test=[])
        config = TrainConfig(dim=8, learning_rate=1e-4, lam=0.0, epochs=1, seed=0, batch_size=1)
        mp0 = init_model_params(universe_of([sample]), 8, 0, CANONICAL)
        before = bce_loss(float(sigmoid(score_samples([sample], mp0)[0])), 1.0)
        result = train(split, config)
        after = bce_loss(float(sigmoid(score_samples([sample], result.params)[0])), 1.0)
        assert after < before

    def test_non_finite_loss_aborts(self, rng):
        # overflow-scale values through the polynomial variant: the very
        # first forward produces inf/nan and training must stop with a
        # diagnostic rather than keep stepping.
        from gmrec.errors import TrainingError
        from gmrec.model import VariantConfig

        bad = make_sample(2, 2, vals=[1e200, 1e200, 1e200, 1e200], label=1.0)
        split = SplitDataset(train=[bad], valid=[], test=[])
        variant = VariantConfig(inner="bi", cross="bi", fuse="sum")
        config = TrainConfig(dim=4, epochs=1, seed=0, batch_size=1, variant=variant)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError):
                train(split, config)

    def test_each_step_frees_its_tape_before_the_next_forward(self, rng, monkeypatch):
        """No step's tape, nor the arrays it holds, is alive while the next
        step's forward runs."""
        split = self._split(rng)
        tapes, risk_of = [], gmrec.training.regularized_risk

        def recording(*args, **kwargs):
            assert all(ref() is None for ref in tapes)
            risk = risk_of(*args, **kwargs)
            tapes.append(weakref.ref(risk.tape))
            return risk

        monkeypatch.setattr(gmrec.training, "regularized_risk", recording)
        train(split, TrainConfig(dim=4, epochs=2, seed=1, batch_size=8))
        assert len(tapes) > 2

    def test_returns_best_validation_params(self, rng):
        split = self._split(rng, n_users=8, per_user=8)
        config = TrainConfig(dim=8, epochs=6, seed=3, batch_size=16, patience=100)
        result = train(split, config)
        assert 1 <= result.best_epoch <= 6
        best_logged = max(log.val_auc for log in result.logs)
        scored = score_samples(split.valid, result.params)
        from gmrec.metrics import ScoredSample

        recomputed = auc(
            [
                ScoredSample(sample_user_key(s), float(v), s.label)
                for s, v in zip(split.valid, scored)
            ]
        )
        assert abs(recomputed - best_logged) < 1e-12


class TestAblate:
    VARIANTS = [CANONICAL, FM_REDUCTION]

    def test_equals_split_train_evaluate_and_mean(self):
        """Bit for bit: split each seed, train each variant on it with the
        seed and variant set, evaluate on its test split, and average each
        metric over the seeds; one report per variant, in variant order."""
        text, _ = generate_synthetic(SynthSpec(users=30, items=20, samples=240, rule="xor_cross", seed=5))
        samples = parse_dataset_lines(text.splitlines()).samples
        seeds = [3, 1]
        config = TrainConfig(dim=4, learning_rate=3e-3, epochs=2, batch_size=32, seed=99, patience=2)
        expected = []
        for variant in self.VARIANTS:
            reports = []
            for seed in seeds:
                split = split_per_user(samples, seed)
                result = train(split, TrainConfig(dim=4, learning_rate=3e-3, epochs=2, batch_size=32,
                                                  seed=seed, patience=2, variant=variant))
                reports.append(evaluate_model(split.test, result.params))
            expected.append({k: float(np.mean([r[k] for r in reports])) for k in reports[0]})
        assert expected[0] != expected[1]
        assert ablate(samples, self.VARIANTS, seeds, config) == expected

    def test_empty_test_split_raises_before_any_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gmrec.training, "train", lambda *args: calls.append(args))
        samples = parse_dataset_lines(["1\tu1\ti1", "0\tu1\ti2", "1\tu2\ti1", "0\tu2\ti2"]).samples
        with pytest.warns(UserWarning, match="fewer than 5 samples"):
            with pytest.raises(UndefinedMetricError, match="^seed 3: no samples in the test split$"):
                ablate(samples, self.VARIANTS, [3, 0], TrainConfig(dim=4, epochs=1))
        assert calls == []

    @pytest.mark.parametrize("empty", ["variants", "seeds"])
    def test_empty_list_raises_before_any_split(self, monkeypatch, empty):
        """An empty variants or seeds list is a ContractError naming it,
        raised before any split."""
        calls = []
        monkeypatch.setattr(gmrec.training, "split_per_user", lambda *args: calls.append(args))
        samples = [make_sample(1, 1)]
        lists = {"variants": self.VARIANTS, "seeds": [0], empty: []}
        with pytest.raises(ContractError, match=f"^ablate: no {empty} given$"):
            ablate(samples, lists["variants"], lists["seeds"], TrainConfig(dim=4, epochs=1))
        assert calls == []
