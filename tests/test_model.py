import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrec import model
from gmrec.autodiff import ArrayOps, PairBlock, Parameter, RowLocalOps, Tape, gradient_check
from gmrec.data import (
    ITEM,
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    EmbeddingTable,
    Side,
    init_embeddings,
    universe_of,
)
from gmrec.errors import ContractError, MissingEmbeddingError, ShapeError
from gmrec.model import (
    CANONICAL,
    ModelParams,
    VariantConfig,
    _forward,
    build_plan,
    format_variant,
    fuse,
    index_samples,
    init_model_params,
    predict,
    score_samples,
)

from gmrec.dataio import SynthSpec, generate_synthetic, parse_dataset_lines
from gmrec.metrics import evaluate_model, score_dataset
from gmrec.selfcheck import gradcheck_problem
from gmrec.training import item_pool_of, regularized_risk

from conftest import all_variants, draw_synth_spec, make_sample, plan_side_map, swap_roles
from oracles import full_forward_oracle, gru_oracle, pair_message_oracle, plan_oracle, value_side_map


def make_model(sample_or_samples, dim=8, seed=7, variant=CANONICAL):
    samples = sample_or_samples if isinstance(sample_or_samples, list) else [sample_or_samples]
    return init_model_params(universe_of(samples), dim, seed, variant)


def zero_mlp(mlp):
    for p in mlp.parameters():
        p.values[...] = 0.0


def zero_gru(gru):
    for p in gru.parameters():
        p.values[...] = 0.0


def table_model(table, variant=CANONICAL):
    """A model of variant over table with no weights: enough for build_plan,
    which reads the table and the variant alone."""
    return ModelParams(table=table, emb=Parameter(table.matrix, "embeddings"), variant=variant)


class TestNodesInPredict:
    """Steps 1 and 2 of the forward as predict()'s diagnostics show them."""

    def test_representation_is_value_times_row(self):
        """u = val * v, bit for bit, for signed, unit and zero values, read
        from the table's own rows: a changed row shows in the next call."""
        sample = make_sample(3, 2, vals=[2.0, 1.0, 0.0, -0.5, 1.0])
        mp = make_model(sample, dim=4)
        for _ in range(2):
            res = predict(sample, mp)
            for c, n in zip(sample.user_chars + sample.item_chars, res.user_nodes + res.item_nodes):
                assert n.representation.tobytes() == (c.val * mp.table.vector(c.att)).tobytes()
            mp.table.matrix[mp.table.row(sample.user_chars[0].att)] += 1.0
        assert not res.user_nodes[2].representation.any()

    def test_zeroed_inner_mlp_gives_zero_messages(self):
        sample = make_sample(3, 2)
        mp = make_model(sample)
        zero_mlp(mp.inner_mlp)
        res = predict(sample, mp)
        for node in res.user_nodes + res.item_nodes:
            assert np.array_equal(node.message, np.zeros(8))

    def test_identity_weights_give_relu_of_each_node(self, rng):
        """With w_in routing concat(u_i, u_j) to the hidden layer unchanged and
        w_out reading back its first d slots, each pair gives relu(u_i), so a
        node of a p-node side gets (p - 1) relu(u_i)."""
        for p in (2, 3):
            sample = make_sample(p, 1, vals=list(rng.normal(size=p + 1)))
            mp = make_model(sample, dim=4)
            mp.inner_mlp.w_in.values[...] = 0.0
            mp.inner_mlp.w_in.values[:8, :8] = np.eye(8)
            mp.inner_mlp.b_hidden.values[...] = 0.0
            mp.inner_mlp.w_out.values[...] = 0.0
            mp.inner_mlp.w_out.values[:4, :4] = np.eye(4)
            mp.inner_mlp.b_out.values[...] = 0.0
            for node in predict(sample, mp).user_nodes:
                want = (p - 1) * np.maximum(node.representation, 0.0)
                assert np.allclose(node.message, want, rtol=0, atol=1e-15)

    def test_counts_of_nodes_and_same_side_pairs(self):
        """One node per attribute; a p-node side has p (p - 1) ordered
        same-side pairs, none for a single node."""
        for p, q in ((3, 2), (1, 2), (2, 4), (4, 1)):
            sample = make_sample(p, q)
            mp = make_model(sample)
            res = predict(sample, mp)
            assert (len(res.user_nodes), len(res.item_nodes)) == (p, q)
            plan = build_plan([sample], mp)
            assert (plan.n_nodes, plan.pair_a.size) == (p + q, p * (p - 1) + q * (q - 1))


class TestFuse:
    def test_zero_weights_zero_state(self, rng):
        sample = make_sample(2, 2)
        mp = make_model(sample)
        zero_gru(mp.gru)
        out = fuse(rng.normal(size=8), rng.normal(size=8), rng.normal(size=8), mp)
        assert np.array_equal(out, np.zeros(8))

    def test_purity(self, rng):
        mp = make_model(make_sample(2, 2))
        u, z, s = rng.normal(size=(3, 8))
        assert np.array_equal(fuse(u, z, s, mp), fuse(u, z, s, mp))

    def test_matches_gru_oracle(self, rng):
        mp = make_model(make_sample(2, 2), dim=2, seed=11)
        u = np.array([1.0, 0.0])
        z = np.array([0.0, 1.0])
        s = np.array([1.0, 1.0])
        expected = gru_oracle([u, z, s], mp.gru)
        assert np.abs(fuse(u, z, s, mp) - expected).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        mp = make_model(make_sample(2, 2))
        with pytest.raises(ShapeError):
            fuse(np.zeros(8), np.zeros(8), np.zeros(5), mp)

    def test_model_without_gru_rejected(self):
        """fuse=sum, fuse=mlp and mode=fm have no GRU: a ContractError
        naming the model's variant, not an AttributeError."""
        for variant in (VariantConfig(fuse="sum"), VariantConfig(fuse="mlp"), VariantConfig(mode="fm")):
            mp = make_model(make_sample(2, 2), variant=variant)
            with pytest.raises(ContractError, match=f"fuse: the model '{format_variant(variant)}' has no GRU"):
                fuse(np.zeros(8), np.zeros(8), np.zeros(8), mp)


class TestPredict:
    def test_zero_params_give_zero_score(self):
        sample = make_sample(2, 2)
        mp = make_model(sample)
        zero_gru(mp.gru)
        res = predict(sample, mp)
        assert res.score == 0.0
        assert res.probability == 0.5
        assert not res.user_repr.any() and not res.item_repr.any()

    def test_representation_is_the_sum_of_fused_nodes(self):
        sample = make_sample(2, 2)
        mp = make_model(sample, seed=13)
        res = predict(sample, mp)
        for reps, nodes in ((res.user_repr, res.user_nodes), (res.item_repr, res.item_nodes)):
            assert np.array_equal(reps, nodes[0].fused + nodes[1].fused)

    def test_orthogonal_representations_zero_score(self):
        sample = make_sample(1, 1)
        mp = make_model(sample, dim=2)

        res = predict(sample, mp)
        # force orthogonal graph representations through the embedding table
        # by checking the invariant directly instead: score is the dot.
        assert res.score == float(np.dot(res.user_repr, res.item_repr))

    def test_matches_full_forward_oracle(self):
        sample = make_sample(2, 2, vals=[1.0, 2.0, -0.5, 1.0])
        mp = make_model(sample, dim=8, seed=21)
        res = predict(sample, mp)
        expected_score, v_user, v_item = full_forward_oracle(sample, mp)
        assert abs(res.score - expected_score) < 1e-12
        assert np.abs(res.user_repr - v_user).max() < 1e-12
        assert np.abs(res.item_repr - v_item).max() < 1e-12

    def test_diagnostics_follow_input_order(self):
        sample = make_sample(3, 2)
        shuffled = type(sample)(
            user_chars=(sample.user_chars[2], sample.user_chars[0], sample.user_chars[1]),
            item_chars=sample.item_chars,
            label=sample.label,
        )
        mp = make_model(sample)
        res = predict(shuffled, mp)
        assert [n.att.id for n in res.user_nodes] == [2, 0, 1]

    def test_score_is_dot_of_returned_representations(self):
        sample = make_sample(3, 2)
        mp = make_model(sample, seed=2)
        res = predict(sample, mp)
        assert res.score == float(np.dot(res.user_repr, res.item_repr))


class TestStructuralInvariances:
    def test_permutation_invariance_exact(self, rng):
        for seed in range(5):
            sample = make_sample(4, 3, vals=list(rng.uniform(0.5, 2.0, size=7)))
            mp = make_model(sample, seed=seed)
            res = predict(sample, mp)
            perm_u = list(rng.permutation(4))
            perm_i = list(rng.permutation(3))
            shuffled = type(sample)(
                user_chars=tuple(sample.user_chars[i] for i in perm_u),
                item_chars=tuple(sample.item_chars[j] for j in perm_i),
                label=sample.label,
            )
            res2 = predict(shuffled, mp)
            assert res2.score == res.score

    def test_role_swap_invariance_exact(self, rng):
        for seed in range(5):
            sample = make_sample(3, 4, vals=list(rng.uniform(0.5, 2.0, size=7)))
            mp = make_model(sample, seed=seed)
            assert predict(swap_roles(sample), mp).score == predict(sample, mp).score

    def test_single_node_reduction_exact(self):
        for seed in range(5):
            sample = make_sample(1, 4)
            mp = make_model(sample, seed=seed)
            res = predict(sample, mp)
            node = res.user_nodes[0]
            assert np.array_equal(node.message, np.zeros(8))
            fused = fuse(node.representation, np.zeros(8), node.match, mp)
            assert np.array_equal(res.user_repr, fused)

    def test_node_match_linearity_in_engine(self, rng):
        sample = make_sample(3, 4, vals=list(rng.uniform(0.5, 2.0, size=7)))
        mp = make_model(sample, seed=3)
        res = predict(sample, mp)
        opp_sum = np.sum([n.representation for n in res.item_nodes], axis=0)
        for node in res.user_nodes:
            assert np.abs(node.match - node.representation * opp_sum).max() < 1e-12


class TestEngineConsistency:
    def test_array_ops_bit_identical_to_tape(self, rng):
        """The untracked run of the one engine computes the tracked run's
        arrays bit for bit, for every variant."""
        batches = [
            [make_sample(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                         vals=list(rng.uniform(-2.0, 2.0, size=8)), id_offset=8 * k)
             for k in range(4)],
            [make_sample(1, 1, vals=[0.7, -1.3])],  # no same-side pairs at all
        ]
        fields = ("nodes", "messages", "matches", "fused", "user_repr", "item_repr", "scores")
        variants = all_variants()
        assert len(variants) == 25
        for variant, samples in itertools.product(variants, batches):
            mp = make_model(samples, seed=11, variant=variant)
            plan = build_plan(samples, mp)
            tracked = _forward(Tape(), plan, mp)
            plain = _forward(ArrayOps(), plan, mp)
            assert tracked.scores.node is not None
            for name in fields:
                assert np.array_equal(getattr(tracked, name).data, getattr(plain, name)), (variant, name)

    def test_batched_scores_match_predict(self, rng):
        samples = [
            make_sample(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            for _ in range(6)
        ]
        mp = init_model_params(universe_of(samples), 8, 9)
        batched = score_samples(samples, mp)
        for s, score in zip(samples, batched):
            assert abs(score - predict(s, mp).score) < 1e-12

    def test_full_forward_gradient_check(self):
        sample = make_sample(2, 2)
        mp = make_model(sample, dim=8, seed=17)
        plan = build_plan([sample], mp)

        def forward():
            tape = Tape()
            return tape.sum_reduce(_forward(tape, plan, mp).scores)

        assert gradient_check(forward, mp.parameters(), step=1e-5) < 1e-4

    def test_predict_fuses_each_node_as_fuse_alone(self, rng):
        """predict() fuses every node with the bits fuse() gives that node
        alone, for every variant with fuse=gru in graph and union mode, at
        d=8 and d=64, on sides of 1-7 nodes with signed values. Products on
        any kernel but the ops object's would change the bits."""
        variants = [v for v in all_variants() if v.fuse == "gru" and v.mode != "fm"]
        assert len(variants) == 8
        nodes = 0
        for variant, dim in itertools.product(variants, (8, 64)):
            mp = init_model_params(_USER_POOL + _ITEM_POOL, dim, seed=dim, variant=variant)
            for p in mp.parameters()[1:]:
                p.values[...] = rng.normal(scale=0.5, size=p.shape)  # biases too
            for sample in _plan_batch(rng, 8):
                sample = DataSample(sample.user_chars[:7], sample.item_chars[:7], sample.label)
                res = predict(sample, mp, variant)
                for node in res.user_nodes + res.item_nodes:
                    alone = fuse(node.representation, node.message, node.match, mp)
                    assert alone.tobytes() == node.fused.tobytes(), (variant, dim, node.att)
                    nodes += 1
        assert nodes > 1000


class TestVariantSpace:
    """Each configuration reads every array it allocates, and no two
    configurations compute the same model."""

    @staticmethod
    def _sized_batch():
        """One sample per side-size pair (p, q) in 2..5, signed values."""
        rng = np.random.default_rng(3)
        return [
            make_sample(p, q, vals=list(rng.uniform(-2.0, 2.0, size=p + q)), label=float(k % 2), id_offset=10 * k)
            for k, (p, q) in enumerate(itertools.product(range(2, 6), repeat=2))
        ]

    @staticmethod
    def _random_model(samples, variant):
        mp = make_model(samples, seed=5, variant=variant)
        rng = np.random.default_rng(9)
        for p in mp.parameters():
            p.values[...] = rng.normal(scale=0.5, size=p.shape)  # biases too
        return mp

    def test_every_parameter_is_read(self):
        samples = self._sized_batch()
        for variant in all_variants():
            mp = self._random_model(samples, variant)
            risk = regularized_risk(samples, mp, 0.0)
            risk.tape.backward(risk)
            for p in mp.parameters():
                assert np.any(p.grad != 0.0), (variant, p.name)

    def test_distinct_configurations_are_distinct_models(self):
        samples = self._sized_batch()
        seen = {}
        for variant in all_variants():
            scores = score_samples(samples, self._random_model(samples, variant), variant).tobytes()
            first = seen.setdefault(scores, variant)
            assert first == variant, (first, variant)


class TestBatchedFiniteDifferences:
    """ArrayOps with a parameter substituted by a stack of perturbed copies,
    as gradient_check's batched difference quotients use it."""

    def test_batched_value_fn_bit_identical_to_per_entry(self):
        """On criterion 1's instances every stack gradient_check passes to
        the batched value_fn gives, row for row, the bits of a 2-D run with
        that row alone. Every parameter array is covered; within an array
        every fifth row and the last one are re-run."""
        rows_checked = 0
        for seed in range(20):
            forward, mp, value = gradcheck_problem(8, seed)
            params = mp.parameters()
            calls = []

            def recording(p, stack):
                values = value(p, stack)
                calls.append((p, stack.copy(), np.broadcast_to(values, (len(stack),)).copy()))
                return values

            gradient_check(forward, params, 1e-5, value_fn=recording)
            assert {id(p) for p, _, _ in calls} == {id(p) for p in params}
            for p, stack, values in calls:
                for r in sorted({*range(0, len(stack), 5), len(stack) - 1}):
                    single = value(p, stack[r])
                    assert np.ndim(single) == 0
                    assert single == values[r], (seed, p.name, r)
                    rows_checked += 1
        assert rows_checked > 10000

    def test_batched_array_ops_match_row_loop_all_variants(self, rng):
        """For every variant on both matmul kernels, a (K, *shape) stack
        substituted for one parameter gives, in each output field, what a
        loop of 2-D runs over the stack rows gives, within 1e-12 relative."""
        samples = [
            make_sample(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                        vals=list(rng.uniform(-2.0, 2.0, size=8)), id_offset=8 * k)
            for k in range(3)
        ]
        fields = ("nodes", "messages", "matches", "fused", "user_repr", "item_repr", "scores")
        checked = set()
        for variant, ops in itertools.product(all_variants(), (ArrayOps, RowLocalOps)):
            mp = make_model(samples, seed=11, variant=variant)
            plan = build_plan(samples, mp)
            for name in ("emb", "inner_mlp.w_in", "gru.b_update", "fuse_mlp.w_in"):
                owner, _, attr = name.rpartition(".")
                part = getattr(mp, owner) if owner else mp
                if part is None:
                    continue
                p = getattr(part, attr)
                stack = p.values + rng.normal(scale=0.1, size=(3,) + p.shape)
                batched = _forward(ops({p: stack}), plan, mp)
                for r in range(len(stack)):
                    single = _forward(ops({p: stack[r]}), plan, mp)
                    for field in fields:
                        expected = getattr(single, field)
                        got = np.broadcast_to(getattr(batched, field), (len(stack),) + expected.shape)[r]
                        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0,
                                                   err_msg=f"{variant} {ops.__name__} {name} {field}")
                checked.add(name)
        assert checked == {"emb", "inner_mlp.w_in", "gru.b_update", "fuse_mlp.w_in"}

    @pytest.mark.parametrize("batched", [True, False])
    def test_check_restores_parameters_bit_for_bit(self, batched):
        """After a check every parameter holds the same array object with the
        same bits, and the embedding parameter is still a view of the table."""
        forward, mp, value = gradcheck_problem(4, 3)
        params = mp.parameters()
        arrays = [p.values for p in params]
        before = [p.values.tobytes() for p in params]
        worst = gradient_check(forward, params, 1e-5, value_fn=value if batched else None)
        assert worst < 1e-4
        assert all(p.values is a for p, a in zip(params, arrays))
        assert [p.values.tobytes() for p in params] == before
        assert np.shares_memory(mp.emb.values, mp.table.matrix)


class TestNodeLevelMessagePassing:
    """The engine evaluates the pair MLPs per node (first layer split into the
    halves of w_in, output layer after the neighbour sum). Its messages and
    matches must agree with the per-pair spec on batches that mix side
    sizes, for every variant with a pair MLP and both matmul kernels."""

    @staticmethod
    def _mixed_batch(rng, n_samples=12):
        return [
            make_sample(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                        vals=list(rng.uniform(-2.0, 2.0, size=16)), id_offset=16 * k)
            for k in range(n_samples)
        ]

    @staticmethod
    def _close(got, want):
        """Within 1e-12 of the largest entry of the spec's vector."""
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, (got, want)

    def test_matches_per_pair_spec(self, rng):
        samples = self._mixed_batch(rng)
        sizes = {n for s in samples for n in (len(s.user_chars), len(s.item_chars))}
        assert 1 in sizes and len(sizes) >= 5
        variants = [v for v in all_variants() if v.mode == "graph"
                    and (v.inner == "mlp" or v.cross in ("mlp_shared", "mlp_separate"))]
        assert len(variants) == 15
        for variant, ops in itertools.product(variants, (ArrayOps(), RowLocalOps())):
            mp = make_model(samples, seed=5, variant=variant)
            for mlp in (mp.inner_mlp, mp.cross_mlp):
                for p in (mlp.parameters() if mlp is not None else []):
                    # Non-zero biases, and a cross MLP that differs from the inner one.
                    p.values[...] = rng.normal(scale=0.5, size=p.shape)
            plan = build_plan(samples, mp)
            out = _forward(ops, plan, mp)
            messages = out.messages if plan.node_src is None else out.messages[plan.node_src]  # sample rows
            cross = mp.inner_mlp if variant.cross == "mlp_shared" else mp.cross_mlp
            base = 0
            for sample in samples:  # make_sample's ids ascend, so nodes are in input order
                user, item = ([c.val * mp.table.vector(c.att) for c in chars]
                              for chars in (sample.user_chars, sample.item_chars))
                for side, opposite in ((user, item), (item, user)):
                    rows = range(base, base + len(side))
                    base += len(side)
                    assert np.array_equal(out.nodes[list(rows)], np.array(side))
                    for i, (row, u) in enumerate(zip(rows, side)):
                        if variant.inner == "mlp":
                            if len(side) == 1:
                                assert np.array_equal(messages[row], np.zeros(8))
                            else:
                                self._close(messages[row], sum(pair_message_oracle(u, v, mp.inner_mlp)
                                                               for j, v in enumerate(side) if j != i))
                        if variant.cross in ("mlp_shared", "mlp_separate"):
                            self._close(out.matches[row], sum(pair_message_oracle(u, v, cross) for v in opposite))
            assert base == plan.n_nodes

    def test_pairs_match_per_pair_plan(self, rng):
        """pair_a lists the first node of every ordered same-side pair,
        grouped by target node in ascending order, for either pair model."""
        samples = self._mixed_batch(rng)
        expected, base = [], 0
        for s in samples:
            for count in (len(s.user_chars), len(s.item_chars)):
                expected += [base + i for i in range(count) for j in range(count) if i != j]
                base += count
        for variant in (CANONICAL, VariantConfig(inner="bi")):
            assert build_plan(samples, make_model(samples, variant=variant)).pair_a.tolist() == expected

    def test_elementwise_messages_within_rounding_of_pair_loop(self, rng):
        """inner=bi computes z_i = u_i * (side sum - u_i). Against a loop that
        adds u_i * u_j over the other nodes j in ascending order, every
        element is within 8 eps |u_i| * (sum over the side of |u_j|), on
        signed values with side sizes 1-8, on both matmul kernels; a
        single-node side gets exactly 0."""
        variant = VariantConfig(inner="bi")
        mp = init_model_params(_USER_POOL + _ITEM_POOL, 8, seed=3, variant=variant)
        eps = np.finfo(np.float64).eps
        sizes = set()
        for ops in (ArrayOps(), RowLocalOps()) * 10:
            plan = build_plan(_plan_batch(rng, 64), mp)
            out = _forward(ops, plan, mp)
            u = out.nodes
            z = out.messages if plan.node_src is None else out.messages[plan.node_src]  # sample rows
            for first, size in zip(plan.by_side.starts, np.diff(np.append(plan.by_side.starts, plan.n_nodes))):
                side = u[first:first + size]
                sizes.add(int(size))
                for i in range(size):
                    z_pair = np.zeros(u.shape[1])
                    for j in range(size):
                        if j != i:
                            z_pair = z_pair + side[i] * side[j]
                    bound = 8 * eps * np.abs(side[i]) * np.abs(side).sum(axis=0)
                    assert np.all(np.abs(z[first + i] - z_pair) <= bound), (size, i)
                if size == 1:
                    assert not z[first].any()
        assert sizes == set(range(1, 9))


# Ids with gaps, user ids below and above item ids, so ascending-id order
# differs from pool order and the id lookup has holes to miss.
_USER_POOL = [AttributeId(id_, USER) for id_ in (3, 5, 6, 11, 13, 17, 40, 41, 57, 90)]
_ITEM_POOL = [AttributeId(id_, ITEM) for id_ in (1, 8, 9, 20, 22, 23, 31, 60, 70, 99)]
_PLAN_KEY = lambda v: (v.inner, v.cross in ("mlp_shared", "mlp_separate"))


def _plan_batch(rng, n_samples):
    """Side sizes 1-8, attributes in shuffled order, about a fifth of the
    samples repeats of earlier ones (the same object)."""
    samples = []
    while len(samples) < n_samples:
        if samples and rng.random() < 0.2:
            samples.append(samples[int(rng.integers(len(samples)))])
            continue
        sides = []
        for pool in (_USER_POOL, _ITEM_POOL):
            picks = rng.permutation(len(pool))[: int(rng.integers(1, 9))]
            sides.append([AttributeValuePair(pool[k], float(rng.uniform(-2.0, 2.0))) for k in picks])
        samples.append(DataSample(sides[0], sides[1], float(rng.integers(0, 2))))
    return samples


# A d=4 model of every variant over the pools.
_MODELS = {variant: init_model_params(_USER_POOL + _ITEM_POOL, 4, seed=5, variant=variant) for variant in all_variants()}


def _shuffled_table(order):
    """A table whose rows are not in ascending id order."""
    ids = tuple((_USER_POOL + _ITEM_POOL)[k] for k in order)
    return EmbeddingTable(dim=4, ids=ids, matrix=np.zeros((len(ids), 4)))


def assert_plan_matches_oracle(plan, ref, where=""):
    def same(got, want, name):
        assert got.dtype == want.dtype and got.shape == want.shape, (where, name, got.dtype, got.shape, want.shape)
        assert np.array_equal(got, want), (where, name)

    assert plan.n_nodes == ref["n_nodes"], where
    same(plan_side_map(plan), ref["side_map"], "side_map")
    for name in ("attr_rows", "vals", "opp_seg", "user_seg", "item_seg", "pair_a", "input_pos"):
        same(getattr(plan, name), ref[name], name)
    assert (plan.node_src is None) == (ref["node_src"] is None), where
    if plan.node_src is not None:
        same(plan.node_src, ref["node_src"], "node_src")
    for name in ("by_distinct", "by_side", "by_sample"):
        seg, want = getattr(plan, name), ref[name]
        for field, array in zip(("ids", "starts", "out_rows"), want):
            same(getattr(seg, field), array, f"{name}.{field}")
        assert seg.n == want[3], (where, name)
    for name in ("same_side", "cross_side"):
        got, want = getattr(plan, name), ref[name]
        assert (got is None) == (want is None), (where, name)
        if got is not None:
            assert len(got.blocks) == len(want[0]), (where, name)
            for k, (block, ref_block) in enumerate(zip(got.blocks, want[0])):
                for field, array in zip(PairBlock._fields, ref_block):
                    same(getattr(block, field), array, f"{name}.blocks[{k}].{field}")
            same(got.counts, want[1], f"{name}.counts")


class TestVectorisedPlan:
    """build_plan's index arithmetic gives, array for array, the plan of
    the per-sample loop builder in oracles.plan_oracle."""

    def test_matches_loop_builder_all_variants(self, rng):
        variants = all_variants()
        assert len(variants) == 25
        ascending = init_embeddings(_USER_POOL + _ITEM_POOL, 4, seed=0)
        batches = [
            ("empty", [], ascending),
            ("one 1x1", [make_sample(1, 1)], init_embeddings(universe_of([make_sample(1, 1)]), 4, seed=0)),
            ("one 8x8", _plan_batch(rng, 1), ascending),
            ("64", _plan_batch(rng, 64), ascending),
            ("64 shuffled table", _plan_batch(rng, 64), _shuffled_table(rng.permutation(20))),
            ("300", _plan_batch(rng, 300), _shuffled_table(rng.permutation(20))),
            ("2000", _plan_batch(rng, 2000), ascending),
        ]
        sizes = {len(chars) for _, samples, _ in batches for s in samples for chars in (s.user_chars, s.item_chars)}
        assert sizes == set(range(1, 9))
        for where, samples, table in batches:
            refs = {}
            for variant in variants:
                key = _PLAN_KEY(variant)
                if key not in refs:
                    refs[key] = plan_oracle(samples, table, variant)
                assert_plan_matches_oracle(build_plan(samples, table_model(table, variant)), refs[key], (where, variant))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_batches_match_loop_builder(self, data):
        def side(pool):
            return st.lists(st.tuples(st.sampled_from(pool), st.floats(-4.0, 4.0)),
                            min_size=1, max_size=8, unique_by=lambda t: t[0].id)

        sample = st.builds(
            lambda u, i, y: DataSample([AttributeValuePair(*t) for t in u], [AttributeValuePair(*t) for t in i], y),
            side(_USER_POOL), side(_ITEM_POOL), st.sampled_from([0.0, 1.0]),
        )
        samples = data.draw(st.lists(sample, max_size=10))
        if samples:
            samples += data.draw(st.lists(st.sampled_from(samples), max_size=4))
            samples = data.draw(st.permutations(samples))
        table = _shuffled_table(data.draw(st.permutations(range(20))))
        variant = data.draw(st.sampled_from(all_variants()))
        assert_plan_matches_oracle(build_plan(samples, table_model(table, variant)), plan_oracle(samples, table, variant))

    def test_same_side_blocks_only_for_the_pair_mlp(self, rng):
        """Only inner=mlp reads the same-side pair blocks, so only its plans
        build them."""
        samples = _plan_batch(rng, 16)
        table = init_embeddings(_USER_POOL + _ITEM_POOL, 4, seed=0)
        for variant in all_variants():
            plan = build_plan(samples, table_model(table, variant))
            assert (plan.same_side is not None) == (variant.mode == "graph" and variant.inner == "mlp"), variant

    def test_predict_maps_nodes_back_to_input_order(self, rng):
        """Diagnostics come back in each side's input order whatever the
        internal id order."""
        sample = _plan_batch(rng, 1)[0]
        mp = init_model_params(_USER_POOL + _ITEM_POOL, 4, seed=2)
        res = predict(sample, mp)
        for chars, nodes in ((sample.user_chars, res.user_nodes), (sample.item_chars, res.item_nodes)):
            assert [n.att for n in nodes] == [c.att for c in chars]
            for c, n in zip(chars, nodes):
                assert np.array_equal(n.representation, c.val * mp.table.vector(c.att))


class TestSampleIndex:
    """A plan cut from a SampleIndex, as train() cuts each step's plan from
    the index of its training samples, is the plan of the batch, whatever
    samples of the indexed sides the batch holds."""

    VARIANTS = (CANONICAL, VariantConfig(inner="bi"), VariantConfig(inner="bi", cross="mlp_separate"),
                VariantConfig(mode="union"), VariantConfig(mode="fm"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_index_plans_match_loop_builder(self, data):
        """Batches of new samples built from the sides of an indexed list,
        mixed with repeats of the list's own samples, where the list's
        samples share side tuples and include single-node sides: every field
        equals that of oracles.plan_oracle on the batch; and a sample with
        an unknown attribute is still a MissingEmbeddingError naming its id."""
        def sides(pool):
            side = st.lists(st.tuples(st.sampled_from(pool), st.floats(-4.0, 4.0)),
                            min_size=1, max_size=8, unique_by=lambda t: t[0].id)
            chars = side.map(lambda pairs: tuple(AttributeValuePair(*t) for t in pairs))
            return st.lists(chars, min_size=1, max_size=6)

        users = data.draw(sides(_USER_POOL)) + [(AttributeValuePair(_USER_POOL[0], 1.5),)]
        items = data.draw(sides(_ITEM_POOL)) + [(AttributeValuePair(_ITEM_POOL[0], -0.5),)]
        triples = st.tuples(st.sampled_from(users), st.sampled_from(items), st.sampled_from([0.0, 1.0]))
        samples = [DataSample(*t) for t in data.draw(st.lists(triples, min_size=1, max_size=20))]
        table = _shuffled_table(data.draw(st.permutations(range(20))))
        index = index_samples(samples, table)
        indexed = st.tuples(st.sampled_from([s.user_chars for s in samples]),
                            st.sampled_from([s.item_chars for s in samples]), st.sampled_from([0.0, 1.0]))
        batch = [DataSample(*t) for t in data.draw(st.lists(indexed, min_size=1, max_size=30))]
        batch = data.draw(st.permutations(batch + data.draw(st.lists(st.sampled_from(samples), max_size=10))))
        for variant in self.VARIANTS:
            plan = build_plan(batch, table_model(table, variant), index=index)
            assert_plan_matches_oracle(plan, plan_oracle(batch, table, variant), variant)

        known = {a.id for a in _USER_POOL + _ITEM_POOL}
        unknown = data.draw(st.integers(0, 120).filter(lambda i: i not in known))
        bad = DataSample(users[0] + (AttributeValuePair(AttributeId(unknown, USER), 1.0),), items[0], 0.0)
        with pytest.raises(MissingEmbeddingError, match=rf"attribute id {unknown}$"):
            build_plan(batch + [bad], table_model(table))


def _side(pool_ids, vals, side):
    return tuple(AttributeValuePair(AttributeId(i, side), float(v)) for i, v in zip(pool_ids, vals))


class TestDistinctSides:
    """build_plan finds the batch's distinct sides (sides that are the same
    tuple object), and _forward runs the per-side stages once per distinct
    side and gathers to sample rows."""

    def test_distinct_side_map_matches_loop_builder(self):
        x = 0.7
        user = _side((3, 5, 11), (1.0, -0.5, 2.0), USER)
        item_a, item_b = _side((1, 9), (1.0, 1.0), ITEM), _side((8,), (x,), ITEM)
        shuffled = (user[2], user[0], user[1])
        cases = [
            ("no repeat", [DataSample(user, item_a, 1.0), DataSample(_side((3,), (1.0,), USER), item_b, 0.0)],
             [0, 1, 2, 3]),
            ("repeated samples", [DataSample(user, item_a, 1.0), DataSample(user, item_b, 0.0),
                                  DataSample(user, item_a, 0.0)], [0, 1, 0, 2, 0, 1]),
            ("shuffled attributes", [DataSample(user, item_a, 1.0), DataSample(shuffled, item_b, 0.0)], [0, 1, 2, 3]),
            ("last bit", [DataSample(user, item_b, 1.0),
                          DataSample(user, _side((8,), (np.nextafter(x, 1.0),), ITEM), 0.0)], [0, 1, 0, 2]),
            ("sign of zero", [DataSample(user, _side((8,), (0.0,), ITEM), 1.0),
                              DataSample(user, _side((8,), (-0.0,), ITEM), 0.0)], [0, 1, 0, 2]),
        ]
        table = init_embeddings(_USER_POOL + _ITEM_POOL, 4, seed=0)
        for where, samples, side_map in cases:
            for variant in all_variants():
                plan = build_plan(samples, table_model(table, variant))
                assert plan_side_map(plan).tolist() == side_map, where
                assert (plan.node_src is None) == (max(side_map) == 3), where
                assert_plan_matches_oracle(plan, plan_oracle(samples, table, variant), (where, variant))

    def test_equal_sides_as_separate_tuples_get_their_own_side_nodes(self, rng):
        """The same batch with every side rebuilt as a new, value-equal tuple:
        each side is then distinct, with its own side nodes, and for every
        variant the row-local scores equal those of the shared tuples bit
        for bit."""
        shared = _plan_batch(rng, 64)
        shared += [DataSample(shared[0].user_chars, s.item_chars, 0.0) for s in shared[1:20]]
        apart = [DataSample(list(s.user_chars), list(s.item_chars), s.label) for s in shared]
        for variant in all_variants():
            mp = init_model_params(_USER_POOL + _ITEM_POOL, 8, seed=4, variant=variant)
            one, own = build_plan(shared, mp), build_plan(apart, mp)
            assert one.node_src is not None and one.by_distinct.n < 2 * len(shared)
            assert own.node_src is None and plan_side_map(own).tolist() == list(range(2 * len(apart)))
            assert np.array_equal(own.attr_rows, one.attr_rows[one.node_src])
            assert own.vals.tobytes() == one.vals[one.node_src].tobytes()
            want = _forward(RowLocalOps(), one, mp).scores
            assert np.array_equal(_forward(RowLocalOps(), own, mp).scores, want), variant

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_parsed_data_loses_no_reuse(self, data):
        """On batches drawn from a parsed synthetic dataset, and on a rank
        request of one user against the item pool, the sides that are one
        tuple are exactly the sides with equal id-sorted rows and value bytes."""
        samples = parse_dataset_lines(generate_synthetic(draw_synth_spec(data))[0].splitlines()).samples
        table = init_embeddings(universe_of(samples), 4, seed=0)
        picks = data.draw(st.lists(st.integers(0, len(samples) - 1), min_size=1, max_size=128))
        user = samples[picks[0]].user_chars
        for batch in ([samples[k] for k in picks], [DataSample(user, item, 0.0) for item in item_pool_of(samples)]):
            plan = build_plan(batch, table_model(table))
            assert np.array_equal(plan_side_map(plan), value_side_map(batch, table))

    def test_each_distinct_side_is_looked_up_once(self, monkeypatch):
        """build_plan searches the embedding rows of each distinct side's ids
        once, however many samples hold the side: on a rank request of one
        user against 300 items, a shuffled 64-sample batch and a whole
        parsed dataset."""
        lines = generate_synthetic(SynthSpec(users=60, items=300, samples=3000, seed=11))[0].splitlines()
        samples = parse_dataset_lines(lines).samples
        table = init_embeddings(universe_of(samples), 4, seed=0)
        pool = item_pool_of(samples)
        assert len(pool) == 300
        batches = {
            "rank": [DataSample(samples[0].user_chars, item, 0.0) for item in pool],
            "batch": [samples[k] for k in np.random.default_rng(1).permutation(len(samples))[:64]],
            "dataset": samples,
        }
        looked_up, rows = [], EmbeddingTable.rows

        def recorded(table, ids):
            looked_up.append(ids.tolist())
            return rows(table, ids)

        monkeypatch.setattr(EmbeddingTable, "rows", recorded)
        for where, batch in batches.items():
            distinct = {id(chars): chars for s in batch for chars in (s.user_chars, s.item_chars)}.values()
            for variant in (CANONICAL, VariantConfig(inner="bi", cross="mlp_separate", fuse="mlp")):
                looked_up.clear()
                plan = build_plan(batch, table_model(table, variant))
                assert len(looked_up) == 1, where
                assert sorted(looked_up[0]) == sorted(p.att.id for chars in distinct for p in chars), where
                assert plan.node_src is not None and len(plan.attr_rows) < plan.n_nodes, where

    @staticmethod
    def _repeated_batch(rng):
        """One user against ten items, as a rank request, then a mixed batch
        with repeated samples."""
        user = _plan_batch(rng, 1)[0].user_chars
        items = [s.item_chars for s in _plan_batch(rng, 10)]
        return [DataSample(user, item, 0.0) for item in items] + _plan_batch(rng, 30)

    def test_scores_match_each_sample_alone(self, rng):
        """score_samples on a batch with repeated sides is within 1e-12
        relative of scoring each sample on its own, for every variant."""
        samples = self._repeated_batch(rng)
        for variant in all_variants():
            mp = init_model_params(_USER_POOL + _ITEM_POOL, 8, seed=4, variant=variant)
            plan = build_plan(samples, mp)
            assert plan.node_src is not None and len(plan.attr_rows) < plan.n_nodes
            batched = score_samples(samples, mp, variant)
            alone = np.array([score_samples([s], mp, variant)[0] for s in samples])
            np.testing.assert_allclose(batched, alone, rtol=1e-12, atol=0, err_msg=str(variant))

    def test_tape_gradients_are_the_sum_of_per_sample_tapes(self, rng):
        """The Tape gradients of the summed scores of a batch with repeated
        sides equal the sum of each sample's own tape gradients, within
        1e-12 of each array's largest entry, for every variant."""
        samples = self._repeated_batch(rng)
        for variant in all_variants():
            mp = init_model_params(_USER_POOL + _ITEM_POOL, 8, seed=4, variant=variant)
            params = mp.parameters()

            def gradients(batch):
                for p in params:
                    p.zero_grad()
                tape = Tape()
                out = _forward(tape, build_plan(batch, mp), mp)
                tape.backward(tape.sum_reduce(out.scores))
                return [p.grad.copy() for p in params]

            batched = gradients(samples)
            summed = [sum(gs) for gs in zip(*(gradients([s]) for s in samples))]
            for p, got, want in zip(params, batched, summed):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (variant, p.name)


class TestScoringBudget:
    """score_samples cuts its list into chunks of whole samples by a budget
    of sample-node elements; the chunks change no bit of any score."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_chunks_fit_the_budget_and_keep_the_bits(self, data):
        """Under a budget drawn up to the list's size, the scores of every
        variant have the bytes of one forward over the whole list; the
        chunks are consecutive runs of whole samples that cover it in order,
        as few as fit, each within the budget unless it is one sample; and
        the list is indexed once, whatever the number of chunks."""
        samples = _plan_batch(np.random.default_rng(data.draw(st.integers(0, 2**16))), data.draw(st.integers(1, 40)))
        elems = [4 * (len(s.user_chars) + len(s.item_chars)) for s in samples]
        budget = data.draw(st.integers(1, sum(elems) + 4))
        fewest, room = 0, 0
        for e in elems:  # greedy packing: the fewest runs for a budget
            fewest, room = (fewest, room - e) if e <= room else (fewest + 1, budget - e)
        chunks, indexed, original, original_index = [], [], model.build_plan, model.index_samples

        def recorded(batch, *args, **kwargs):
            chunks.append(batch)
            return original(batch, *args, **kwargs)

        def recorded_index(batch, *args, **kwargs):
            indexed.append(batch)
            return original_index(batch, *args, **kwargs)

        for variant, mp in _MODELS.items():
            whole = _forward(ArrayOps(), build_plan(samples, mp), mp).scores
            chunks.clear()
            indexed.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "SCORE_BATCH", budget)
                patch.setattr(model, "build_plan", recorded)
                patch.setattr(model, "index_samples", recorded_index)
                got = score_samples(samples, mp)
            assert got.tobytes() == whole.tobytes(), variant
            assert len(indexed) == 1 and indexed[0] is samples, variant
            assert [s for chunk in chunks for s in chunk] == samples and len(chunks) == fewest
            for chunk in chunks:
                assert len(chunk) == 1 or sum(4 * (len(s.user_chars) + len(s.item_chars)) for s in chunk) <= budget

    def test_validation_splits_run_in_balanced_chunks(self):
        """The default budget keeps a 300-item rank request at d=64 (96 000
        elements) one forward, and splits 2000 five-node samples at d=16
        into two forwards of 1000."""
        assert model._score_chunks(np.full(300, 5 * 64), model.SCORE_BATCH) == [0, 300]
        assert model._score_chunks(np.full(2000, 5 * 16), model.SCORE_BATCH) == [0, 1000, 2000]
        assert model._score_chunks(np.array([10, 500, 10, 10]), 100) == [0, 1, 2, 4]

    def test_large_sides_score_in_bounded_memory(self):
        """In a fresh process, scoring 512 samples with 32-attribute sides at
        d=64 (4.2M sample-node elements, about 260 MB of peak growth as one
        forward) grows the peak resident set by less than 64 MB. BLAS runs
        one thread, so its buffers do not depend on the core count."""
        script = """if True:
            import resource
            import numpy as np
            from gmrec.data import ITEM, USER, AttributeId, AttributeValuePair, DataSample, universe_of
            from gmrec.model import init_model_params, score_samples

            rng = np.random.default_rng(0)

            def side(base, kind):
                ids = base + rng.permutation(96)[:32]
                return tuple(AttributeValuePair(AttributeId(int(i), kind), float(v))
                             for i, v in zip(ids, rng.uniform(-1.0, 1.0, 32)))

            samples = [DataSample(side(0, USER), side(96, ITEM), 0.0) for _ in range(512)]
            mp = init_model_params(universe_of(samples), 64, 0)
            score_samples(samples[:1], mp)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert np.all(np.isfinite(score_samples(samples, mp)))
            print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
        """
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 64.0


class TestIndexOfSides:
    """A SampleIndex holds the distinct sides of a list over one table: it
    plans any batch whose sides it holds, as the very objects, and
    build_plan refuses a batch with a side it does not hold and an index
    over another table than the model's."""

    def _setup(self):
        text, _ = generate_synthetic(SynthSpec(users=5, items=4, samples=20, seed=1))
        samples = parse_dataset_lines(text.splitlines()).samples
        return samples[:10], samples[10:], init_model_params(universe_of(samples), 4, 0)

    def test_new_sample_of_indexed_sides_plans_as_alone(self):
        """On an index over a catalogue, a new DataSample pairing a user side
        and an item side of the catalogue, as a sample of it or not, gets
        the plan of oracles.plan_oracle and the score and risk bits it gets
        without an index."""
        text, _ = generate_synthetic(SynthSpec(users=8, items=6, samples=80, seed=5))
        catalogue = parse_dataset_lines(text.splitlines()).samples
        users = list({id(s.user_chars): s.user_chars for s in catalogue}.values())
        items = list({id(s.item_chars): s.item_chars for s in catalogue}.values())
        for variant in (CANONICAL, VariantConfig(inner="bi", cross="mlp_separate", fuse="mlp")):
            mp = init_model_params(universe_of(catalogue), 4, 0, variant)
            index = index_samples(catalogue, mp.table)
            for user, item in itertools.product(users[:3], items):
                sample = DataSample(user, item, 1.0)
                plan, alone = build_plan([sample], mp, index=index), build_plan([sample], mp)
                assert_plan_matches_oracle(plan, plan_oracle([sample], mp.table, variant), variant)
                scores = [_forward(ArrayOps(), p, mp).scores.tobytes() for p in (plan, alone)]
                assert scores[0] == scores[1]
                risk = regularized_risk([sample], mp, 0.1, index=index)
                assert float(risk.data) == float(regularized_risk([sample], mp, 0.1).data)

    def test_side_missing_from_the_index_rejected(self):
        """A batch with a side that the index does not hold, through
        build_plan and regularized_risk, is a ContractError: an index of the
        list without one of the batch's users, and of its first sample alone."""
        a, b, mp = self._setup()
        user = a[0].user_chars
        for other in ([s for s in a + b if s.user_chars is not user], a[:1]):
            index = index_samples(other, mp.table)
            with pytest.raises(ContractError, match="not in the index"):
                build_plan(a, mp, index=index)
            with pytest.raises(ContractError, match="not in the index"):
                regularized_risk(a, mp, 0.1, index=index)

    def test_equal_side_of_another_object_rejected(self):
        """Sides are the same exactly when they are one object: a sample whose
        user side equals an indexed side but is a new tuple is not in the
        index, whether the new side is a Side or a plain tuple."""
        a, _, mp = self._setup()
        index = index_samples(a, mp.table)
        for twin in (Side(list(a[0].user_chars)), tuple(list(a[0].user_chars))):
            assert twin == a[0].user_chars and twin is not a[0].user_chars
            for batch in ([DataSample(twin, a[0].item_chars, 1.0)], [*a[1:], DataSample(twin, a[0].item_chars, 1.0)]):
                with pytest.raises(ContractError, match="not in the index"):
                    build_plan(batch, mp, index=index)

    def test_superset_index_gives_the_batchs_own_risk(self):
        """An index over a list that holds the batch's sides, the list itself,
        a larger list, or a copy of it in another order, gives the batch's
        own risk and gradient bits, and so does a batch out of list order."""
        a, b, mp = self._setup()
        params = mp.parameters()

        def risk_and_grads(batch, **kwargs):
            for p in params:
                p.zero_grad()
            risk = regularized_risk(batch, mp, 0.1, **kwargs)
            risk.tape.backward(risk)
            return [float(risk.data)] + [p.grad.tobytes() for p in params]

        for batch in (a, a[::-1], a[3:7] + a[:2]):
            want = risk_and_grads(batch)
            for listed in (a, a + b, (b + a)[::-1]):
                assert risk_and_grads(batch, index=index_samples(listed, mp.table)) == want

    def test_index_over_another_table_rejected(self):
        """An index over a table with the model's ids in reversed row order
        is a ContractError, not the forward of another model's rows."""
        text, _ = generate_synthetic(SynthSpec(users=8, items=6, samples=80, seed=5))
        samples = parse_dataset_lines(text.splitlines()).samples
        mp = init_model_params(universe_of(samples), 4, 0)
        other = EmbeddingTable(dim=4, ids=mp.table.ids[::-1], matrix=mp.table.matrix[::-1].copy())
        batch = samples[:10]
        for table in (other, init_model_params(universe_of(samples), 4, 0).table):
            with pytest.raises(ContractError, match="another table"):
                regularized_risk(batch, mp, 0.0, index=index_samples(batch, table))
        risk = regularized_risk(batch, mp, 0.0, index=index_samples(batch, mp.table))
        assert float(risk.data) == float(regularized_risk(batch, mp, 0.0).data)

    def test_arguments_after_the_variant_are_keyword_only(self):
        """A variant passed where the old signatures took it is a TypeError,
        not an index or cutoffs bound to the wrong parameter; so is a picks
        keyword, which build_plan and regularized_risk do not take."""
        a, _, mp = self._setup()
        index = index_samples(a, mp.table)
        calls = (lambda: score_samples(a, mp, CANONICAL, index), lambda: score_dataset(a, mp, CANONICAL),
                 lambda: evaluate_model(a, mp, CANONICAL), lambda: regularized_risk(a, mp, 0.1, CANONICAL),
                 lambda: build_plan(a, mp, index=index, picks=np.arange(10)),
                 lambda: regularized_risk(a, mp, 0.1, index=index, picks=np.arange(10)))
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestPlanOfItsModel:
    """A plan belongs to the variant of the model it was built from: _forward
    refuses a model of any other variant, on every ops object, before it
    computes or records anything."""

    @pytest.mark.parametrize("variant", all_variants(), ids=format_variant)
    def test_plan_runs_only_with_its_variant(self, variant):
        samples = _plan_batch(np.random.default_rng(1), 8)
        plan = build_plan(samples, _MODELS[variant])
        assert plan.variant == variant
        assert np.all(np.isfinite(_forward(ArrayOps(), plan, _MODELS[variant]).scores))
        for other, mp in _MODELS.items():
            if other == variant:
                continue
            for ops in (ArrayOps(), RowLocalOps(), Tape()):
                with pytest.raises(ContractError) as caught:
                    _forward(ops, plan, mp)
                assert f"plan is of {format_variant(variant)!r}, the model of {format_variant(other)!r}" in str(caught.value)
                if isinstance(ops, Tape):
                    assert not ops.nodes

    def test_inner_bi_plan_on_a_canonical_model(self):
        """The plan of inner=bi has no same-side pair blocks, which the
        canonical model's inner MLP reads."""
        mp = _MODELS[CANONICAL]
        plan = build_plan(_plan_batch(np.random.default_rng(2), 8), table_model(mp.table, VariantConfig(inner="bi")))
        assert plan.same_side is None
        tape = Tape()
        with pytest.raises(ContractError, match="the model of 'inner=mlp,cross=bi,fuse=gru'"):
            _forward(tape, plan, mp)
        assert not tape.nodes


class TestUnknownAttributes:
    """An id the table lacks, below, between or above its ids, on either
    side, is a MissingEmbeddingError naming the id at every entry point."""

    @pytest.mark.parametrize("side, unknown", [(USER, 0), (USER, 4), (USER, 200), (ITEM, 2), (ITEM, 21), (ITEM, 100)])
    def test_entry_points_reject(self, side, unknown):
        mp = init_model_params(_USER_POOL + _ITEM_POOL, 4, seed=1)
        good = DataSample([AttributeValuePair(_USER_POOL[0], 1.0), AttributeValuePair(_USER_POOL[3], 0.5)],
                          [AttributeValuePair(_ITEM_POOL[2], 2.0)], 1.0)
        extra = AttributeValuePair(AttributeId(unknown, side), 1.0)
        if side == USER:
            bad = DataSample(good.user_chars + (extra,), good.item_chars, 0.0)
        else:
            bad = DataSample(good.user_chars, (extra,) + good.item_chars, 0.0)
        match = rf"attribute id {unknown}$"
        for variant in (CANONICAL, VariantConfig(inner="bi", cross="mlp_separate"), VariantConfig(mode="fm")):
            with pytest.raises(MissingEmbeddingError, match=match):
                build_plan([good, bad], table_model(mp.table, variant))
        with pytest.raises(MissingEmbeddingError, match=match):
            score_samples([good, good, bad], mp)
        with pytest.raises(MissingEmbeddingError, match=match):
            predict(bad, mp)
        with pytest.raises(MissingEmbeddingError, match=match):
            regularized_risk([bad, good], mp, 0.1)
