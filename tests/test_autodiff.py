import gc
import weakref

import numpy as np
import pytest

from gmrec import autodiff
from gmrec.autodiff import (
    Parameter,
    Tape,
    gradient_check,
    stable_sigmoid,
)
from gmrec.data import universe_of
from gmrec.errors import ContractError, NumericError, ShapeError
from gmrec.model import _cross_side, _same_side, init_model_params
from gmrec.training import regularized_risk

from conftest import all_variants, make_sample
from oracles import finite_difference


class TestRecordedPrimitives:
    def test_elementwise_product(self):
        tape = Tape()
        out = tape.mul(tape.constant([1.0, 2.0]), tape.constant([3.0, 4.0]))
        assert np.array_equal(out.data, [3.0, 8.0])

    def test_sigmoid_at_zero(self):
        tape = Tape()
        assert float(tape.sigmoid(tape.constant(np.zeros(1))).data[0]) == 0.5

    def test_dot_orthogonal(self):
        tape = Tape()
        assert float(tape.rowdot(tape.constant([[1.0, 0.0]]), tape.constant([[0.0, 1.0]])).data[0]) == 0.0

    def test_every_listed_primitive_is_recordable(self, rng):
        """Each primitive of PRIMITIVE_CASES, applied to tracked inputs,
        appends exactly one node to the tape and gives finite values."""
        for name, apply, arity, shapes in PRIMITIVE_CASES:
            shapes = [shapes] * arity if isinstance(shapes, tuple) else shapes
            tape = Tape()
            args = [tape.param(Parameter(rng.uniform(0.5, 1.5, size=s))) for s in shapes]
            leaves = len(tape.nodes)
            out = apply(tape, *args)
            assert out.node is tape.nodes[-1] and len(tape.nodes) == leaves + 1, name
            assert np.all(np.isfinite(out.data)), name

    def test_shape_error_names_primitive(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="matmul"):
            tape.matmul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="elementwise-product"):
            tape.mul(tape.constant(np.ones(2)), tape.constant(np.ones(3)))
        with pytest.raises(ShapeError, match="add"):
            tape.add(tape.constant(np.ones(2)), tape.constant(np.ones(3)))


class TestBackward:
    def test_dot_self_gradient(self):
        p = Parameter([[1.0, 2.0]])
        tape = Tape()
        v = tape.param(p)
        out = tape.sum_reduce(tape.rowdot(v, v))
        tape.backward(out)
        assert np.array_equal(p.grad, [[2.0, 4.0]])

    def test_sigmoid_gradient_at_zero(self):
        p = Parameter(np.zeros(()))
        tape = Tape()
        s = tape.sigmoid(tape.param(p))
        tape.backward(s)
        assert float(p.grad) == 0.25

    def test_non_scalar_output_rejected(self):
        p = Parameter([1.0, 2.0])
        tape = Tape()
        v = tape.param(p)
        with pytest.raises(ContractError):
            tape.backward(tape.add(v, v))

    def test_accumulation_without_zeroing(self):
        p = Parameter([[1.0, 2.0]])
        tape = Tape()
        out = tape.sum_reduce(tape.rowdot(tape.param(p), tape.param(p)))
        tape.backward(out)
        tape.backward(out)
        assert np.array_equal(p.grad, [[4.0, 8.0]])

    def test_untracked_output_rejected(self):
        tape = Tape()
        with pytest.raises(ContractError):
            tape.backward(tape.constant(1.0))

    def test_three_layer_random_composition_matches_fd(self, rng):
        w1 = Parameter(rng.normal(size=(4, 5)) * 0.5)
        b1 = Parameter(rng.normal(size=5) * 0.1)
        w2 = Parameter(rng.normal(size=(5, 3)) * 0.5)
        x = rng.normal(size=(2, 4))
        params = [w1, b1, w2]

        def run():
            tape = Tape()
            h = tape.tanh(tape.add_rowvec(tape.matmul(tape.constant(x), tape.param(w1)), tape.param(b1)))
            out = tape.sigmoid(tape.matmul(h, tape.param(w2)))
            return tape.sum_reduce(out)

        for p in params:
            p.zero_grad()
        out = run()
        out.tape.backward(out)
        analytic = [p.grad.copy() for p in params]
        numeric = finite_difference(lambda: float(run().data), params, step=1e-5)
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
            assert rel.max() < 1e-6

    def test_adjoint_linearity(self, rng):
        p = Parameter(rng.normal(size=(1, 4)))
        weights = np.array([[1.0, 2.0, 3.0, 4.0]])
        tape = Tape()
        v = tape.param(p)
        a = tape.sum_reduce(tape.rowdot(v, tape.constant(weights)))
        b = tape.sum_reduce(tape.mul(v, v))
        total = tape.add(a, b)
        tape.backward(total)
        grad_sum = p.grad.copy()

        p.zero_grad()
        tape2 = Tape()
        v2 = tape2.param(p)
        tape2.backward(tape2.sum_reduce(tape2.rowdot(v2, tape2.constant(weights))))
        ga = p.grad.copy()
        p.zero_grad()
        tape3 = Tape()
        v3 = tape3.param(p)
        tape3.backward(tape3.sum_reduce(tape3.mul(v3, v3)))
        gb = p.grad.copy()
        assert np.allclose(grad_sum, ga + gb, rtol=0, atol=1e-15)

    def test_tape_freed_without_cycle_collector(self, rng):
        """A tape and its graph are freed by reference counting alone: for a
        single product, and for the full training risk and its backward pass
        of every variant, on a batch that mixes side sizes."""
        p = Parameter([[1.0, 2.0]])
        samples = [
            make_sample(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                        vals=list(rng.uniform(0.5, 1.5, size=10)), id_offset=10 * k)
            for k in range(6)
        ]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            out = tape.sum_reduce(tape.rowdot(tape.param(p), tape.param(p)))
            tape.backward(out)
            ref = weakref.ref(tape)
            del tape, out
            assert ref() is None
            for variant in all_variants():
                mp = init_model_params(universe_of(samples), 4, 0, variant)
                tape = Tape()
                risk = regularized_risk(samples, mp, 1e-3, variant, tape=tape)
                tape.backward(risk)
                ref = weakref.ref(tape)
                del tape, risk
                assert ref() is None, variant
        finally:
            if was_enabled:
                gc.enable()
        assert np.array_equal(p.grad, [[2.0, 4.0]])

    def test_replay_bit_identical(self, rng):
        p = Parameter(rng.normal(size=6))

        def run():
            tape = Tape()
            v = tape.param(p)
            h = tape.relu(tape.scale(v, 1.7))
            out = tape.sum_reduce(tape.mul(h, h))
            tape.backward(out)
            return out.data.copy(), p.grad.copy()

        p.zero_grad()
        out1, g1 = run()
        p.zero_grad()
        out2, g2 = run()
        assert np.array_equal(out1, out2)
        assert np.array_equal(g1, g2)


PRIMITIVE_CASES = [
    ("add", lambda t, a, b: t.add(a, b), 2, (4,)),
    ("sub", lambda t, a, b: t.sub(a, b), 2, (4,)),
    ("one_minus", lambda t, a: t.one_minus(a), 1, (4,)),
    ("mul", lambda t, a, b: t.mul(a, b), 2, (4,)),
    ("scale", lambda t, a: t.scale(a, -1.3), 1, (4,)),
    ("matmul", lambda t, a, b: t.matmul(a, b), 2, [(3, 4), (4, 2)]),
    ("matmul_rl", lambda t, a, b: t.matmul(a, b, row_local=True), 2, [(3, 4), (4, 2)]),
    ("concat_cols", lambda t, a, b: t.concat_cols(a, b), 2, [(3, 2), (3, 4)]),
    ("sum_reduce", lambda t, a: t.sum_reduce(a), 1, (4,)),
    ("row_sums", lambda t, a: t.row_sums(a), 1, [(3, 4)]),
    ("rowdot", lambda t, a, b: t.rowdot(a, b), 2, (3, 4)),
    ("sigmoid", lambda t, a: t.sigmoid(a), 1, (4,)),
    ("tanh", lambda t, a: t.tanh(a), 1, (4,)),
    ("softplus", lambda t, a: t.softplus(a), 1, (4,)),
    ("log", lambda t, a: t.log(a), 1, (4,)),
    ("relu", lambda t, a: t.relu(a), 1, (4,)),
    ("add_rowvec", lambda t, a, b: t.add_rowvec(a, b), 2, [(3, 4), (4,)]),
    ("mul_rowvec", lambda t, a, b: t.mul_rowvec(a, b), 2, [(3, 4), (4,)]),
    ("add_scaled_rowvec", lambda t, a, b: t.add_scaled_rowvec(a, b, np.array([2.0, 0.0, -1.5])), 2, [(3, 4), (4,)]),
    ("slice_rows", lambda t, a: t.slice_rows(a, 1, 3), 1, [(4, 3)]),
]


@pytest.mark.parametrize("name,apply,arity,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_fd(name, apply, arity, shapes, rng):
    """Each primitive's tape gradient matches central differences to 1e-6."""
    if isinstance(shapes, tuple):
        shapes = [shapes] * arity
    if name == "log":
        params = [Parameter(rng.uniform(0.5, 2.0, size=s)) for s in shapes]
    elif name == "relu":
        # keep entries away from the kink at 0
        params = [Parameter(np.sign(rng.normal(size=s)) * rng.uniform(0.5, 1.5, size=s)) for s in shapes]
    else:
        params = [Parameter(rng.normal(size=s)) for s in shapes]

    def run():
        tape = Tape()
        out = apply(tape, *[tape.param(p) for p in params])
        flatten = tape.sum_reduce(tape.mul(out, out)) if out.data.ndim else tape.scale(out, 2.0)
        return flatten

    for p in params:
        p.zero_grad()
    out = run()
    out.tape.backward(out)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference(lambda: float(run().data), params, step=1e-5)
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        assert rel.max() < 1e-6, f"{name}: {rel.max()}"


class TestStructuredPrimitives:
    def test_gather_rows_forward_and_gradient(self, rng):
        p = Parameter(rng.normal(size=(4, 3)))
        idx = np.array([0, 2, 2, 1])
        tape = Tape()
        out = tape.gather_rows(tape.param(p), idx)
        assert np.array_equal(out.data, p.values[idx])
        total = tape.sum_reduce(tape.mul(out, out))
        tape.backward(total)
        numeric = finite_difference(
            lambda: float((p.values[idx] ** 2).sum()), [p], step=1e-6
        )[0]
        assert np.abs(p.grad - numeric).max() < 1e-6

    def test_gather_rows_out_of_range(self):
        p = Parameter(np.zeros((2, 2)))
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.gather_rows(tape.param(p), np.array([0, 2]))

    def test_segment_sum_values_and_gradient(self, rng):
        p = Parameter(rng.normal(size=(6, 2)))
        seg = np.array([0, 0, 2, 2, 2, 4])
        tape = Tape()
        out = tape.segment_sum(tape.param(p), seg, 5)
        expected = np.zeros((5, 2))
        for row, s in enumerate(seg):
            expected[s] += p.values[row]
        assert np.allclose(out.data, expected, rtol=0, atol=1e-15)
        weights = rng.normal(size=(5, 2))
        total = tape.sum_reduce(tape.mul(out, tape.constant(weights)))
        tape.backward(total)
        assert np.allclose(p.grad, weights[seg], rtol=0, atol=0)

    def test_segment_sum_unsorted_rejected(self):
        p = Parameter(np.zeros((3, 2)))
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.segment_sum(tape.param(p), np.array([1, 0, 2]), 3)

    @pytest.mark.parametrize("kind", ["same_side", "cross_side"])
    def test_pair_relu_sum_values_and_gradient(self, kind, rng, monkeypatch):
        """Against a loop over the pairs: the values bit for bit, and both
        gradients to central differences. Sides of one node have no same-side
        neighbours, so their rows and gradient rows are exactly zero. Working
        through the blocks one graph at a time changes no bit."""
        sizes = np.array([1, 3, 2, 1, 3, 4, 1, 2])  # user, item, user, item, ...
        starts = np.cumsum(sizes) - sizes
        n, width = int(sizes.sum()), 5
        sides = [range(s, s + m) for s, m in zip(starts, sizes)]
        if kind == "same_side":
            pairs = _same_side(starts, sizes)
            partners = {i: [j for j in side if j != i] for side in sides for i in side}
        else:
            pairs = _cross_side(starts, sizes)
            partners = {i: list(sides[k ^ 1]) for k, side in enumerate(sides) for i in side}
        assert [pairs.counts[i] for i in range(n)] == [len(partners[i]) for i in range(n)]
        a = Parameter(rng.normal(size=(n, width)))
        b = Parameter(rng.normal(size=(n, width)))
        weights = rng.normal(size=(n, width))

        def reference():
            out = np.zeros((n, width))
            for i in range(n):
                for j in partners[i]:
                    out[i] = out[i] + np.maximum(b.values[j] + a.values[i], 0.0)
            return out

        def run():
            a.zero_grad()
            b.zero_grad()
            tape = Tape()
            out = tape.pair_relu_sum(tape.param(a), tape.param(b), pairs.blocks)
            tape.backward(tape.sum_reduce(tape.mul(out, tape.constant(weights))))
            return out.data, a.grad.copy(), b.grad.copy()

        pre = [a.values[i] + b.values[j] for i in range(n) for j in partners[i]]
        assert np.abs(pre).min() > 1e-3  # no kink within the difference step
        out, grad_a, grad_b = run()
        assert np.array_equal(out, reference())
        numeric = finite_difference(lambda: float((reference() * weights).sum()), [a, b], step=1e-6)
        for analytic, fd in zip((grad_a, grad_b), numeric):
            assert np.abs(analytic - fd).max() < 1e-8
        if kind == "same_side":
            lonely = [i for i in range(n) if not partners[i]]
            assert lonely == [0, 6, 14]
            assert not out[lonely].any() and not grad_a[lonely].any() and not grad_b[lonely].any()
        monkeypatch.setattr(autodiff, "_PAIR_CHUNK_ELEMS", 1)
        for got, want in zip(run(), (out, grad_a, grad_b)):
            assert np.array_equal(got, want)

    def test_pair_relu_sum_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError, match="pair-relu-sum"):
            tape.pair_relu_sum(tape.constant(np.ones((3, 2))), tape.constant(np.ones((3, 4))), [])

    def test_scale_rows(self):
        p = Parameter([[1.0, 2.0], [3.0, 4.0]])
        tape = Tape()
        out = tape.scale_rows(tape.param(p), np.array([2.0, -1.0]))
        assert np.array_equal(out.data, [[2.0, 4.0], [-3.0, -4.0]])


class TestGradientCheck:
    def test_constant_forward_is_zero_error(self):
        p = Parameter([1.0, 2.0])

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.constant(np.array([3.0])))

        assert gradient_check(forward, [p]) == 0.0

    def test_linear_forward_gradients_are_one(self):
        p = Parameter([1.0, -2.0, 0.5])

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.param(p))

        for q in [p]:
            q.zero_grad()
        out = forward()
        out.tape.backward(out)
        assert np.array_equal(p.grad, np.ones(3))
        assert gradient_check(forward, [p]) < 1e-10

    def test_bad_step_rejected(self):
        with pytest.raises(ContractError):
            gradient_check(lambda: None, [], step=0.0)

    def test_non_finite_forward_rejected(self):
        p = Parameter([1.0])

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.log(tape.scale(tape.param(p), -1.0)))

        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                gradient_check(forward, [p])

    def test_non_finite_tape_gradient_rejected(self, monkeypatch):
        """A NaN or inf tape gradient fails the check even where every
        forward value is finite; it must not hide the other entries."""
        p = Parameter([1.0, -2.0, 0.5])

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.param(p))

        backward = Tape.backward
        for bad in (np.nan, np.inf):
            def broken_backward(tape, out, bad=bad):
                backward(tape, out)
                p.grad[1] = bad

            monkeypatch.setattr(Tape, "backward", broken_backward)
            for value_fn in (None, lambda q, stack: stack.sum(axis=-1)):
                with pytest.raises(NumericError):
                    gradient_check(forward, [p], value_fn=value_fn)

    def test_value_fn_stack_layout_and_chunks(self, monkeypatch):
        """value_fn gets C raised rows then C lowered rows, C bounded by the
        stack budget, and every entry exactly once."""
        monkeypatch.setattr(autodiff, "_FD_STACK_ELEMS", 24)
        p = Parameter([[0.5, -1.0, 2.0], [0.25, 3.0, -0.75]])
        orig = p.values.copy()
        seen = []

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.mul(tape.param(p), tape.param(p)))

        def value_fn(q, stack):
            assert q is p and stack.shape[1:] == p.shape and stack.size <= 24
            seen.append(stack.copy())
            return (stack * stack).reshape(len(stack), -1).sum(axis=1)

        assert gradient_check(forward, [p], step=1e-3, value_fn=value_fn) < 1e-8
        assert [len(s) for s in seen] == [4, 4, 4]  # C = 24 // (2 * 6) = 2 entries per call
        entry = 0
        for stack in seen:
            c = len(stack) // 2
            for r in range(c):
                for sign, row in ((1.0, stack[r]), (-1.0, stack[c + r])):
                    expected = orig.copy().reshape(-1)
                    expected[entry] = orig.reshape(-1)[entry] + sign * 1e-3
                    assert np.array_equal(row.reshape(-1), expected)
                entry += 1
        assert entry == p.values.size

    def test_scalar_value_fn_broadcasts(self):
        """A value_fn that does not depend on the parameter may return one
        scalar; the quotients are then all zero."""
        p = Parameter([1.0, 2.0])

        def forward():
            tape = Tape()
            return tape.sum_reduce(tape.constant(np.array([3.0])))

        assert gradient_check(forward, [p], value_fn=lambda q, stack: np.float64(3.0)) == 0.0

    def test_values_restored_when_check_fails_mid_chunk(self):
        """A non-finite quotient value, or an error raised by forward() on a
        perturbed row, leaves the parameter's array and bits as they were."""
        p = Parameter([1.0, 4e-6, 2.0])  # entry 1 minus step is negative
        array, before = p.values, p.values.tobytes()

        def log_forward():
            tape = Tape()
            return tape.sum_reduce(tape.log(tape.param(p)))

        def raising_forward():
            if p.values.min() < 0:
                raise NumericError("negative entry")
            tape = Tape()
            return tape.sum_reduce(tape.mul(tape.param(p), tape.param(p)))

        def batched_log(q, stack):
            return np.log(stack).sum(axis=-1)

        with np.errstate(invalid="ignore"):
            for forward, value_fn in ((log_forward, None), (raising_forward, None), (log_forward, batched_log)):
                with pytest.raises(NumericError):
                    gradient_check(forward, [p], value_fn=value_fn)
                assert p.values is array and p.values.tobytes() == before


def test_stable_sigmoid_extremes():
    x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    s = stable_sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[2] == 0.5
    assert s[4] == 1.0 or s[4] > 1.0 - 1e-9
