import gc
import inspect
import math
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmrec import autodiff
from gmrec.autodiff import (
    ArrayOps,
    Parameter,
    RowLocalOps,
    Tape,
    gradient_check,
    stable_sigmoid,
)
from gmrec.data import universe_of
from gmrec.errors import ContractError, NumericError, ShapeError
from gmrec.model import _cross_side, _same_side, init_model_params
from gmrec.training import regularized_risk

from conftest import all_variants, make_sample
from oracles import finite_difference, gru_chain, sigmoid


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
        # Every row with a shape rule, on operands that break it.
        assert set(SHAPE_MISMATCHES) == {n for n, row in autodiff.PRIMITIVES.items() if row.check is not None}
        for name, (shapes, consts) in SHAPE_MISMATCHES.items():
            operands = [tape.param(Parameter(np.ones(shape))) for shape in shapes]
            with pytest.raises(ShapeError, match=f"^{name.replace('_', '-')}:"):
                getattr(tape, name)(*operands, *consts)
        assert tape.nodes == []

    def test_one_builder_for_every_arity(self):
        """Rows of one, two and any number of operands record one node whose
        parents are the tracked operands, in operand order, and whose VJP
        returns one contribution per parent, each the VJP of its own
        operand; with no operand tracked they record nothing. Parameters,
        recorded results, untracked results and constants mix freely, and
        the constants after the operands reach the forward. Tape.gru's
        parents are the tracked operands the run reads, in operand order (a
        Value read twice is listed twice): a lone step from h = 0 has no U
        and no reset-gate parent, and records nothing when only those are
        tracked."""
        tape = Tape()
        p, q = Parameter(np.full((2, 3), 1.5)), Parameter(np.full((2, 3), -2.0))
        vp, vq = tape.param(p), tape.param(q)
        recorded = tape.tanh(vq)
        untracked = tape.relu(tape.constant(np.full((2, 3), 0.25)))
        const = tape.constant(np.full((2, 3), 3.0))
        assert untracked.node is None and tape.nodes == [recorded.node]
        cases = [  # name, operands, constants, the node's parents
            ("tanh", (vp,), (), [p]),
            ("tanh", (untracked,), (), []),
            ("scale", (recorded,), (-0.5,), [recorded.node]),
            ("scale", (const,), (-0.5,), []),
            ("mul", (const, recorded), (), [recorded.node]),
            ("mul", (vp, untracked), (), [p]),
            ("mul", (vq, vp), (), [q, p]),
            ("mul", (untracked, const), (), []),
            ("gather_rows", (vq,), (np.array([1, 1, 0]),), [q]),
            ("sq_norm_sum", (const, vq, untracked, recorded, vp), (), [q, recorded.node, p]),
            ("sq_norm_sum", (vp,), (), [p]),
            ("sq_norm_sum", (const, untracked), (), []),
        ]
        for name, operands, consts, parents in cases:
            before = len(tape.nodes)
            out = getattr(tape, name)(*operands, *consts)
            assert np.array_equal(out.data, getattr(ArrayOps, name)(*(a.data for a in operands), *consts)), name
            if not parents:
                assert out.node is None and len(tape.nodes) == before, name
                continue
            assert tape.nodes[before:] == [out.node], name
            assert out.node.parents == parents, name
            contributions = out.node.vjp(np.full_like(out.data, 0.5))
            assert len(contributions) == len(parents), name
            if name == "sq_norm_sum":
                tracked = [a.data for a in operands if a.node is not None]
                for c, data in zip(contributions, tracked):
                    assert np.array_equal(c, data), name

        # The 9 GRU weights in GruWeights order, U_r (operand 4) a constant.
        gru_params = [Parameter(np.full((3, 3) if k % 3 < 2 else 3, 0.1 * k)) for k in range(9)]
        w = [tape.constant(p.values) if k == 4 else tape.param(p) for k, p in enumerate(gru_params)]
        read_by_all = [p for k, p in enumerate(gru_params) if k != 4]
        read_by_lone = [gru_params[k] for k in (0, 2, 6, 8)]
        gru_cases = [  # steps, h0, the node's parents
            ([vp, recorded], None, read_by_all + [p, recorded.node]),
            ([vp, untracked, vp], None, read_by_all + [p, p]),
            ([untracked], vq, read_by_all + [q]),
            ([recorded], recorded, read_by_all + [recorded.node, recorded.node]),
            ([recorded], None, read_by_lone + [recorded.node]),
            ([const], None, read_by_lone),
        ]
        for steps, h0, parents in gru_cases:
            before = len(tape.nodes)
            out = tape.gru(steps, w, h0)
            assert tape.nodes[before:] == [out.node] and out.node.parents == parents
            contributions = out.node.vjp(np.full_like(out.data, 0.5))
            assert [c.shape for c in contributions] == [
                x.shape if isinstance(x, Parameter) else recorded.shape for x in parents]
        lone = tape.gru([const], [tape.constant(p.values) if k in (0, 2, 6, 8) else tape.param(p)
                                  for k, p in enumerate(gru_params)])
        assert lone.node is None and tape.nodes[-1] is out.node

    def test_each_primitive_is_one_table_row(self):
        """ArrayOps' primitives are the rows' forwards themselves and Tape's
        are functions in Tape's own dict; besides them, ArrayOps has only
        constant, param and gru, and Tape only constant, param, segment_sum,
        gru and backward."""
        for name, row in autodiff.PRIMITIVES.items():
            assert getattr(autodiff.ArrayOps, name) is row.forward, name
            method = Tape.__dict__[name]
            assert inspect.isfunction(method) and getattr(Tape, name) is method, name

        def own(cls):
            return {n for n in vars(cls) if not (n.startswith("__") and n.endswith("__"))}

        assert "__init__" in vars(autodiff.ArrayOps)
        assert own(autodiff.ArrayOps) == set(autodiff.PRIMITIVES) | {"constant", "param", "gru"}
        assert own(Tape) == set(autodiff.PRIMITIVES) | {"constant", "param", "segment_sum", "gru", "backward"}


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

    def test_second_backward_rejected(self):
        """backward consumes its tape: a second call, from the same output
        or from another one on the tape, raises ContractError and leaves
        p.grad as the first call left it."""
        p = Parameter([[1.0, 2.0]])
        tape = Tape()
        v = tape.param(p)
        out = tape.sum_reduce(tape.rowdot(v, v))
        other = tape.sum_reduce(tape.mul(v, v))
        tape.backward(out)
        assert np.array_equal(p.grad, [[2.0, 4.0]])
        for again in (out, other):
            with pytest.raises(ContractError, match="already run backward"):
                tape.backward(again)
            assert np.array_equal(p.grad, [[2.0, 4.0]])
        assert len(tape.nodes) == 4 and all(node.vjp is None for node in tape.nodes)

    def test_gru_saved_arrays_freed_once_applied(self):
        """The arrays a GRU node saved for its VJP are freed as soon as
        backward has applied the node, before the nodes recorded ahead of it
        run, while the tape and its output are still referenced."""
        rng = np.random.default_rng(3)
        weights = [Parameter(rng.normal(size=(4, 4) if k % 3 < 2 else 4)) for k in range(9)]
        x = Parameter(rng.normal(size=(5, 4)))
        tape = Tape()
        steps = [tape.scale(tape.param(x), c) for c in (1.0, -0.5, 2.0)]
        out = tape.sum_reduce(tape.gru(steps, [tape.param(w) for w in weights]))
        gru_node = tape.nodes[3]
        saved = next(cell.cell_contents for cell in gru_node.vjp.__closure__
                     if isinstance(cell.cell_contents, list) and cell.cell_contents
                     and isinstance(cell.cell_contents[0], tuple))
        refs = [weakref.ref(a) for state in saved for a in state]
        assert len(refs) == 2 + 5 + 5
        del saved
        seen, first = [], tape.nodes[0].vjp

        def applied_after_the_gru(g):
            seen.append(sum(r() is not None for r in refs))
            return first(g)

        tape.nodes[0].vjp = applied_after_the_gru
        tape.backward(out)
        assert seen == [0]
        assert all(r() is None for r in refs) and tape.nodes[3] is gru_node
        assert np.abs(x.grad).max() > 0

    def test_scalar_parameter_grad_stays_its_array(self):
        """A 0-d parameter's grad is accumulated in place: it is the same
        ndarray after backward, and a second gradient check, which zeroes
        it again, passes."""
        p = Parameter(0.7)
        grad = p.grad

        def forward():
            tape = Tape()
            v = tape.param(p)
            return tape.add(tape.mul(v, v), tape.tanh(v))

        for _ in range(2):
            assert gradient_check(forward, [p]) < 1e-8
            assert p.grad is grad and isinstance(p.grad, np.ndarray) and p.grad.shape == ()

    def test_backward_of_a_parameter_adds_one(self):
        p = Parameter(2.0)
        p.grad[...] = 0.375
        tape = Tape()
        tape.backward(tape.param(p))
        assert isinstance(p.grad, np.ndarray) and float(p.grad) == 1.375
        assert tape.nodes == []

    def test_only_primitive_applications_are_recorded(self):
        """param() records nothing; each primitive call on a tracked input
        records one node, and a call on constants alone records none."""
        p, q = Parameter([1.0, 2.0]), Parameter(3.0)
        tape = Tape()
        a, b, c = tape.param(p), tape.param(p), tape.param(q)
        assert tape.nodes == []
        x = tape.mul(a, b)
        tape.scale(tape.constant([1.0, 1.0]), 2.0)
        y = tape.add(tape.sum_reduce(x), c)
        assert len(tape.nodes) == 3
        tape.backward(y)
        assert np.array_equal(p.grad, [2.0, 4.0]) and float(q.grad) == 1.0

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
                risk = regularized_risk(samples, mp, 1e-3)
                tape = risk.tape
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


_SEG_IDS = np.array([0, 0, 2, 2, 2])  # segments 1 and 3 are empty
_PAIRS = _same_side(np.array([0, 3]), np.array([3, 2]))  # sides of 3 and 2 nodes

PRIMITIVE_CASES = [
    ("add", lambda t, a, b: t.add(a, b), 2, (4,)),
    ("sub", lambda t, a, b: t.sub(a, b), 2, (4,)),
    ("mul", lambda t, a, b: t.mul(a, b), 2, (4,)),
    ("scale", lambda t, a: t.scale(a, -1.3), 1, (4,)),
    ("matmul", lambda t, a, b: t.matmul(a, b), 2, [(3, 4), (4, 2)]),
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
    ("gather_rows", lambda t, a: t.gather_rows(a, np.array([2, 0, 2, 1])), 1, [(3, 4)]),
    ("scale_rows", lambda t, a: t.scale_rows(a, np.array([2.0, 0.0, -1.5])), 1, [(3, 4)]),
    ("segment_sum_prepared",
     lambda t, a: t.segment_sum_prepared(a, _SEG_IDS, *autodiff.segment_boundaries(_SEG_IDS), 4), 1, [(5, 3)]),
    ("pair_relu_sum", lambda t, a, b: t.pair_relu_sum(a, b, _PAIRS.blocks), 2, (5, 3)),
    ("sq_norm_sum", lambda t, *a: t.sq_norm_sum(*a), 3, [(3, 4), (), (5,)]),
]

# Per primitive with a shape rule: operand shapes and constants that break it.
SHAPE_MISMATCHES = {
    "add": ([(2,), (3,)], ()),
    "sub": ([(2,), (3,)], ()),
    "mul": ([(2, 3), (3, 2)], ()),
    "row_sums": ([(3,)], ()),
    "rowdot": ([(2, 3), (3, 2)], ()),
    "matmul": ([(2, 3), (2, 3)], ()),
    "concat_cols": ([(2, 3), (3, 3)], ()),
    "gather_rows": ([(2, 2)], (np.array([0, 2]),)),
    "slice_rows": ([(3, 2)], (2, 1)),
    "pair_relu_sum": ([(3, 2), (3, 4)], ([],)),
    "scale_rows": ([(3, 2)], (np.ones(2),)),
    "add_rowvec": ([(3, 2), (3,)], ()),
    "add_scaled_rowvec": ([(3, 2), (2,)], (np.ones(2),)),
    "mul_rowvec": ([(3, 2), (3,)], ()),
    "sq_norm_sum": ([], ()),
}


def test_every_primitive_has_a_gradient_case():
    assert sorted(case[0] for case in PRIMITIVE_CASES) == sorted(autodiff.PRIMITIVES)


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
    elif name == "pair_relu_sum":
        # |a[i] + b[j]| >= 0.2 for every pair: away from the kink at 0
        a, b = shapes
        params = [Parameter(np.sign(rng.normal(size=a)) * rng.uniform(0.5, 1.5, size=a)),
                  Parameter(rng.uniform(-0.3, 0.3, size=b))]
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

    def test_gather_rows_gradient_adds_like_row_add_at(self, rng):
        """The gradient of a gather with repeated, unsorted indices has the
        bits of np.add.at over rows, which adds each row's terms in index
        order."""
        for rows, n, cols in ((1, 5, 1), (7, 40, 3), (30, 200, 16)):
            p = Parameter(rng.normal(size=(rows, cols)))
            idx = rng.integers(0, rows, size=n)
            g = rng.normal(size=(n, cols)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
            tape = Tape()
            out = tape.gather_rows(tape.param(p), idx)
            tape.backward(tape.sum_reduce(tape.mul(out, tape.constant(g))))
            want = np.zeros((rows, cols))
            np.add.at(want, idx, g)
            assert p.grad.tobytes() == want.tobytes()

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
        """A bad step is rejected before any forward runs."""
        for step in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ContractError, match="step must be finite and positive"):
                gradient_check(lambda: pytest.fail("the forward ran"), [], step=step)

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


_SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                     745.0, -745.0, 800.0, -800.0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stable_sigmoid_has_the_bits_of_the_oracle(data):
    """stable_sigmoid(x) has the bytes of oracles.sigmoid(x), for arrays of
    any shape, 0-d included, over every float64 kind: +-0, +-inf, NaN,
    subnormals and the ends of exp's range (+-745, +-800). A 0-d input
    gives an ndarray."""
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6), label="shape")
    values = st.one_of(st.sampled_from(_SIGMOID_SPECIALS), st.floats(allow_subnormal=True))
    x = data.draw(hnp.arrays(np.float64, shape, elements=values), label="x")
    out = stable_sigmoid(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == np.float64
    assert out.tobytes() == sigmoid(x).tobytes()


def _gru_weights(rng, d):
    """The 9 GRU weights in GruWeights order: W, U and b of each gate."""
    return [Parameter(rng.uniform(-1.0, 1.0, size=shape)) for shape in [(d, d), (d, d), (d,)] * 3]


def _gru_operands(ops, weights, inputs, untracked, steps_at, h0_at):
    """steps, weights and h0 of a GRU run through ops: step t reads input
    steps_at[t] and h0 input h0_at (None: no h0), where inputs 0 and 1 are
    the Parameters inputs, read through ops.param, and input 2 is the
    constant untracked."""
    pool = [ops.param(p) for p in inputs] + [ops.constant(untracked)]
    return [pool[k] for k in steps_at], [ops.param(p) for p in weights], None if h0_at is None else pool[h0_at]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gru_node_has_the_bits_of_the_chain(data):
    """Tape.gru records one node whose value has the bits of the
    per-primitive oracles.gru_chain, and whose gradients, the weights' and
    the inputs', are within 1e-14 of the largest entry of the chain's; they
    have the chain's bits when no parent already holds a gradient and no
    Value is read twice. For n 1-9 rows, d 1-8, 1-3 steps, h0 None, tracked
    or untracked, and inputs tracked, untracked or one Value read twice (two
    steps, or a step and h0); also when every parent already holds a
    gradient as backward reaches the node. ArrayOps.gru and RowLocalOps.gru
    have the chain's bits; a K-stacked substitute for any weight or input
    gives each copy the bits of that copy alone; each RowLocalOps row has
    the bits of that row alone; gradient_check passes on the node."""
    n, d = data.draw(st.integers(1, 9), label="n"), data.draw(st.integers(1, 8), label="d")
    steps_at = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3), label="steps")
    h0_at = data.draw(st.sampled_from([None, 0, 1, 2]), label="h0")
    held = data.draw(st.booleans(), label="parents already hold a gradient")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    weights = _gru_weights(rng, d)
    inputs = [Parameter(rng.uniform(-1.0, 1.0, size=(n, d))) for _ in range(2)]
    untracked = rng.uniform(-1.0, 1.0, size=(n, d))
    out_weights = rng.normal(size=(n, d))
    params = weights + inputs
    held_weights = [rng.normal(size=p.shape) for p in params]

    def run(gru):
        for p in params:
            p.zero_grad()
        tape = Tape()
        # The inputs are recorded nodes (an exact scale by 1), the weights Parameters.
        pool = [tape.scale(tape.param(p), 1.0) for p in inputs] + [tape.constant(untracked)]
        w = [tape.param(p) for p in weights]
        before = len(tape.nodes)
        out = gru(tape, [pool[k] for k in steps_at], w, None if h0_at is None else pool[h0_at])
        recorded = len(tape.nodes) - before
        loss = tape.sum_reduce(tape.mul(out, tape.constant(out_weights)))
        if held:  # recorded after the run, so backward reaches them first
            for v, r in zip(w + pool[:2], held_weights):
                loss = tape.add(loss, tape.sum_reduce(tape.mul(v, tape.constant(r))))
        tape.backward(loss)
        return recorded, out.data.tobytes(), [p.grad.copy() for p in params]

    recorded, value, grads = run(lambda tape, *args: tape.gru(*args))
    _, chain_value, chain_grads = run(gru_chain)
    assert recorded == 1
    assert value == chain_value
    reads = steps_at + [h0_at]
    if not held and reads.count(0) < 2 and reads.count(1) < 2:
        assert [a.tobytes() for a in grads] == [b.tobytes() for b in chain_grads]
    for a, b in zip(grads, chain_grads):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def forward(ops, gru=None):
        steps, w, h0 = _gru_operands(ops, weights, inputs, untracked, steps_at, h0_at)
        return ops.gru(steps, w, h0) if gru is None else gru(ops, steps, w, h0)

    assert forward(ArrayOps()).tobytes() == value
    target = params[data.draw(st.integers(0, len(params) - 1), label="stacked operand")]
    stack = target.values + 0.1 * rng.normal(size=(3,) + target.shape)
    if target in weights:  # a single step from h = 0 reads W_z, b_z, W_h and b_h only
        read = len(steps_at) > 1 or h0_at is not None or weights.index(target) in (0, 2, 6, 8)
    else:
        read = inputs.index(target) in steps_at + [h0_at]
    for cls in (ArrayOps, RowLocalOps):
        assert forward(cls()).tobytes() == forward(cls(), gru_chain).tobytes(), cls
        stacked = forward(cls({target: stack}))
        assert stacked.tobytes() == forward(cls({target: stack}), gru_chain).tobytes(), cls
        assert stacked.shape == ((3, n, d) if read else (n, d)), cls
        for k in range(3):
            copy = forward(cls({target: stack[k]}))
            assert (stacked[k] if read else stacked).tobytes() == copy.tobytes(), (cls, k)

    steps, w, h0 = _gru_operands(ArrayOps(), weights, inputs, untracked, steps_at, h0_at)
    full = RowLocalOps().gru(steps, w, h0)
    for i in range(n):
        alone = RowLocalOps().gru([x[i:i + 1] for x in steps], w, None if h0 is None else h0[i:i + 1])
        assert alone.tobytes() == full[i:i + 1].tobytes(), i

    def loss():
        tape = Tape()
        out = tape.gru(*_gru_operands(tape, weights, inputs, untracked, steps_at, h0_at))
        return tape.sum_reduce(tape.mul(out, tape.constant(out_weights)))

    assert gradient_check(loss, params) < 1e-6


def test_gru_gradient_check_catches_a_wrong_vjp(monkeypatch, rng):
    """A GRU backward that reads a zero saved reset gate, and so drops the
    reset gate's term of the hidden state's gradient (r times the gradient
    of r * h), fails gradient_check and differs from the chain."""
    weights = _gru_weights(rng, 5)
    inputs = [Parameter(rng.uniform(-1.0, 1.0, size=(4, 5))) for _ in range(2)]
    out_weights = rng.normal(size=(4, 5))
    params = weights + inputs

    def loss(gru):
        tape = Tape()
        steps, w, _ = _gru_operands(tape, weights, inputs, np.zeros((4, 5)), [0, 1], None)
        return tape.sum_reduce(tape.mul(gru(tape, steps, w), tape.constant(out_weights)))

    def grads(gru):
        for p in params:
            p.zero_grad()
        out = loss(gru)
        out.tape.backward(out)
        return [p.grad.copy() for p in params]

    assert gradient_check(lambda: loss(lambda tape, *args: tape.gru(*args)), params) < 1e-6
    right = grads(gru_chain)
    original = autodiff._gru_backward

    def with_zero_reset_gate(g, steps, weights, saved, need):
        # A step's saved state is (z, c) from h = 0 and (h, z, r, r * h, c) otherwise.
        saved = [s if len(s) == 2 else (s[0], s[1], np.zeros_like(s[2]), s[3], s[4]) for s in saved]
        return original(g, steps, weights, saved, need)

    monkeypatch.setattr(autodiff, "_gru_backward", with_zero_reset_gate)
    assert gradient_check(lambda: loss(lambda tape, *args: tape.gru(*args)), params) > 1e-4
    wrong = grads(lambda tape, *args: tape.gru(*args))
    assert not all(np.array_equal(a, b) for a, b in zip(wrong, right))


def test_gru_shape_error_names_gru():
    """Tape.gru takes matrices and vectors only; ArrayOps.gru lets leading
    axes broadcast. Both raise ShapeError naming gru, and record nothing."""
    tape = Tape()
    w = [tape.constant(np.ones((3, 3) if k % 3 < 2 else 3)) for k in range(9)]
    x = tape.constant(np.ones((2, 3)))
    bad = [
        ([], w, None),  # no step
        ([x], w[:8], None),  # 8 weights
        ([x, tape.constant(np.ones((3, 3)))], w, None),  # steps of two shapes
        ([x], w, tape.constant(np.ones((2, 4)))),  # h0 of another width
        ([x], w[:2] + [tape.constant(np.ones(4))] + w[3:], None),  # a bias of another width
        ([x], w[:1] + [tape.constant(np.ones((3, 4)))] + w[2:], None),  # U not square
        ([tape.constant(np.ones((1, 2, 3)))], w, None),  # a leading axis
        ([tape.constant(np.ones(3))], w, None),  # a vector step
    ]
    for steps, weights, h0 in bad:
        with pytest.raises(ShapeError, match="^gru:"):
            tape.gru(steps, weights, h0)
        if steps and np.ndim(steps[0].data) == 2:
            with pytest.raises(ShapeError, match="^gru:"):
                ArrayOps().gru([v.data for v in steps], [v.data for v in weights], None if h0 is None else h0.data)
    assert tape.nodes == []
    stacked = ArrayOps().gru([np.ones((4, 2, 3))], [v.data for v in w])
    assert stacked.shape == (4, 2, 3)


def _row_alone(a_row: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One row of a row-local product, computed from a fresh 1-row array."""
    return autodiff._mm_row_local(np.array(a_row)[None, :], b)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_local_rows_do_not_depend_on_the_stack(data):
    """Every row of _mm_row_local's result has the bits of that row computed
    alone, and keeps them inside a larger stack at any position, for m, k
    and n in 1-300, with or without a leading K axis, with a C-ordered,
    Fortran-ordered or 8-byte-misaligned left operand, and with the right
    operand a row and column slice of a larger matrix."""
    m, k, n = (data.draw(st.integers(1, 300), label=name) for name in "mkn")
    lead = data.draw(st.sampled_from([(), (1,), (3,)]), label="lead")
    b_lead = data.draw(st.sampled_from([(), lead]), label="b_lead")
    layout = data.draw(st.sampled_from(["C", "F", "misaligned"]), label="layout")
    wider = data.draw(st.booleans(), label="b sliced from a wider matrix")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    a = rng.normal(size=lead + (m, k))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "misaligned":
        buf = np.empty(a.size + 1)
        shifted = buf[1:].reshape(a.shape)  # 8 bytes past the buffer's start
        shifted[...] = a
        a = shifted
    if wider:
        r0, c0 = (int(x) for x in rng.integers(0, 5, size=2))
        big = rng.normal(size=b_lead + (k + r0 + 3, n + c0 + 2))
        b = big[..., r0:r0 + k, c0:c0 + n]
    else:
        b = rng.normal(size=b_lead + (k, n))

    out = autodiff._mm_row_local(a, b)
    assert out.shape == lead + (m, n)
    before = int(rng.integers(0, 4))
    stack = np.concatenate([rng.normal(size=lead + (before, k)), a, rng.normal(size=lead + (2, k))], axis=-2)
    in_stack = autodiff._mm_row_local(stack, b)[..., before:before + m, :]
    assert np.array_equal(in_stack, out)
    for j in np.ndindex(*lead):
        b_j = b[j] if b_lead else b
        for i in range(m):
            assert np.array_equal(out[j + (i,)], _row_alone(a[j + (i,)], b_j)), (j, i)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_local_rowdot_is_np_dot_of_each_row_pair(data):
    """RowLocalOps.rowdot gives every row the bits of np.dot on that row
    pair, for widths 1-257, with a leading K axis on either operand or on
    both, and a row keeps them when other rows are stacked around it."""
    m, d = data.draw(st.integers(1, 6), label="m"), data.draw(st.integers(1, 257), label="d")
    a_lead, b_lead = data.draw(st.sampled_from([((), ()), ((3,), ()), ((), (3,)), ((3,), (3,))]), label="leads")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a, b = rng.normal(size=a_lead + (m, d)), rng.normal(size=b_lead + (m, d))

    out = autodiff.RowLocalOps.rowdot(a, b)
    lead = a_lead or b_lead
    assert out.shape == lead + (m,)
    for j in np.ndindex(*lead):
        a_j, b_j = a[j] if a_lead else a, b[j] if b_lead else b
        for i in range(m):
            assert out[j + (i,)] == np.dot(a_j[i], b_j[i]), (j, i)
    before = int(rng.integers(0, 4))

    def stacked(x, x_lead):
        return np.concatenate([rng.normal(size=x_lead + (before, d)), x, rng.normal(size=x_lead + (2, d))], axis=-2)

    in_stack = autodiff.RowLocalOps.rowdot(stacked(a, a_lead), stacked(b, b_lead))
    assert np.array_equal(in_stack[..., before:before + m], out)


def test_row_local_ops_differ_from_array_ops_in_matmul_and_rowdot_only():
    """RowLocalOps is ArrayOps with row-local kernels as its matmul and
    rowdot, and ArrayOps' matmul is numpy's, the same bits as a @ b."""
    own = {name for name in vars(autodiff.RowLocalOps) if not name.startswith("__")}
    assert own == {"matmul", "rowdot"}
    a, b = np.random.default_rng(3).normal(size=(2, 37, 37))
    assert np.array_equal(autodiff.RowLocalOps.matmul(a, b), autodiff._mm_row_local(a, b))
    assert np.array_equal(autodiff.ArrayOps.matmul(a, b), a @ b)


class _FakeLibc:
    """A C library stand-in that records mallopt calls; glibc exports
    gnu_get_libc_version, which the policy takes as its mark."""

    def __init__(self, glibc=True, mallopt=True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"
        if mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


class TestMallocPolicy:
    @pytest.mark.parametrize("environ", [
        {"MALLOC_MMAP_THRESHOLD_": "131072"}, {"MALLOC_TRIM_THRESHOLD_": "0"}, {"MALLOC_TOP_PAD_": "0"},
        {"MALLOC_MMAP_MAX_": "0"}, {"GLIBC_TUNABLES": "glibc.rtld.nns=2:glibc.malloc.trim_threshold=0"},
    ])
    def test_preset_glibc_tunables_win(self, environ):
        libc = _FakeLibc()
        assert not autodiff.fix_malloc_thresholds(environ, libc)
        assert libc.calls == []

    @pytest.mark.parametrize("libc", [_FakeLibc(glibc=False), _FakeLibc(mallopt=False)])
    def test_other_c_libraries_are_left_alone(self, libc):
        assert not autodiff.fix_malloc_thresholds({}, libc)
        assert libc.calls == []

    def test_on_glibc_both_thresholds_are_set(self):
        libc = _FakeLibc()
        assert autodiff.fix_malloc_thresholds({"GLIBC_TUNABLES": "glibc.rtld.nns=2", "HOME": "/"}, libc)
        assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc policy applies to glibc only")
    def test_a_rank_request_reuses_freed_pages(self):
        """In a fresh process with no malloc tunables set, the second
        300-sample d=64 score_samples call faults fewer than 50 pages: it
        reuses the heap the first one freed."""
        script = """if True:
            import resource
            from gmrec.data import ITEM, USER, AttributeId, AttributeValuePair, DataSample, universe_of
            from gmrec.model import init_model_params, score_samples

            def pair(i, side, v=1.0):
                return AttributeValuePair(AttributeId(i, side), v)

            user = tuple(pair(i, USER) for i in range(3))
            request = [DataSample(user, (pair(3 + j % 40, ITEM), pair(43 + j % 7, ITEM, 0.5)), 0.0)
                       for j in range(300)]
            mp = init_model_params(universe_of(request), 64, 0)
            score_samples(request, mp)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            score_samples(request, mp)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 50
