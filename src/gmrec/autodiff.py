"""Minimal reverse-mode differentiation over the primitives the model needs.

Design rules:
  * 64-bit floats everywhere; the tolerances in the tests rely on it.
  * No implicit broadcasting between tracked operands: shapes are checked
    explicitly and a mismatch raises ShapeError naming the primitive.
  * A tape is an append-only list of recorded applications, so reverse
    iteration is a valid topological order and one backward pass visits
    each node exactly once.
  * relu's derivative at exactly 0 is 0.

The model's forward pass is written once, against an ops object: a Tape
records it for the backward pass, while ArrayOps computes the same arrays,
bit for bit, and records nothing.

Matrix products come in two flavours. `matmul(..., row_local=True)` computes
each output row with an expand-multiply-reduce kernel whose bits do not
depend on how many rows are stacked together; the per-sample prediction
path uses it so that structural identities (node reordering, role swap,
single-node graphs) hold exactly. The default BLAS path is much faster and
is used by the batched training loop, where only run-to-run determinism
matters.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError


class Parameter:
    """Trainable array plus a same-shape gradient accumulator."""

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str = ""):
        # asarray with order="C" keeps 0-d shapes and shares memory when the
        # input already qualifies (the embedding table relies on that).
        self.values = np.asarray(values, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.values)
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.values.shape})"


class _Node:
    __slots__ = ("parents", "pvjps", "param", "grad")

    def __init__(self, parents, pvjps, param=None):
        self.parents = parents  # tuple[_Node]
        self.pvjps = pvjps  # tuple[g -> array], aligned with parents
        self.param = param  # Parameter for leaves, else None
        self.grad = None


class Value:
    """An array tracked on a tape (node is None for constants)."""

    __slots__ = ("data", "node", "tape")

    def __init__(self, data, node=None, tape=None):
        self.data = data
        self.node = node
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={np.shape(self.data)}, tracked={self.node is not None})"


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) computed without overflow for any finite x."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


# Row-local matmul: out[i, j] = sum_k a[i, k] * b[k, j], reduced over the
# contiguous last axis of the expanded temporary so that each output row's
# bits are independent of every other row. Chunked to bound the temporary.
_ROW_LOCAL_CHUNK_ELEMS = 1 << 21

# pair_relu_sum works through a block a few graphs at a time, so that its
# per-pair temporaries hold at most this many elements and are reused from
# the allocator's free lists instead of being mapped afresh on every call.
_PAIR_CHUNK_ELEMS = 1 << 16

# gradient_check builds the perturbed copies of one parameter array in
# chunks of at most this many elements, which bounds every batched forward.
_FD_STACK_ELEMS = 1 << 16


def _mm_row_local(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-local product over the last two axes; leading axes broadcast."""
    m, k = a.shape[-2:]
    n = b.shape[-1]
    bt = np.swapaxes(b, -1, -2)[..., None, :, :]  # (..., 1, n, k) view; strides do not affect bits
    lead = max(a.size // max(m * k, 1), b.size // max(k * n, 1))
    chunk = max(1, _ROW_LOCAL_CHUNK_ELEMS // max(lead * k * n, 1))
    if m <= chunk:
        return (a[..., :, None, :] * bt).sum(axis=-1)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n))
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        out[..., start:stop, :] = (a[..., start:stop, None, :] * bt).sum(axis=-1)
    return out


def _segment_sum(m: np.ndarray, seg_ids, starts, out_rows, n_segments: int) -> np.ndarray:
    out = np.zeros(m.shape[:-2] + (n_segments, m.shape[-1]))
    if seg_ids.size:
        out[..., out_rows, :] = np.add.reduceat(m, starts, axis=-2)
    return out


class PairBlock(NamedTuple):
    """S graphs that share one shape, as dense index arrays for pair_relu_sum.

    Graph s is the last index of every array. Row rows[i, s] pairs with the
    k neighbour rows nbrs[:, i, s], in that order. Those neighbours are
    drawn from sources[:, s], and back[j] lists the flat positions t * m + i
    of the (k, m) neighbour table that draw sources[j, s]; the backward pass
    sums over them instead of scattering.
    """

    rows: np.ndarray  # (m, S)
    nbrs: np.ndarray  # (k, m, S)
    sources: np.ndarray  # (r, S)
    back: np.ndarray  # (r, k * m // r)


def _pair_relu_sum(a: np.ndarray, b: np.ndarray, blocks: Sequence[PairBlock], chunks: list | None = None) -> np.ndarray:
    """Row i of the result is the sum over its neighbours j of relu(a[i] + b[j]).

    Acts on the last two axes; leading axes broadcast. Rows in no block are
    zero. The neighbour axis is outside the node and feature axes, so numpy
    adds the k terms of a row in neighbour order whatever else is stacked.
    When chunks is a list, each chunk of graphs worked on is appended to it
    as (rows, sources, back, relu mask), the mask shaped (k, m, S, width).
    """
    lead = a.shape[:-2]
    if b.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, b.shape[:-2])
    out = np.zeros(lead + a.shape[-2:])
    graph_elems = math.prod(lead) * a.shape[-1]
    for blk in blocks:
        k, m, n_graphs = blk.nbrs.shape
        step = max(1, _PAIR_CHUNK_ELEMS // (k * m * graph_elems))
        for start in range(0, n_graphs, step):
            graphs = slice(start, start + step)
            rows = blk.rows[:, graphs]
            h = b[..., blk.nbrs[:, :, graphs], :]
            h = np.add(h, a[..., None, rows, :], out=h if b.shape[:-2] == lead else None)
            np.maximum(h, 0.0, out=h)
            out[..., rows, :] = h.sum(axis=-4)
            if chunks is not None:
                chunks.append((rows, blk.sources[:, graphs], blk.back, h > 0.0))
    return out


class Tape:
    """Recorded differentiable computation with parameter leaves."""

    def __init__(self):
        self.nodes: list[_Node] = []
        # Leaf nodes, not Values: a Value points back at its tape, so holding
        # one here would make every tape a reference cycle.
        self._leaves: dict[int, _Node] = {}

    # -- construction helpers -------------------------------------------------

    def constant(self, x) -> Value:
        return Value(_as_array(x), None, self)

    def param(self, p: Parameter) -> Value:
        """Leaf value for a Parameter; backward accumulates into p.grad."""
        node = self._leaves.get(id(p))
        if node is None:
            node = _Node((), (), param=p)
            self.nodes.append(node)
            self._leaves[id(p)] = node
        return Value(p.values, node, self)

    def _apply(self, data: np.ndarray, deps: Sequence[tuple[Value, Callable]]) -> Value:
        tracked = [(v.node, fn) for v, fn in deps if v.node is not None]
        if not tracked:
            return Value(data, None, self)
        node = _Node(tuple(n for n, _ in tracked), tuple(fn for _, fn in tracked))
        self.nodes.append(node)
        return Value(data, node, self)

    # -- elementwise and scalar primitives ------------------------------------

    def add(self, a: Value, b: Value) -> Value:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"add: shapes {a.data.shape} vs {b.data.shape}")
        return self._apply(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])

    def sub(self, a: Value, b: Value) -> Value:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"sub: shapes {a.data.shape} vs {b.data.shape}")
        return self._apply(a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])

    def one_minus(self, a: Value) -> Value:
        return self._apply(1.0 - a.data, [(a, lambda g: -g)])

    def scale(self, a: Value, c: float) -> Value:
        c = float(c)
        return self._apply(a.data * c, [(a, lambda g: g * c)])

    def mul(self, a: Value, b: Value) -> Value:
        """Elementwise product of two same-shape arrays."""
        if a.data.shape != b.data.shape:
            raise ShapeError(f"elementwise-product: shapes {a.data.shape} vs {b.data.shape}")
        ad, bd = a.data, b.data
        return self._apply(ad * bd, [(a, lambda g: g * bd), (b, lambda g: g * ad)])

    def sigmoid(self, a: Value) -> Value:
        s = stable_sigmoid(a.data)
        return self._apply(s, [(a, lambda g: g * s * (1.0 - s))])

    def tanh(self, a: Value) -> Value:
        t = np.tanh(a.data)
        return self._apply(t, [(a, lambda g: g * (1.0 - t * t))])

    def relu(self, a: Value) -> Value:
        ad = a.data
        return self._apply(np.maximum(ad, 0.0), [(a, lambda g: g * (ad > 0.0))])

    def log(self, a: Value) -> Value:
        ad = a.data
        return self._apply(np.log(ad), [(a, lambda g: g / ad)])

    def softplus(self, a: Value) -> Value:
        """log(1 + exp(x)), computed stably; derivative is sigmoid(x)."""
        ad = a.data
        return self._apply(np.logaddexp(0.0, ad), [(a, lambda g: g * stable_sigmoid(ad))])

    # -- reductions and contractions -------------------------------------------

    def sum_reduce(self, a: Value) -> Value:
        ad = a.data
        return self._apply(np.asarray(ad.sum()), [(a, lambda g: np.full_like(ad, float(g)))])

    def row_sums(self, a: Value) -> Value:
        if a.data.ndim != 2:
            raise ShapeError(f"row-sums: expected matrix, got shape {a.data.shape}")
        ad = a.data
        return self._apply(ad.sum(axis=1), [(a, lambda g: np.broadcast_to(g[:, None], ad.shape))])

    def rowdot(self, a: Value, b: Value) -> Value:
        """Per-row dot product of two equal-shape matrices."""
        if a.data.ndim != 2 or a.data.shape != b.data.shape:
            raise ShapeError(f"rowdot: shapes {a.data.shape} vs {b.data.shape}")
        ad, bd = a.data, b.data
        return self._apply(
            (ad * bd).sum(axis=1),
            [(a, lambda g: g[:, None] * bd), (b, lambda g: g[:, None] * ad)],
        )

    def matmul(self, a: Value, b: Value, row_local: bool = False) -> Value:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"matmul: shapes {a.data.shape} vs {b.data.shape}")
        ad, bd = a.data, b.data
        out = _mm_row_local(ad, bd) if row_local else ad @ bd
        return self._apply(out, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])

    # -- structure -------------------------------------------------------------

    def concat_cols(self, a: Value, b: Value) -> Value:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
            raise ShapeError(f"concat-cols: shapes {a.data.shape} vs {b.data.shape}")
        na = a.data.shape[1]
        return self._apply(
            np.concatenate([a.data, b.data], axis=1),
            [(a, lambda g: g[:, :na]), (b, lambda g: g[:, na:])],
        )

    def gather_rows(self, m: Value, idx: np.ndarray, checked: bool = True) -> Value:
        """Select rows by a constant index array."""
        md = m.data
        if checked:
            if md.ndim != 2:
                raise ShapeError(f"gather-rows: expected matrix, got shape {md.shape}")
            idx = np.asarray(idx, dtype=np.intp)
            if idx.size and (idx.min() < 0 or idx.max() >= md.shape[0]):
                raise ShapeError(f"gather-rows: index out of range for {md.shape[0]} rows")

        def vjp(g):
            acc = np.zeros_like(md)
            np.add.at(acc, idx, g)
            return acc

        return self._apply(md[idx], [(m, vjp)])

    def slice_rows(self, m: Value, start: int, stop: int) -> Value:
        """Rows start..stop-1 of m."""
        md = m.data
        if md.ndim != 2 or not 0 <= start <= stop <= md.shape[0]:
            raise ShapeError(f"slice-rows: rows {start}:{stop} of shape {md.shape}")

        def vjp(g):
            acc = np.zeros_like(md)
            acc[start:stop] = g
            return acc

        return self._apply(md[start:stop], [(m, vjp)])

    def pair_relu_sum(self, a: Value, b: Value, blocks: Sequence[PairBlock]) -> Value:
        """Row i is the sum over the neighbours j of node i of relu(a[i] + b[j]).

        blocks (see PairBlock) name the neighbours; rows in no block are
        zero and get zero gradient. relu's derivative at 0 is 0.
        """
        if a.data.ndim != 2 or a.data.shape != b.data.shape:
            raise ShapeError(f"pair-relu-sum: shapes {a.data.shape} vs {b.data.shape}")
        chunks: list[tuple[np.ndarray, ...]] = []
        out = _pair_relu_sum(a.data, b.data, blocks, chunks)

        def vjp_a(g):
            acc = np.zeros_like(g)
            for rows, _, _, mask in chunks:
                acc[rows] = g[rows] * mask.sum(axis=0)
            return acc

        def vjp_b(g):
            acc = np.zeros_like(g)
            for rows, sources, back, mask in chunks:
                per_pair = g[rows] * mask
                flat = per_pair.reshape((-1,) + per_pair.shape[2:])
                acc[sources] = flat[back].sum(axis=1)
            return acc

        return self._apply(out, [(a, vjp_a), (b, vjp_b)])

    def scale_rows(self, m: Value, c: np.ndarray) -> Value:
        """Multiply row i by the constant scalar c[i]."""
        c = _as_array(c)
        if m.data.ndim != 2 or c.shape != (m.data.shape[0],):
            raise ShapeError(f"scale-rows: shapes {m.data.shape} vs {c.shape}")
        col = c[:, None]
        return self._apply(m.data * col, [(m, lambda g: g * col)])

    def add_rowvec(self, m: Value, v: Value) -> Value:
        """Add vector v to every row of m."""
        if m.data.ndim != 2 or v.data.shape != (m.data.shape[1],):
            raise ShapeError(f"add-rowvec: shapes {m.data.shape} vs {v.data.shape}")
        return self._apply(
            m.data + v.data[None, :],
            [(m, lambda g: g), (v, lambda g: g.sum(axis=0))],
        )

    def add_scaled_rowvec(self, m: Value, v: Value, c: np.ndarray) -> Value:
        """Add c[i] times vector v to row i of m, for constant scalars c."""
        if m.data.ndim != 2 or v.data.shape != (m.data.shape[1],) or c.shape != (m.data.shape[0],):
            raise ShapeError(f"add-scaled-rowvec: shapes {m.data.shape}, {v.data.shape}, {c.shape}")
        return self._apply(
            m.data + c[:, None] * v.data[None, :],
            [(m, lambda g: g), (v, lambda g: c @ g)],
        )

    def mul_rowvec(self, m: Value, v: Value) -> Value:
        """Multiply every row of m elementwise by vector v."""
        if m.data.ndim != 2 or v.data.shape != (m.data.shape[1],):
            raise ShapeError(f"mul-rowvec: shapes {m.data.shape} vs {v.data.shape}")
        md, vd = m.data, v.data
        return self._apply(
            md * vd[None, :],
            [(m, lambda g: g * vd[None, :]), (v, lambda g: (g * md).sum(axis=0))],
        )

    def segment_sum(self, m: Value, seg_ids: np.ndarray, n_segments: int) -> Value:
        """Sum rows of m into n_segments buckets; seg_ids must be sorted.

        Empty segments yield zero rows. Each segment's sum depends only on
        its own rows.
        """
        if m.data.ndim != 2:
            raise ShapeError(f"segment-sum: expected matrix, got shape {m.data.shape}")
        seg_ids = np.asarray(seg_ids, dtype=np.intp)
        if seg_ids.shape != (m.data.shape[0],):
            raise ShapeError(f"segment-sum: {seg_ids.shape[0]} ids for {m.data.shape[0]} rows")
        if seg_ids.size and np.any(np.diff(seg_ids) < 0):
            raise ShapeError("segment-sum: segment ids must be sorted ascending")
        starts, out_rows = segment_boundaries(seg_ids)
        return self.segment_sum_prepared(m, seg_ids, starts, out_rows, n_segments)

    def segment_sum_prepared(
        self,
        m: Value,
        seg_ids: np.ndarray,
        starts: np.ndarray,
        out_rows: np.ndarray,
        n_segments: int,
    ) -> Value:
        """segment_sum with precomputed boundaries (see segment_boundaries)."""
        out = _segment_sum(m.data, seg_ids, starts, out_rows, n_segments)
        return self._apply(out, [(m, lambda g: g[seg_ids])])

    # -- reverse pass -----------------------------------------------------------

    def backward(self, output: Value) -> None:
        """Accumulate d(output)/d(parameter) into every Parameter's grad.

        Repeated calls without zeroing the parameters accumulate.
        """
        if np.ndim(output.data) != 0:
            raise ContractError(
                f"backward: output must be scalar, got shape {np.shape(output.data)}"
            )
        if output.node is None:
            raise ContractError("backward: output is not tracked on a tape")
        output.node.grad = np.asarray(1.0)
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            node.grad = None
            if node.param is not None:
                node.param.grad += g
                continue
            for parent, fn in zip(node.parents, node.pvjps):
                contribution = fn(g)
                parent.grad = contribution if parent.grad is None else parent.grad + contribution


def segment_boundaries(seg_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets of each run in a sorted id array, and the run ids."""
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    if seg_ids.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    starts = np.concatenate(([0], np.flatnonzero(np.diff(seg_ids)) + 1))
    return starts, seg_ids[starts]


class ArrayOps:
    """The Tape primitives the model's forward pass calls, on plain arrays.

    Each one returns the array its Tape namesake stores in Value.data, by
    the same numpy operations. Nothing is recorded and nothing is mutated, so
    concurrent runs are safe. Operands are not shape-checked; a Tape run of
    the same forward checks them.

    Leading-axis rule: the matrix primitives act on the last two axes (the
    vector ones on the last axis) and any leading axes broadcast. On 2-D
    operands every primitive computes the same bits as its Tape namesake.
    `substitutes` maps a Parameter to the array param() returns in place of
    its values, e.g. a (K, *shape) stack of perturbed copies: only the
    results downstream of that parameter then carry the K axis.
    """

    # Primitives that are a single numpy function are that function: no
    # extra Python frame per call on the finite-difference path.
    add = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    mul = staticmethod(np.multiply)
    sigmoid = staticmethod(stable_sigmoid)
    tanh = staticmethod(np.tanh)
    segment_sum_prepared = staticmethod(_segment_sum)
    pair_relu_sum = staticmethod(_pair_relu_sum)

    def __init__(self, substitutes: dict[Parameter, np.ndarray] | None = None):
        self._substitutes = substitutes or {}

    def constant(self, x) -> np.ndarray:
        return _as_array(x)

    def param(self, p: Parameter) -> np.ndarray:
        return self._substitutes.get(p, p.values)

    def one_minus(self, a):
        return 1.0 - a

    def scale(self, a, c: float):
        return a * float(c)

    def relu(self, a):
        return np.maximum(a, 0.0)

    def row_sums(self, a):
        return a.sum(axis=-1)

    def rowdot(self, a, b):
        return (a * b).sum(axis=-1)

    def matmul(self, a, b, row_local: bool = False):
        return _mm_row_local(a, b) if row_local else a @ b

    def concat_cols(self, a, b):
        if a.shape[:-2] != b.shape[:-2]:
            lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            a = np.broadcast_to(a, lead + a.shape[-2:])
            b = np.broadcast_to(b, lead + b.shape[-2:])
        return np.concatenate([a, b], axis=-1)

    def gather_rows(self, m, idx, checked: bool = True):
        return m[..., idx, :]

    def slice_rows(self, m, start: int, stop: int):
        return m[..., start:stop, :]

    def scale_rows(self, m, c):
        return m * _as_array(c)[:, None]

    def add_rowvec(self, m, v):
        return m + v[..., None, :]

    def add_scaled_rowvec(self, m, v, c):
        return m + c[:, None] * v[..., None, :]


def _evaluate_in_place(forward: Callable[[], Value]) -> Callable[[Parameter, np.ndarray], np.ndarray]:
    """A value_fn that writes each stack row into the parameter's values,
    runs forward() and restores the values, bit for bit, before returning."""

    def evaluate(p: Parameter, stack: np.ndarray) -> np.ndarray:
        saved = p.values.copy()
        out = np.empty(len(stack))
        try:
            for r, row in enumerate(stack):
                p.values[...] = row  # in place: views of the array stay live
                out[r] = forward().data
        finally:
            p.values[...] = saved
        return out

    return evaluate


def gradient_check(
    forward: Callable[[], Value],
    params: Sequence[Parameter],
    step: float = 1e-5,
    value_fn: Callable[[Parameter, np.ndarray], np.ndarray] | None = None,
) -> float:
    """Worst relative error between tape gradients and central differences.

    forward() must rebuild its computation from the parameters' current
    values and return a tracked scalar. For every parameter entry t the
    tape gradient is compared with (f(t+step) - f(t-step)) / (2 step).
    The relative error uses max(|analytic|, |numeric|, 1) as denominator,
    so a pair of zero gradients contributes 0. A non-finite forward value,
    perturbed value or tape gradient raises NumericError.

    The quotients of one parameter array p are evaluated C entries at a
    time: value_fn(p, stack) gets a (2C, *p.shape) stack whose row r < C is
    p's values with entry r of the chunk raised by step, and row C + r the
    same entry lowered by step. It returns the 2C values of f with p
    replaced by each row, or one scalar that broadcasts when f does not
    depend on p; it must leave p.values as they were. C is bounded so that
    the stack holds at most _FD_STACK_ELEMS elements (at least one entry).
    Without value_fn each row is written into p.values in turn, forward()
    is run on its own tape, and the values are restored afterwards.
    """
    if step <= 0:
        raise ContractError("gradient_check: step must be positive")
    for p in params:
        p.zero_grad()
    out = forward()
    if not np.isfinite(out.data):
        raise NumericError("gradient_check: forward value is not finite")
    if out.node is None:
        # Constant forward: no parameter use, every gradient is zero.
        analytic = [np.zeros_like(p.values) for p in params]
    else:
        out.tape.backward(out)
        analytic = [p.grad.copy() for p in params]
    if not all(np.all(np.isfinite(a)) for a in analytic):
        raise NumericError("gradient_check: tape gradient is not finite")
    evaluate = value_fn if value_fn is not None else _evaluate_in_place(forward)

    worst = 0.0
    for p, grads in zip(params, analytic):
        flat_values = p.values.reshape(-1)
        flat_grads = grads.reshape(-1)
        size = flat_values.size
        chunk = max(1, _FD_STACK_ELEMS // max(2 * size, 1))
        for start in range(0, size, chunk):
            entries = np.arange(start, min(start + chunk, size))
            c, rows = entries.size, np.arange(entries.size)
            stack = np.empty((2, c, size))
            stack[...] = flat_values
            orig = flat_values[entries]
            stack[0, rows, entries] = orig + step
            stack[1, rows, entries] = orig - step
            values = np.broadcast_to(evaluate(p, stack.reshape((2 * c,) + p.shape)), (2 * c,))
            if not np.all(np.isfinite(values)):
                raise NumericError("gradient_check: perturbed forward value is not finite")
            numeric = (values[:c] - values[c:]) / (2.0 * step)
            a = flat_grads[entries]
            err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
            worst = max(worst, float(err.max()))
    return float(worst)
