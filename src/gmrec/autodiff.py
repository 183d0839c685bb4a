"""Minimal reverse-mode differentiation over the primitives the model needs.

Design rules:
  * 64-bit floats everywhere; the tolerances in the tests rely on it.
  * No implicit broadcasting between tracked operands: shapes are checked
    explicitly and a mismatch raises ShapeError naming the primitive.
  * A tape is an append-only list of recorded applications, so reverse
    iteration is a valid topological order and one backward pass visits
    each node exactly once.
  * A backward pass consumes its tape: each node drops its VJP, and the
    arrays that VJP saved, as soon as its contributions are applied, so
    the pass's working memory shrinks as it goes. A second backward on the
    tape raises ContractError.
  * relu's derivative at exactly 0 is 0.

Each primitive is one row of PRIMITIVES: its forward on arrays, its shape
rule, its VJP maker and its operand count. One function builds every row's
Tape method, of any arity: check the shapes, run the forward on the
operands' data and, if any operand is tracked, record one node whose
parents are the tracked operands, in operand order. ArrayOps exposes
the forwards themselves, so the model's forward pass, written once against
an ops object, computes the same arrays bit for bit on a Tape, which
records it for the backward pass, and on ArrayOps, which records nothing.

The GRU is the one operation outside the table: _gru_forward runs it on
every ops object, through that object's matmul, and Tape.gru records a run
as one node, whose VJP is one pass over the steps. Its gradients are
within 1e-14 of the largest entry of those of the per-primitive chain it
replaced, and have their bits when no parent already holds a gradient
and no Value is read twice.

The ops object also chooses the product kernels, so the forward only
states what to compute. Tape and ArrayOps run one BLAS product over all
rows: the batched training loop, batch scoring and the gradient check use
it, where only run-to-run determinism matters. RowLocalOps computes each
row of a matrix product or per-row dot as its own (1, k) @ (k, n) or
(1, k) @ (k, 1) product: numpy's stacked matmul over a per-row axis hands
every row to BLAS separately, so a row's bits do not depend on how many
rows are stacked with it or where it sits. Per-sample prediction runs on
it so that structural identities (node reordering, role swap, single-node
graphs) hold exactly. A matmul's left operand is made C-contiguous first:
numpy passes a row to BLAS only when its elements are adjacent, and
otherwise falls back to its own loop, which sums in another order.

Importing the engine on glibc fixes malloc's thresholds for the whole
process (fix_malloc_thresholds): blocks of up to 32 MiB, the ceiling of
glibc's dynamic mmap threshold on 64-bit, come from the heap, and up to
64 MiB of freed heap, twice that, stays mapped. Both are set, as setting
either switches the dynamic rule off. A rank request or a training step
then reuses the pages the last one freed instead of faulting in fresh
ones. With any of glibc's malloc tunables set in the environment, or on
another C library, nothing changes.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError


_MALLOC_TUNABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers in glibc's malloc.h


def fix_malloc_thresholds(environ=os.environ, libc=None) -> bool:
    """Apply the malloc policy of the module docstring; True if applied.
    libc defaults to the process's own symbols. Never raises."""
    if any(name in environ for name in _MALLOC_TUNABLES) or "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""):
        return False
    if libc is None:
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):  # TypeError: Windows loads no library by None
            return False
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return True


fix_malloc_thresholds()


class Parameter:
    """Trainable array plus a same-shape gradient accumulator."""

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str = "", grad: np.ndarray | None = None):
        # asarray with order="C" keeps 0-d shapes and shares memory when the
        # input already qualifies (the embedding table and the arena's views rely on that).
        self.values = np.asarray(values, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.values) if grad is None else grad
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.values.shape})"


class _Node:
    """A recorded application: vjp(g) returns one contribution per parent,
    in order, for the gradient g of its output; a parent is a _Node or a
    Parameter, maybe listed twice. backward adds them in that order."""

    __slots__ = ("parents", "vjp", "grad")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp
        self.grad = None


class Value:
    """An array tracked on a tape: node is the _Node that recorded it, the
    Parameter it reads, or None for constants."""

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
    """1/(1+exp(-x)) computed without overflow for any finite x; an ndarray
    even for a 0-d x.

    The numerator is max(e, x >= 0) for e = exp(-|x|): where x >= 0, e <= 1
    and it is 1; elsewhere it is e. That is np.where(x >= 0, 1.0, e) bit for
    bit, without np.where's slow path for a scalar branch.
    """
    return _sigmoid_of(np.array(x, dtype=np.float64))


def _sigmoid_of(x: np.ndarray) -> np.ndarray:
    """stable_sigmoid(x) for a float64 array x that the caller gives up: x
    holds e, then 1 + e."""
    nonnegative = x >= 0
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    out = np.maximum(x, nonnegative, out=np.empty_like(x))
    x += 1.0
    out /= x
    return out


# pair_relu_sum works through a block a few graphs at a time, so that its
# per-pair temporaries hold at most this many elements (or one graph's, if
# more): a call's working memory does not grow with the graphs of a shape.
_PAIR_CHUNK_ELEMS = 1 << 16

# gradient_check builds the perturbed copies of one parameter array in
# chunks of at most this many elements, which bounds every batched forward.
_FD_STACK_ELEMS = 1 << 16


def _mm_row_local(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-local product over the last two axes; leading axes broadcast.

    Each row of a is its own (1, k) @ (k, n) matmul. a is made C-contiguous
    so that numpy can pass each row to BLAS: a row whose elements are not
    adjacent (a Fortran-ordered or transposed a) goes through numpy's own
    loop instead, whose bits differ from those of the same row alone.
    """
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., :, None, :], b[..., None, :, :])[..., 0, :]


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


class Primitive(NamedTuple):
    """One row of PRIMITIVES (see the module docstring). A call's first
    `operands` arguments are operands, the rest constants; with operands
    None the row is variadic and every argument is an operand."""

    forward: Callable  # (*operands, *constants) -> array, by ArrayOps' leading-axis rule
    vjps: Callable  # (out, *operands, *constants) -> one g -> array per operand
    operands: int | None = 1
    check: Callable | None = None  # (*2-D operands, *constants) -> whether the shapes fit
    expects: str = ""  # what check asks, for the ShapeError
    saves: bool = False  # on a Tape, forward and vjps get one more constant: a fresh list


def _same_shape(a, b):
    return a.shape == b.shape


def _same_matrix(a, b, *_):
    return a.ndim == 2 and a.shape == b.shape


def _is_rowvec(m, v, *_):
    return m.ndim == 2 and v.shape == (m.shape[1],)


def _concat_cols(a, b):
    if a.shape[:-2] != b.shape[:-2]:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a = np.broadcast_to(a, lead + a.shape[-2:])
        b = np.broadcast_to(b, lead + b.shape[-2:])
    return np.concatenate([a, b], axis=-1)


def _gather_rows_vjps(out, m, idx):
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        # Scatter-add over the flat buffer: numpy's fast path for 1-D
        # ufunc.at, adding in the same order as np.add.at over rows.
        acc = np.zeros_like(m)
        cols = m.shape[1]
        np.add.at(acc.reshape(-1), (idx[:, None] * cols + np.arange(cols)).reshape(-1), g.reshape(-1))
        return acc

    return (vjp,)


def _slice_rows_vjps(out, m, start, stop):
    def vjp(g):
        acc = np.zeros_like(m)
        acc[start:stop] = g
        return acc

    return (vjp,)


def _pair_relu_sum_vjps(out, a, b, blocks, chunks):
    """The VJPs of _pair_relu_sum, from the relu masks its forward kept in chunks."""

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

    return vjp_a, vjp_b


# Every differentiable primitive, once. The forwards act on the last two
# axes (the vector ones on the last axis) and broadcast leading axes, except
# sum_reduce and sq_norm_sum, which sum every entry.
PRIMITIVES: dict[str, Primitive] = {
    "add": Primitive(np.add, lambda out, a, b: (lambda g: g, lambda g: g), 2, _same_shape, "one shape"),
    "sub": Primitive(np.subtract, lambda out, a, b: (lambda g: g, np.negative), 2, _same_shape, "one shape"),
    "mul": Primitive(np.multiply, lambda out, a, b: (lambda g: g * b, lambda g: g * a), 2, _same_shape,
                     "one shape for an elementwise-product"),
    "scale": Primitive(lambda a, c: a * float(c), lambda out, a, c: (lambda g: g * float(c),)),
    "sigmoid": Primitive(stable_sigmoid, lambda s, a: (lambda g: g * s * (1.0 - s),)),
    "tanh": Primitive(np.tanh, lambda t, a: (lambda g: g * (1.0 - t * t),)),
    "relu": Primitive(lambda a: np.maximum(a, 0.0), lambda out, a: (lambda g: g * (a > 0.0),)),
    "log": Primitive(np.log, lambda out, a: (lambda g: g / a,)),
    # log(1 + exp(x)), computed stably; its derivative is sigmoid(x).
    "softplus": Primitive(lambda a: np.logaddexp(0.0, a), lambda out, a: (lambda g: g * stable_sigmoid(a),)),
    "sum_reduce": Primitive(lambda a: np.asarray(a.sum()), lambda out, a: (lambda g: np.full_like(a, float(g)),)),
    # Each operand's summed squares, added left to right; like sum_reduce, it sums every entry.
    "sq_norm_sum": Primitive(lambda *arrays: functools.reduce(np.add, (np.asarray((a * a).sum()) for a in arrays)),
                             lambda out, *arrays: [lambda g, a=a: np.full_like(a, float(g)) * a * 2.0 for a in arrays],
                             None, lambda *arrays: bool(arrays), "at least one array"),
    "row_sums": Primitive(lambda a: a.sum(axis=-1), lambda out, a: (lambda g: np.broadcast_to(g[:, None], a.shape),),
                          1, lambda a: a.ndim == 2, "a matrix"),
    # Per-row dot product.
    "rowdot": Primitive(lambda a, b: (a * b).sum(axis=-1),
                        lambda out, a, b: (lambda g: g[:, None] * b, lambda g: g[:, None] * a),
                        2, _same_matrix, "two matrices of one shape"),
    "matmul": Primitive(np.matmul, lambda out, a, b: (lambda g: g @ b.T, lambda g: a.T @ g), 2,
                        lambda a, b: a.ndim == 2 == b.ndim and a.shape[1] == b.shape[0], "(m, k) and (k, n) matrices"),
    "concat_cols": Primitive(_concat_cols, lambda out, a, b: (lambda g, n=a.shape[1]: g[:, :n],
                                                              lambda g, n=a.shape[1]: g[:, n:]), 2,
                             lambda a, b: a.ndim == 2 == b.ndim and a.shape[0] == b.shape[0],
                             "two matrices with one row count"),
    # The rows of m at the constant indices idx.
    "gather_rows": Primitive(lambda m, idx: m[..., idx, :], _gather_rows_vjps, 1,
                             lambda m, idx: m.ndim == 2 and (not np.size(idx) or 0 <= np.min(idx)
                                                             and np.max(idx) < m.shape[0]),
                             "a matrix and row indices in range"),
    # Rows start..stop-1 of m.
    "slice_rows": Primitive(lambda m, start, stop: m[..., start:stop, :], _slice_rows_vjps, 1,
                            lambda m, start, stop: m.ndim == 2 and 0 <= start <= stop <= m.shape[0],
                            "a matrix and rows 0 <= start <= stop <= its rows"),
    # Row i is the sum over the neighbours j of node i of relu(a[i] + b[j]).
    # The blocks (see PairBlock) name the neighbours; rows in no block are
    # zero and get zero gradient.
    "pair_relu_sum": Primitive(_pair_relu_sum, _pair_relu_sum_vjps, 2, _same_matrix, "two matrices of one shape",
                               saves=True),
    # Row i of m times the constant scalar c[i].
    "scale_rows": Primitive(lambda m, c: m * _as_array(c)[:, None],
                            lambda out, m, c: (lambda g: g * _as_array(c)[:, None],),
                            1, lambda m, c: m.ndim == 2 and np.shape(c) == (m.shape[0],),
                            "a matrix and one scalar per row"),
    # Vector v added to every row of m.
    "add_rowvec": Primitive(lambda m, v: m + v[..., None, :], lambda out, m, v: (lambda g: g, lambda g: g.sum(axis=0)),
                            2, _is_rowvec, "a matrix and a vector of its width"),
    # c[i] times vector v added to row i of m, for constant scalars c.
    "add_scaled_rowvec": Primitive(lambda m, v, c: m + c[:, None] * v[..., None, :],
                                   lambda out, m, v, c: (lambda g: g, lambda g: c @ g),
                                   2, lambda m, v, c: _is_rowvec(m, v) and np.shape(c) == (m.shape[0],),
                                   "a matrix, a vector of its width and one scalar per row"),
    # Every row of m times vector v, elementwise.
    "mul_rowvec": Primitive(lambda m, v: m * v[..., None, :],
                            lambda out, m, v: (lambda g: g * v[None, :], lambda g: (g * m).sum(axis=0)),
                            2, _is_rowvec, "a matrix and a vector of its width"),
    # segment_sum with precomputed boundaries (see segment_boundaries).
    "segment_sum_prepared": Primitive(_segment_sum, lambda out, m, seg_ids, *_: (lambda g: g[seg_ids],)),
}


def _shape_error(name: str, row: Primitive, args) -> ShapeError:
    got = ", ".join(str(x.shape) if isinstance(x, np.ndarray) else repr(x) if np.isscalar(x) else "..." for x in args)
    return ShapeError(f"{name.replace('_', '-')}: expected {row.expects}, got {got}")


def _tape_method(name: str, row: Primitive) -> Callable:
    """tape.<name>(operands..., constants...): check the operands' shapes,
    run the row's forward on their data and, when an operand is tracked,
    record one node whose parents are the tracked operands, in order."""
    forward, vjps, check, saves, n = row.forward, row.vjps, row.check, row.saves, row.operands

    def method(self, *args) -> Value:
        plain, tracked = list(args), []  # plain: the arguments, each operand replaced by its data
        for k, a in enumerate(args[:n]):
            plain[k] = a.data
            if a.node is not None:
                tracked.append(k)
        if check is not None and not check(*plain):
            raise _shape_error(name, row, plain)
        if saves:
            plain.append([])
        out = forward(*plain)
        if not tracked:
            return Value(out, None, self)
        fns = vjps(out, *plain)
        node = _Node([args[k].node for k in tracked], lambda g: [fns[k](g) for k in tracked])
        self.nodes.append(node)
        return Value(out, node, self)

    method.__name__, method.__qualname__ = name, f"Tape.{name}"
    return method


# --------------------------------------------------------------------------
# GRU: one forward kernel for every ops object, one node on a Tape
# --------------------------------------------------------------------------
#
# A GRU run's operands are its 9 weights, in GruWeights order (W_z, U_z, b_z,
# W_r, U_r, b_r, W_h, U_h, b_h: update gate, reset gate, candidate), then its
# steps, then h0 when given. Indices into that list name the operands below.


def _into(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc(a, b), written into a when the result has a's shape. Leading
    axes are none or one stack axis, so that is when a has as many axes as b."""
    return ufunc(a, b, out=a if a.ndim >= b.ndim else None)


def _gate(matmul, x, w, b, h=None, u=None) -> np.ndarray:
    """(x W + h U) + b in a fresh array, b added to every row; x W + b
    without h."""
    a = matmul(x, w)
    if h is not None:
        a = _into(np.add, a, matmul(h, u))
    return _into(np.add, a, b[..., None, :])


def _gru_fits(steps, weights, h, lead: bool) -> bool:
    """Whether the steps and h are (n, d), the W and U (d, d) and the b (d,):
    on the trailing axes if lead, on all axes otherwise."""
    if len(weights) != 9 or not steps or np.ndim(steps[0]) < 2:
        return False
    n, d = steps[0].shape[-2:]
    arrays = [*weights, *steps] + ([] if h is None else [h])
    shapes = [(d, d), (d, d), (d,)] * 3 + [(n, d)] * (len(arrays) - 9)
    return all(a.shape[-len(s):] == s if lead else a.shape == s for a, s in zip(arrays, shapes))


def _gru_forward(matmul, steps, weights, h=None, saved: list | None = None) -> np.ndarray:
    """The GRU over the step inputs from hidden state h, zero if None.

    Gate equations, per row:
      update z = sigmoid((x W_z + h U_z) + b_z)
      reset  r = sigmoid((x W_r + h U_r) + b_r)
      cand   c = tanh((x W_h + (r * h) U_h) + b_h)
      h'       = (1 - z) * h + z * c
    The step from h = 0 is specialized: the reset gate has no effect there
    and h' reduces to z * c. Every product goes through matmul, the ops
    object's kernel. When saved is a list (on a Tape), each step appends
    the arrays the backward pass reads, (z, c) for the step from h = 0 and
    (h, z, r, r * h, c) for the others, and no saved array is written;
    otherwise the gates are overwritten in place as soon as they are used.
    Leading axes broadcast, as ArrayOps' rule says, except on a Tape.
    """
    if not _gru_fits(steps, weights, h, lead=saved is None):
        got = ", ".join(str(np.shape(a)) for a in [*weights, *steps, *([] if h is None else [h])])
        raise ShapeError(f"gru: expected 9 weights (d, d), (d, d), (d,) three times, then steps and h0 "
                         f"of one (n, d) shape, got {got}")
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = weights
    keep = saved is not None
    if h is None:
        x, steps = steps[0], steps[1:]
        z = _sigmoid_of(_gate(matmul, x, w_z, b_z))
        c = _gate(matmul, x, w_h, b_h)
        np.tanh(c, out=c)
        if keep:
            saved.append((z, c))
        h = z * c if keep else _into(np.multiply, c, z)
    for x in steps:
        z = _sigmoid_of(_gate(matmul, x, w_z, b_z, h, u_z))
        r = _sigmoid_of(_gate(matmul, x, w_r, b_r, h, u_r))
        rh = r * h if keep else _into(np.multiply, r, h)
        c = _gate(matmul, x, w_h, b_h, rh, u_h)
        np.tanh(c, out=c)
        if keep:
            saved.append((h, z, r, rh, c))
        del r, rh
        zc = z * c if keep else _into(np.multiply, c, z)
        h = _into(np.add, _into(np.multiply, np.subtract(1.0, z, out=None if keep else z), h), zc)
        del z, c, zc
    return h


def _gru_backward(g, steps, weights, saved, need) -> list:
    """The gradients of the GRU run's operands that need marks, in operand
    order, for the gradient g of its output.

    One pass over the steps, last to first. Each contribution has the
    arithmetic of the chain's VJP for it (oracles.gru_chain), and each
    operand sums its contributions in the chain's order: steps last to
    first, and in a step h' = (1 - z) * h + z * c, then the candidate, the
    reset and the update gate.
    """
    grads = [None] * len(need)

    def add(k, c):
        grads[k] = c if grads[k] is None else _into(np.add, grads[k], c)

    for t in range(len(steps) - 1, -1, -1):
        x, state = steps[t], saved[t]
        h, z, r, rh, c = state if len(state) == 5 else (None, state[0], None, None, state[1])  # from h = 0: z * c
        one_minus_z = 1.0 - z
        g_z = g * c
        if h is not None:
            g_z -= g * h
        g_z *= z
        g_z *= one_minus_z
        dh = g * one_minus_z if h is not None and (t > 0 or need[-1]) else None  # the g of the step before
        g_c = g * z
        g_c *= 1.0 - c * c
        gates = [(6, g_c, rh)]  # (k, g, h) for the gate (x W + h U) + b of operands k, k + 1, k + 2
        if h is not None:
            g_r = g_c @ weights[7].T  # the gradient of r * h
            if dh is not None:
                dh += g_r * r
            g_r *= h
            g_r *= r
            g_r *= 1.0 - r
            gates.append((3, g_r, h))
        gates.append((0, g_z, h))
        for k, g_a, h_in in gates:
            if need[k + 2]:
                add(k + 2, g_a.sum(axis=0))
            if h_in is not None and need[k + 1]:
                add(k + 1, h_in.T @ g_a)
            if dh is not None and k != 6:  # the candidate's reached dh through r * h above
                dh += g_a @ weights[k + 1].T
            if need[9 + t]:
                add(9 + t, g_a @ weights[k].T)
            if need[k]:
                add(k, x.T @ g_a)
        g = dh
    if g is not None:
        grads[-1] = g
    return [c for c, wanted in zip(grads, need) if wanted]


class Tape:
    """Recorded differentiable computation whose leaves are Parameters.

    Every row of PRIMITIVES is a method of the same name, built by
    _tape_method; the methods below are the rest.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False  # set by backward

    def constant(self, x) -> Value:
        return Value(_as_array(x), None, self)

    def param(self, p: Parameter) -> Value:
        """p's values, tracked with p itself as the leaf; records nothing.
        backward accumulates into p.grad."""
        return Value(p.values, p, self)

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

    def gru(self, steps: Sequence[Value], weights: Sequence[Value], h0: Value | None = None) -> Value:
        """The GRU of _gru_forward over matrices, as one node.

        weights are the 9 GRU arrays in GruWeights order. The node's
        parents are the tracked operands the run reads, in operand order (a
        lone step from h = 0 reads no U and nothing of the reset gate), and
        its VJP is one _gru_backward pass: each gradient is within 1e-14 of
        the largest entry of the per-primitive chain's (oracles.gru_chain),
        and has its bits when no parent already holds a gradient and no
        Value is read twice.
        """
        xs, w, h = [v.data for v in steps], [v.data for v in weights], None if h0 is None else h0.data
        saved: list = []
        out = _gru_forward(np.matmul, xs, w, h, saved)
        operands = [*weights, *steps] + ([] if h0 is None else [h0])
        lone = len(steps) == 1 and h0 is None
        need = [v.node is not None and not (lone and k in (1, 3, 4, 5, 7)) for k, v in enumerate(operands)]
        if not any(need):
            return Value(out, None, self)
        node = _Node([v.node for v, wanted in zip(operands, need) if wanted],
                     lambda g: _gru_backward(g, xs, w, saved, need))
        self.nodes.append(node)
        return Value(out, node, self)

    def backward(self, output: Value) -> None:
        """Accumulate d(output)/d(parameter) into every Parameter's grad,
        consuming the tape.

        A node's gradient is the sum of its contributions; a Parameter adds
        each contribution into p.grad in place as it arrives, so p.grad
        stays the same-shape array. From zeroed grads the result has the
        bits of summing the contributions first. Each node's VJP, and the
        arrays it closed over, is dropped once its contributions are
        applied; the nodes stay listed. So a tape runs backward once: a
        second call raises ContractError before touching any gradient.
        """
        if np.ndim(output.data) != 0:
            raise ContractError(
                f"backward: output must be scalar, got shape {np.shape(output.data)}"
            )
        if output.node is None:
            raise ContractError("backward: output is not tracked on a tape")
        if self.consumed:
            raise ContractError("backward: this tape has already run backward")
        self.consumed = True
        if isinstance(output.node, Parameter):
            output.node.grad += 1.0
            return
        output.node.grad = np.asarray(1.0)
        for node in reversed(self.nodes):
            g, vjp = node.grad, node.vjp
            node.grad = node.vjp = None
            if g is None:
                continue
            for parent, c in zip(node.parents, vjp(g)):
                if isinstance(parent, Parameter):
                    parent.grad += c
                else:
                    parent.grad = c if parent.grad is None else parent.grad + c
            del vjp  # the node's saved arrays go now, not when the next node is reached


def segment_boundaries(seg_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets of each run in a sorted id array, and the run ids."""
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    if seg_ids.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    starts = np.concatenate(([0], np.flatnonzero(np.diff(seg_ids)) + 1))
    return starts, seg_ids[starts]


class ArrayOps:
    """The model's ops object on plain arrays: each row of PRIMITIVES is a
    staticmethod that is the row's forward.

    So every primitive returns the array its Tape namesake stores in
    Value.data, by the same numpy operations. Nothing is recorded and
    nothing is mutated, so concurrent runs are safe. Operands are not
    shape-checked, except gru's trailing axes; a Tape run of the same
    forward checks them.

    Leading-axis rule: the matrix primitives act on the last two axes (the
    vector ones on the last axis) and any leading axes broadcast. On 2-D
    operands every primitive computes the same bits as its Tape namesake.
    `substitutes` maps a Parameter to the array param() returns in place of
    its values, e.g. a (K, *shape) stack of perturbed copies: only the
    results downstream of that parameter then carry the K axis.
    """

    def __init__(self, substitutes: dict[Parameter, np.ndarray] | None = None):
        self._substitutes = substitutes or {}

    def constant(self, x) -> np.ndarray:
        return _as_array(x)

    def param(self, p: Parameter) -> np.ndarray:
        return self._substitutes.get(p, p.values)

    def gru(self, steps, weights, h0=None) -> np.ndarray:
        """Tape.gru's forward, through this object's matmul."""
        return _gru_forward(self.matmul, steps, weights, h0)


for _name, _row in PRIMITIVES.items():
    setattr(Tape, _name, _tape_method(_name, _row))
    setattr(ArrayOps, _name, staticmethod(_row.forward))


class RowLocalOps(ArrayOps):
    """ArrayOps whose matmul and rowdot are row-local (see the module
    docstring): each output row has the bits of that row computed alone."""

    matmul = staticmethod(_mm_row_local)
    rowdot = staticmethod(lambda a, b: np.matmul(a[..., :, None, :], b[..., :, :, None])[..., 0, 0])


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
    if not (math.isfinite(step) and step > 0):
        raise ContractError("gradient_check: step must be finite and positive")
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
