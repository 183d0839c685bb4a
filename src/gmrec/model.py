"""The node-matching GNN over attribute graphs and its graph-matching score.

Forward pass for one sample:
  1. Every attribute-value pair becomes a node u = val * v.
  2. Same-side interactions: each ordered node pair (i, j) of one graph is
     fed through a shared two-layer MLP (2d -> 4d hidden with relu -> d
     linear), and node i sums its pair outputs into a message vector z_i.
     The MLP and its weights are as stated; only the order of evaluation
     differs. The first layer is linear in each half of its input and the
     output layer commutes with the sum, so with W_a, W_b the top and
     bottom d rows of w_in,
       z_i = (sum_{j != i} relu(u_i W_a + u_j W_b + b_hidden)) w_out
             + (p - 1) b_out
     for a p-node graph. The three matrix products run once per node; only
     the add, relu and neighbour sum run per pair, over dense blocks of
     the graphs that share a size. The MLP cross kinds are evaluated the
     same way over user-item pairs. The elementwise pair model (inner=bi)
     sums u_i * u_j over the other nodes j, computed from the side sum as
       z_i = u_i * (sum of the side - u_i),
     so no pair is formed. This is exactly 0 for a single-node side and
     otherwise differs from the per-pair sum by rounding alone: each
     element within a few eps of |u_i| * (sum over the side of |u_j|).
  3. Cross-side interactions: node i elementwise-multiplies its
     representation with every node of the opposite graph and sums,
     s_i = u_i * (sum of opposite nodes). The union wiring below uses the
     side-sum form of step 2 over the whole sample.
  4. A shared GRU cell consumes the sequence [u_i, z_i, s_i] from a zero
     hidden state; the final hidden state is the fused node u'_i.
  5. Each graph's fused nodes are summed into a graph representation and
     the two representations are matched by dot product, giving the score.

The engine below runs any number of samples as one stacked computation:
nodes of all samples form one matrix, pair and segment index arrays keep
each sample's graphs separate. build_plan makes those arrays by numpy index
arithmetic, with no Python loop per sample or per attribute: one flat pass
collects side sizes, attribute ids and values, one lexsort by (side, id)
orders the nodes, one binary search over the table's sorted ids finds the
embedding rows, and the segment and pair arrays follow from repeat and
cumsum over the side sizes. Inside a sample, nodes are processed in
ascending attribute-id order, so reordering the input attributes cannot
change any bit of the output. With row_local=True all matrix products use
the row-local kernel, and the pair sums always add a node's terms in
neighbour order, making per-row results independent of what else is
stacked; predict() relies on this for its exact structural identities.

The engine is written once, against an ops object. Training runs it on a
Tape, which records it for the backward pass; scoring, predict(), the
spec-level functions and the difference quotients of the gradient check run
it on ArrayOps, which computes the same arrays bit for bit and records
nothing.

Ablation switches (VariantConfig) swap the pair model (mlp or elementwise
product), the cross model (elementwise product, shared or separate MLP,
or none), the fusing function (gru, sum, or a 3d -> 4d -> d MLP), and the
overall wiring: mode "union" treats every interaction as a cross
interaction over the union of both node sets and scores by summing both
graph representations' elements; mode "fm" additionally fixes the fusing
to u_i + half the summed cross products, which makes the score collapse
to the factorization-machine formula.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ArrayOps, PairBlock, Parameter, Tape, Value
from .data import (
    AttributeId,
    AttributeValuePair,
    DataSample,
    EmbeddingTable,
    init_embeddings,
)
from .errors import ContractError, InvalidConfigError, ShapeError
from .graphs import AttributeGraph

INNER_KINDS = ("mlp", "bi")
CROSS_KINDS = ("bi", "mlp_shared", "mlp_separate", "none")
FUSE_KINDS = ("gru", "sum", "mlp")
MODES = ("graph", "union", "fm")


@dataclass(frozen=True)
class VariantConfig:
    """Which sub-model handles each interaction type, plus the wiring mode."""

    inner: str = "mlp"
    cross: str = "bi"
    fuse: str = "gru"
    mode: str = "graph"

    def __post_init__(self):
        if self.mode == "fm":
            # The reduction is fully determined: elementwise products over
            # the union set, linear fusing, element-sum matching.
            object.__setattr__(self, "inner", "bi")
            object.__setattr__(self, "cross", "bi")
            object.__setattr__(self, "fuse", "sum")
        if self.inner not in INNER_KINDS:
            raise InvalidConfigError(f"unknown inner kind {self.inner!r}")
        if self.cross not in CROSS_KINDS:
            raise InvalidConfigError(f"unknown cross kind {self.cross!r}")
        if self.fuse not in FUSE_KINDS:
            raise InvalidConfigError(f"unknown fuse kind {self.fuse!r}")
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.cross == "mlp_shared" and self.inner != "mlp":
            raise InvalidConfigError("cross=mlp_shared needs an inner MLP to share")
        if self.mode == "union" and self.cross != "bi":
            raise InvalidConfigError("mode=union supports only cross=bi")


CANONICAL = VariantConfig()
FM_REDUCTION = VariantConfig(inner="bi", cross="bi", fuse="sum", mode="fm")


def parse_variant(text: str) -> VariantConfig:
    """Parse a config string like "inner=mlp,cross=bi,fuse=gru"."""
    fields = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise InvalidConfigError(f"bad variant token {token!r}")
        key, _, value = token.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ("inner", "cross", "fuse", "mode"):
            raise InvalidConfigError(f"unknown variant key {key!r}")
        fields[key] = value
    if fields.get("mode") == "fm":
        return FM_REDUCTION
    return VariantConfig(**fields)


def format_variant(v: VariantConfig) -> str:
    if v.mode == "fm":
        return "mode=fm"
    text = f"inner={v.inner},cross={v.cross},fuse={v.fuse}"
    if v.mode != "graph":
        text += f",mode={v.mode}"
    return text


@dataclass
class MlpWeights:
    """Two-layer perceptron, stored input-major so rows multiply directly."""

    w_in: Parameter  # (in_dim, hidden)
    b_hidden: Parameter  # (hidden,)
    w_out: Parameter  # (hidden, out_dim)
    b_out: Parameter  # (out_dim,)

    def parameters(self) -> list[Parameter]:
        return [self.w_in, self.b_hidden, self.w_out, self.b_out]


@dataclass
class GruWeights:
    """One GRU cell: update and reset gates plus the candidate state."""

    w_update: Parameter
    u_update: Parameter
    b_update: Parameter
    w_reset: Parameter
    u_reset: Parameter
    b_reset: Parameter
    w_cand: Parameter
    u_cand: Parameter
    b_cand: Parameter

    def parameters(self) -> list[Parameter]:
        return [
            self.w_update, self.u_update, self.b_update,
            self.w_reset, self.u_reset, self.b_reset,
            self.w_cand, self.u_cand, self.b_cand,
        ]


@dataclass
class ModelParams:
    """Everything trainable: embedding table plus MLP and GRU weights."""

    table: EmbeddingTable
    emb: Parameter
    inner_mlp: MlpWeights | None = None
    gru: GruWeights | None = None
    cross_mlp: MlpWeights | None = None
    fuse_mlp: MlpWeights | None = None

    @property
    def dim(self) -> int:
        return self.table.dim

    def parameters(self) -> list[Parameter]:
        """Registry order: embeddings, inner MLP, GRU, cross MLP, fuse MLP."""
        out = [self.emb]
        for part in (self.inner_mlp, self.gru, self.cross_mlp, self.fuse_mlp):
            if part is not None:
                out.extend(part.parameters())
        return out

    def copy_values(self) -> list[np.ndarray]:
        return [p.values.copy() for p in self.parameters()]

    def load_values(self, values: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise ContractError("parameter count mismatch when restoring values")
        for p, v in zip(params, values):
            if p.values.shape != v.shape:
                raise ContractError("parameter shape mismatch when restoring values")
            p.values[...] = v


def parameter_layout(variant: VariantConfig, dim: int) -> list[tuple[str, list[tuple[int, ...]]]]:
    """The weight components a variant trains, in registry order, each with
    the shapes of its arrays in parameters() order.

    This is the one statement of the rule: init_model_params builds from it
    and checkpoints are checked against it. The embedding table, shaped
    (attributes, dim), precedes these in the registry.
    """

    def mlp(in_dim: int) -> list[tuple[int, ...]]:
        return [(in_dim, 4 * dim), (4 * dim,), (4 * dim, dim), (dim,)]

    layout = []
    if variant.mode == "graph" and (variant.inner == "mlp" or variant.cross in ("mlp_shared", "mlp_separate")):
        layout.append(("inner_mlp", mlp(2 * dim)))
    if variant.mode != "fm" and variant.fuse == "gru":
        layout.append(("gru", [(dim, dim), (dim, dim), (dim,)] * 3))
    if variant.mode == "graph" and variant.cross == "mlp_separate":
        layout.append(("cross_mlp", mlp(2 * dim)))
    if variant.mode != "fm" and variant.fuse == "mlp":
        layout.append(("fuse_mlp", mlp(3 * dim)))
    return layout


def _init_array(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def init_model_params(
    universe,
    dim: int,
    seed: int,
    variant: VariantConfig = CANONICAL,
) -> ModelParams:
    """Seeded init. Embeddings are uniform on +-1/sqrt(dim); weight matrices
    uniform on +-1/sqrt(fan_in), drawn in registry order; biases zero. A
    separate cross MLP starts as an exact copy of the inner MLP, so shared
    and separate coincide at step 0.
    """
    table = init_embeddings(universe, dim, seed)
    mp = ModelParams(table=table, emb=Parameter(table.matrix, "embeddings"))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for name, shapes in parameter_layout(variant, dim):
        if name == "cross_mlp":
            arrays = [p.values.copy() for p in mp.inner_mlp.parameters()]
        else:
            arrays = [_init_array(rng, shape) for shape in shapes]
        kind = GruWeights if name == "gru" else MlpWeights
        setattr(mp, name, kind(*(Parameter(a, f"{name}.{f.name}") for a, f in zip(arrays, fields(kind)))))
    return mp


# --------------------------------------------------------------------------
# Stacked-batch index plan
# --------------------------------------------------------------------------


@dataclass
class _SegIndex:
    """Sorted segment ids with precomputed run boundaries."""

    ids: np.ndarray
    starts: np.ndarray
    out_rows: np.ndarray
    n: int


@dataclass
class _Neighbourhoods:
    """Whom each node pairs with, as the dense blocks of pair_relu_sum."""

    blocks: list[PairBlock]
    counts: np.ndarray  # (n_nodes,) neighbours per node, as floats


@dataclass
class _Plan:
    n_samples: int
    n_nodes: int
    n_sides: int
    attr_rows: np.ndarray  # (n_nodes,) embedding rows
    vals: np.ndarray  # (n_nodes,)
    by_side: _SegIndex  # node -> side segment (2*b user, 2*b+1 item)
    by_sample: _SegIndex  # node -> sample
    opp_seg: np.ndarray  # (n_nodes,) opposite side segment per node
    user_seg: np.ndarray  # (n_samples,)
    item_seg: np.ndarray  # (n_samples,)
    # First node of each same-side ordered pair, ascending; graph mode.
    # _forward reads only its size (zero: every side is a single node); the
    # benchmark's pair counts read the array.
    pair_a: np.ndarray
    same_side: _Neighbourhoods | None  # every other node of the side; graph mode only
    cross_side: _Neighbourhoods | None  # every node of the opposite side; MLP cross kinds only
    input_pos: np.ndarray  # (n_nodes,) node -> position in the batch's flat input order


@functools.lru_cache(maxsize=64)
def _block_tables(m: int, r: int, same_side: bool) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour slots (k, m) and PairBlock.back for a graph shape.

    Same side (r == m): slot i pairs with every other slot, ascending.
    Otherwise each of m slots pairs with all r slots of the other side.
    The arrays are shared between plans, so they are read-only.
    """
    if same_side:
        t = np.arange(m - 1)[:, None]
        loc = t + (t >= np.arange(m))
    else:
        loc = np.repeat(np.arange(r)[:, None], m, axis=1)
    back = np.argsort(loc.reshape(-1), kind="stable").reshape(r, -1)
    loc.flags.writeable = back.flags.writeable = False
    return loc, back


def _block(rows: np.ndarray, sources: np.ndarray, same_side: bool) -> PairBlock:
    loc, back = _block_tables(len(rows), len(sources), same_side)
    return PairBlock(rows=rows, nbrs=sources[loc], sources=sources, back=back)


def _same_side(starts: np.ndarray, sizes: np.ndarray) -> _Neighbourhoods:
    """Sides given by first node and size, one block per size of at least 2."""
    blocks = []
    for m in sorted(set(sizes.tolist()) - {0, 1}):
        rows = np.arange(m)[:, None] + starts[sizes == m]
        blocks.append(_block(rows, rows, same_side=True))
    return _Neighbourhoods(blocks, np.repeat(sizes - 1.0, sizes))


def _cross_side(starts: np.ndarray, sizes: np.ndarray) -> _Neighbourhoods:
    """Sides given by first node and size, user and item side of each sample
    in turn. Samples are grouped by (p, q); a group has one block for its
    user nodes and one for its item nodes."""
    p, q = sizes[0::2], sizes[1::2]
    blocks = []
    for p_k, q_k in sorted(set(zip(p.tolist(), q.tolist()))):
        sel = (p == p_k) & (q == q_k)
        users = np.arange(p_k)[:, None] + starts[0::2][sel]
        items = np.arange(q_k)[:, None] + starts[1::2][sel]
        blocks += [_block(users, items, same_side=False), _block(items, users, same_side=False)]
    opposite = sizes.reshape(-1, 2)[:, ::-1].reshape(-1)
    return _Neighbourhoods(blocks, np.repeat(opposite.astype(np.float64), sizes))


def build_plan(samples, table: EmbeddingTable, variant: VariantConfig = CANONICAL) -> _Plan:
    """The index plan of a batch, by numpy index arithmetic (see the module
    docstring); input order is sample by sample, user side then item side."""
    sides = [chars for sample in samples for chars in (sample.user_chars, sample.item_chars)]
    pairs = [pair for chars in sides for pair in chars]
    sizes = np.array([len(chars) for chars in sides], dtype=np.intp)
    ids = np.array([pair[0][0] for pair in pairs])
    rows = table.rows(ids)
    n_samples, n_nodes = len(samples), len(pairs)
    side_ids = np.arange(2 * n_samples)
    side = np.repeat(side_ids, sizes)
    order = np.lexsort((ids, side))
    starts = np.cumsum(sizes) - sizes  # no side is empty, so each starts a segment
    same_side = cross_side = None
    pair_a = np.empty(0, dtype=np.intp)
    if variant.mode == "graph":
        same_side = _same_side(starts, sizes)
        pair_a = np.repeat(np.arange(n_nodes), np.repeat(sizes - 1, sizes))
        if variant.cross in ("mlp_shared", "mlp_separate"):
            cross_side = _cross_side(starts, sizes)
    return _Plan(
        n_samples=n_samples,
        n_nodes=n_nodes,
        n_sides=2 * n_samples,
        attr_rows=rows[order],
        vals=np.array([pair[1] for pair in pairs], dtype=np.float64)[order],
        by_side=_SegIndex(ids=side, starts=starts, out_rows=side_ids, n=2 * n_samples),
        by_sample=_SegIndex(ids=side >> 1, starts=starts[0::2], out_rows=np.arange(n_samples), n=n_samples),
        opp_seg=side ^ 1,
        user_seg=side_ids[0::2],
        item_seg=side_ids[1::2],
        pair_a=pair_a,
        same_side=same_side,
        cross_side=cross_side,
        input_pos=order,
    )


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------


@dataclass
class _EngineOut:
    """Forward outputs: tracked Values on a Tape, plain arrays on ArrayOps."""

    nodes: Value  # (n_nodes, d) representations u
    messages: Value  # (n_nodes, d) z
    matches: Value  # (n_nodes, d) s
    fused: Value  # (n_nodes, d) u'
    user_repr: Value  # (n_samples, d)
    item_repr: Value  # (n_samples, d)
    scores: Value  # (n_samples,)


def _mlp_apply(ops: Tape | ArrayOps, w: MlpWeights, x: Value, row_local: bool) -> Value:
    hidden = ops.relu(ops.add_rowvec(ops.matmul(x, ops.param(w.w_in), row_local), ops.param(w.b_hidden)))
    return ops.add_rowvec(ops.matmul(hidden, ops.param(w.w_out), row_local), ops.param(w.b_out))


def _pair_mlp_sums(
    ops: Tape | ArrayOps, w: MlpWeights, nodes: Value, pairs: _Neighbourhoods, d: int, row_local: bool
) -> Value:
    """Row i is the sum of MLP(concat(u_i, u_j)) over the neighbours j of node i.

    The MLP is evaluated per node (step 2 of the module docstring): the
    top and bottom d rows of w_in project every node once, only the add,
    relu and neighbour sum run per pair, and w_out acts on the sums.
    """
    w_in = ops.param(w.w_in)
    first = ops.add_rowvec(ops.matmul(nodes, ops.slice_rows(w_in, 0, d), row_local), ops.param(w.b_hidden))
    second = ops.matmul(nodes, ops.slice_rows(w_in, d, 2 * d), row_local)
    hidden_sums = ops.pair_relu_sum(first, second, pairs.blocks)
    out = ops.matmul(hidden_sums, ops.param(w.w_out), row_local)
    return ops.add_scaled_rowvec(out, ops.param(w.b_out), pairs.counts)


def _gru_sequence(ops: Tape | ArrayOps, w: GruWeights, steps: list[Value], row_local: bool) -> Value:
    """Run the GRU over the step inputs from a zero hidden state.

    Gate equations, per row:
      update = sigmoid(x W_z + h U_z + b_z)
      reset  = sigmoid(x W_r + h U_r + b_r)
      cand   = tanh(x W_h + (reset * h) U_h + b_h)
      h'     = (1 - update) * h + update * cand
    The first step is specialized for h = 0, where the reset gate has no
    effect and h' reduces to update * cand.
    """
    first = steps[0]
    w_update, u_update, b_update = ops.param(w.w_update), ops.param(w.u_update), ops.param(w.b_update)
    w_reset, u_reset, b_reset = ops.param(w.w_reset), ops.param(w.u_reset), ops.param(w.b_reset)
    w_cand, u_cand, b_cand = ops.param(w.w_cand), ops.param(w.u_cand), ops.param(w.b_cand)
    update = ops.sigmoid(ops.add_rowvec(ops.matmul(first, w_update, row_local), b_update))
    cand = ops.tanh(ops.add_rowvec(ops.matmul(first, w_cand, row_local), b_cand))
    h = ops.mul(update, cand)
    for x in steps[1:]:
        update = ops.sigmoid(
            ops.add_rowvec(
                ops.add(ops.matmul(x, w_update, row_local), ops.matmul(h, u_update, row_local)),
                b_update,
            )
        )
        reset = ops.sigmoid(
            ops.add_rowvec(
                ops.add(ops.matmul(x, w_reset, row_local), ops.matmul(h, u_reset, row_local)),
                b_reset,
            )
        )
        cand = ops.tanh(
            ops.add_rowvec(
                ops.add(
                    ops.matmul(x, w_cand, row_local),
                    ops.matmul(ops.mul(reset, h), u_cand, row_local),
                ),
                b_cand,
            )
        )
        h = ops.add(ops.mul(ops.one_minus(update), h), ops.mul(update, cand))
    return h


def _segsum(ops: Tape | ArrayOps, m: Value, seg: _SegIndex) -> Value:
    return ops.segment_sum_prepared(m, seg.ids, seg.starts, seg.out_rows, seg.n)


def _others_product(ops: Tape | ArrayOps, nodes: Value, seg: _SegIndex) -> Value:
    """Row i is u_i * (sum of its segment - u_i): the sum of u_i * u_j over
    the other nodes j of its segment, zero for a node alone in it."""
    sums = _segsum(ops, nodes, seg)
    return ops.mul(nodes, ops.sub(ops.gather_rows(sums, seg.ids, checked=False), nodes))


def _forward(ops: Tape | ArrayOps, plan: _Plan, mp: ModelParams, variant: VariantConfig, row_local: bool) -> _EngineOut:
    d = mp.dim
    emb = ops.param(mp.emb)
    nodes = ops.scale_rows(ops.gather_rows(emb, plan.attr_rows), plan.vals)

    if variant.mode == "graph":
        if not plan.pair_a.size:
            messages = ops.constant(np.zeros((plan.n_nodes, d)))
        elif variant.inner == "mlp":
            messages = _pair_mlp_sums(ops, mp.inner_mlp, nodes, plan.same_side, d, row_local)
        else:
            messages = _others_product(ops, nodes, plan.by_side)
        if variant.cross == "none":
            matches = ops.constant(np.zeros((plan.n_nodes, d)))
        elif variant.cross == "bi":
            side_sums = _segsum(ops, nodes, plan.by_side)
            matches = ops.mul(nodes, ops.gather_rows(side_sums, plan.opp_seg, checked=False))
        else:
            weights = mp.inner_mlp if variant.cross == "mlp_shared" else mp.cross_mlp
            matches = _pair_mlp_sums(ops, weights, nodes, plan.cross_side, d, row_local)
    else:
        # Union wiring: every other node of the same sample, either side,
        # is a cross partner.
        matches = _others_product(ops, nodes, plan.by_sample)
        messages = ops.constant(np.zeros((plan.n_nodes, d)))

    if variant.mode == "fm":
        fused = ops.add(nodes, ops.scale(matches, 0.5))
    elif variant.fuse == "gru":
        fused = _gru_sequence(ops, mp.gru, [nodes, messages, matches], row_local)
    elif variant.fuse == "sum":
        fused = ops.add(ops.add(nodes, messages), matches)
    else:
        stacked = ops.concat_cols(ops.concat_cols(nodes, messages), matches)
        fused = _mlp_apply(ops, mp.fuse_mlp, stacked, row_local)

    graph_reprs = _segsum(ops, fused, plan.by_side)
    user_repr = ops.gather_rows(graph_reprs, plan.user_seg, checked=False)
    item_repr = ops.gather_rows(graph_reprs, plan.item_seg, checked=False)
    if variant.mode in ("union", "fm"):
        scores = ops.add(ops.row_sums(user_repr), ops.row_sums(item_repr))
    else:
        scores = ops.rowdot(user_repr, item_repr)
    return _EngineOut(
        nodes=nodes, messages=messages, matches=matches, fused=fused,
        user_repr=user_repr, item_repr=item_repr, scores=scores,
    )


def score_samples(samples, mp: ModelParams, variant: VariantConfig = CANONICAL, batch_size: int = 2048) -> np.ndarray:
    """Untracked scores, batched; safe to call concurrently over read-only params."""
    out = np.empty(len(samples))
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        plan = build_plan(chunk, mp.table, variant)
        out[start:start + len(chunk)] = _forward(ArrayOps(), plan, mp, variant, row_local=False).scores
    return out


# --------------------------------------------------------------------------
# Per-sample prediction with diagnostics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeDiagnostics:
    att: AttributeId
    representation: np.ndarray  # u
    message: np.ndarray  # z
    match: np.ndarray  # s
    fused: np.ndarray  # u'


@dataclass(frozen=True)
class ForwardResult:
    user_repr: np.ndarray
    item_repr: np.ndarray
    score: float
    user_nodes: tuple[NodeDiagnostics, ...]
    item_nodes: tuple[NodeDiagnostics, ...]

    @property
    def probability(self) -> float:
        """Sigmoid link from the raw matching score."""
        if self.score >= 0:
            return float(1.0 / (1.0 + np.exp(-self.score)))
        e = np.exp(self.score)
        return float(e / (1.0 + e))


def predict(sample: DataSample, mp: ModelParams, variant: VariantConfig = CANONICAL) -> ForwardResult:
    """Forward one sample, keeping per-node diagnostics.

    Internally nodes are processed in ascending attribute-id order with
    row-local kernels, so the score is bit-identical under any reordering
    of the input attributes and under swapping the user and item roles.
    """
    plan = build_plan([sample], mp.table, variant)
    out = _forward(ArrayOps(), plan, mp, variant, row_local=True)

    def diag(att, row):
        return NodeDiagnostics(
            att=att,
            representation=out.nodes[row].copy(),
            message=out.messages[row].copy(),
            match=out.matches[row].copy(),
            fused=out.fused[row].copy(),
        )

    chars = sample.user_chars + sample.item_chars
    nodes = tuple(diag(c.att, row) for c, row in zip(chars, np.argsort(plan.input_pos)))
    user_nodes, item_nodes = nodes[:len(sample.user_chars)], nodes[len(sample.user_chars):]
    user_repr = out.user_repr[0].copy()
    item_repr = out.item_repr[0].copy()
    if variant.mode in ("union", "fm"):
        score = float(out.scores[0])
    else:
        score = float(np.dot(user_repr, item_repr))
    return ForwardResult(
        user_repr=user_repr,
        item_repr=item_repr,
        score=score,
        user_nodes=user_nodes,
        item_nodes=item_nodes,
    )


# --------------------------------------------------------------------------
# Spec-level operations on explicit vectors and graphs
# --------------------------------------------------------------------------


def _check_dim(vec: np.ndarray, d: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (d,):
        raise ShapeError(f"{what}: expected length {d}, got shape {vec.shape}")
    return vec


def inner_message(u_i, u_j, mp: ModelParams) -> np.ndarray:
    """Pair interaction z_ij = MLP(concat(u_i, u_j)); order matters."""
    d = mp.dim
    u_i = _check_dim(u_i, d, "inner_message u_i")
    u_j = _check_dim(u_j, d, "inner_message u_j")
    x = np.concatenate([u_i, u_j])[None, :]
    return _mlp_apply(ArrayOps(), mp.inner_mlp, x, row_local=True)[0].copy()


def message_pass(graph: AttributeGraph, mp: ModelParams) -> list[np.ndarray]:
    """Per-node sum of pair interactions against every neighbor.

    A single-node graph has an empty neighborhood, so its message is zero.
    """
    vectors = [np.asarray(u, dtype=np.float64) for u in graph.nodes]
    out = []
    for i, u_i in enumerate(vectors):
        z = np.zeros(mp.dim)
        for j, u_j in enumerate(vectors):
            if j != i:
                z = z + inner_message(u_i, u_j, mp)
        out.append(z)
    return out


def node_match(u_i, other_nodes) -> np.ndarray:
    """Aggregated cross matching: sum over opposite nodes of u_i * u_hat_j."""
    others = [np.asarray(u, dtype=np.float64) for u in other_nodes]
    if not others:
        raise ContractError("node_match: opposite node list is empty")
    u_i = np.asarray(u_i, dtype=np.float64)
    s = np.zeros_like(u_i)
    for u_hat in others:
        if u_hat.shape != u_i.shape:
            raise ShapeError(f"node_match: shapes {u_i.shape} vs {u_hat.shape}")
        s = s + u_i * u_hat
    return s


def fuse(u_i, z_i, s_i, mp: ModelParams) -> np.ndarray:
    """GRU over the sequence [u_i, z_i, s_i] from a zero hidden state.

    Runs the same row-local kernel as predict(), so fusing a node alone
    gives exactly the bits it gets inside a full forward pass.
    """
    d = mp.dim
    rows = [
        _check_dim(u_i, d, "fuse u_i")[None, :],
        _check_dim(z_i, d, "fuse z_i")[None, :],
        _check_dim(s_i, d, "fuse s_i")[None, :],
    ]
    return _gru_sequence(ArrayOps(), mp.gru, rows, row_local=True)[0].copy()


def graph_representation(graph: AttributeGraph, opposite_nodes, mp: ModelParams) -> np.ndarray:
    """Sum of fused node representations: composes the three sub-operations."""
    messages = message_pass(graph, mp)
    v = np.zeros(mp.dim)
    for u_i, z_i in zip(graph.nodes, messages):
        s_i = node_match(u_i, opposite_nodes)
        v = v + fuse(u_i, z_i, s_i, mp)
    return v


def swap_roles(sample: DataSample) -> DataSample:
    """The same observation with the user and item sides exchanged.

    Attribute ids keep their embedding rows; only the side tags flip so the
    swapped sample still validates.
    """

    def flip(chars, new_side):
        return tuple(
            AttributeValuePair(AttributeId(p.att.id, new_side), p.val) for p in chars
        )

    return DataSample(
        user_chars=flip(sample.item_chars, "user"),
        item_chars=flip(sample.user_chars, "item"),
        label=sample.label,
    )
