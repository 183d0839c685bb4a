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
     hidden state; the final hidden state is the fused node u'_i. Its gate
     equations are stated at autodiff._gru_forward, the one kernel that
     every ops object runs them with (ops.gru).
  5. Each graph's fused nodes are summed into a graph representation and
     the two representations are matched by dot product, giving the score.

The engine below runs any number of samples as one stacked computation:
nodes of all samples form one matrix, pair and segment index arrays keep
each sample's graphs separate. Only step 3's node matching needs the pair,
so a plan starts from the batch's distinct sides: sides are the same
exactly when they are the same tuple object (the parser interns sides by
value, so on a parsed dataset equal sides are one tuple). index_samples
indexes a list's distinct sides: one flat pass collects sizes, attribute
ids and values, one binary search over the table's sorted ids finds the
embedding rows and one lexsort by (side, id) orders the nodes. build_plan
numbers the batch's sides by identity in one pass and takes their nodes
from its own index or from one that train() and score_samples build once
for their list; the layout, segment and pair arrays follow from that
numbering by repeat and cumsum, with no Python loop per attribute.
Inside a sample, nodes are processed in ascending attribute-id order, so
reordering the input attributes cannot change any bit of the output. The
pair sums always add a node's terms in neighbour order, and on RowLocalOps
every matrix product and per-row dot is row-local, so per-row results do
not depend on what else is stacked; predict() runs on it for its exact
structural identities and reads its score from that forward.

The engine runs the stages that depend on one side alone once per distinct
side: the nodes of step 1, the messages of step 2, the side sums, and GRU
steps 1-2 of step 4 (over u and z). It gathers their rows to the samples
for node matching, GRU step 3 (over s) and the readout. A batch with no
repeated side has no gather, so a single sample's arrays are those of a
forward without the dedupe. The two GRU runs, steps 1-2 per distinct side
and step 3 per sample from the gathered state, are one ops.gru call each,
so on a Tape each is one node.

The engine is written once, against an ops object, which also chooses the
product kernels. Training runs it on a Tape, which records it for the
backward pass; scoring and the difference quotients of the gradient check
run it on ArrayOps, which computes the same arrays bit for bit and records
nothing; predict() runs it on RowLocalOps, and fuse() runs the engine's GRU
kernel there for one node.

Ablation switches (VariantConfig) swap the pair model (mlp or elementwise
product), the cross model (elementwise product, shared or separate MLP,
or none), the fusing function (gru, sum, or a 3d -> 4d -> d MLP), and the
overall wiring: mode "union" treats every interaction as a cross
interaction over the union of both node sets and scores by summing both
graph representations' elements; mode "fm" additionally fixes the fusing
to u_i + half the summed cross products, which makes the score collapse
to the factorization-machine formula. A set of weights is one of these
models: ModelParams.variant names it, and every forward runs it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .autodiff import ArrayOps, PairBlock, Parameter, RowLocalOps, Tape, Value, stable_sigmoid
from .data import AttributeId, DataSample, EmbeddingTable, init_embeddings
from .errors import ContractError, InvalidConfigError, ShapeError

INNER_KINDS = ("mlp", "bi")
CROSS_KINDS = ("bi", "mlp_shared", "mlp_separate", "none")
FUSE_KINDS = ("gru", "sum", "mlp")
MODES = ("graph", "union", "fm")


@dataclass(frozen=True)
class VariantConfig:
    """Which sub-model handles each interaction type, plus the wiring mode.

    A mode fixes every field it ignores, so that two configs are equal
    exactly when they are one model: outside graph mode every pair of the
    sample, same side or not, interacts by elementwise product (inner=bi),
    and mode=fm fixes the cross and fuse kinds too.
    """

    inner: str = "mlp"
    cross: str = "bi"
    fuse: str = "gru"
    mode: str = "graph"

    def __post_init__(self):
        if self.mode != "graph":
            object.__setattr__(self, "inner", "bi")
        if self.mode == "fm":
            # Linear fusing and element-sum matching: the FM reduction.
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
        if self.mode == "union" and self.cross != "bi":
            raise InvalidConfigError("mode=union supports only cross=bi")
        if self.cross == "mlp_shared" and self.inner != "mlp":
            raise InvalidConfigError("cross=mlp_shared needs an inner MLP to share")


CANONICAL = VariantConfig()
FM_REDUCTION = VariantConfig(inner="bi", cross="bi", fuse="sum", mode="fm")


def parse_variant(text: str) -> VariantConfig:
    """Parse a config string like "inner=mlp,cross=bi,fuse=gru"."""
    given = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise InvalidConfigError(f"bad variant token {token!r}")
        key, _, value = token.partition("=")
        key, value = key.strip(), value.strip()
        if key not in {f.name for f in fields(VariantConfig)}:
            raise InvalidConfigError(f"unknown variant key {key!r}")
        if key in given:
            raise InvalidConfigError(f"variant key {key!r} given twice")
        given[key] = value
    return VariantConfig(**given)


def format_variant(v: VariantConfig) -> str:
    if v.mode == "fm":
        return "mode=fm"
    text = f"inner={v.inner},cross={v.cross},fuse={v.fuse}"
    if v.mode != "graph":
        text += f",mode={v.mode}"
    return text


class _Weights:
    def parameters(self) -> list[Parameter]:  # in field order, the order of parameter_layout's shapes
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class MlpWeights(_Weights):
    """Two-layer perceptron, stored input-major so rows multiply directly."""

    w_in: Parameter  # (in_dim, hidden)
    b_hidden: Parameter  # (hidden,)
    w_out: Parameter  # (hidden, out_dim)
    b_out: Parameter  # (out_dim,)


@dataclass
class GruWeights(_Weights):
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


@dataclass
class ModelParams:
    """Everything trainable: embedding table plus MLP and GRU weights, and
    the variant they are the weights of, which every forward runs."""

    table: EmbeddingTable
    emb: Parameter
    variant: VariantConfig
    inner_mlp: MlpWeights | None = None
    gru: GruWeights | None = None
    cross_mlp: MlpWeights | None = None
    fuse_mlp: MlpWeights | None = None
    dense: Parameter | None = None  # the arena: every MLP and GRU array's values and grad are views of its

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

    def blocks(self) -> list[Parameter]:
        """The table and the arena: each entry once, for one pass per block."""
        return [p for p in (self.emb, self.dense) if p is not None]

    def copy_values(self) -> list[np.ndarray]:
        return [p.values.copy() for p in self.blocks()]

    def load_values(self, values: list[np.ndarray]) -> None:
        blocks = self.blocks()
        if len(values) != len(blocks):
            raise ContractError("block count mismatch when restoring values")
        for p, v in zip(blocks, values):
            if p.values.shape != v.shape:
                raise ContractError("block shape mismatch when restoring values")
            p.values[...] = v


def parameter_layout(variant: VariantConfig, dim: int) -> list[tuple[str, list[tuple[int, ...]]]]:
    """The weight components a variant trains, in registry order, each with
    the shapes of its arrays in parameters() order.

    This is the one statement of the rule: init_model_params builds from it
    and checkpoints are checked against it. The embedding table, shaped
    (attributes, dim), precedes these in the registry. Each group follows
    from one field: inner_mlp from inner=mlp, gru from fuse=gru, cross_mlp
    from cross=mlp_separate, fuse_mlp from fuse=mlp.
    """

    def mlp(in_dim: int) -> list[tuple[int, ...]]:
        return [(in_dim, 4 * dim), (4 * dim,), (4 * dim, dim), (dim,)]

    layout = []
    if variant.inner == "mlp":
        layout.append(("inner_mlp", mlp(2 * dim)))
    if variant.fuse == "gru":
        layout.append(("gru", [(dim, dim), (dim, dim), (dim,)] * 3))
    if variant.cross == "mlp_separate":
        layout.append(("cross_mlp", mlp(2 * dim)))
    if variant.fuse == "mlp":
        layout.append(("fuse_mlp", mlp(3 * dim)))
    return layout


def _init_array(rng: np.random.Generator, out: np.ndarray) -> None:
    """A matrix drawn in place as rng.uniform(-bound, bound) draws it; a bias left zero."""
    if out.ndim > 1:
        bound = 1.0 / np.sqrt(out.shape[0])
        rng.random(out=out)
        out *= bound - -bound
        out -= bound


def init_model_params(
    universe,
    dim: int,
    seed: int,
    variant: VariantConfig = CANONICAL,
) -> ModelParams:
    """Seeded init. Embeddings are uniform on +-1/sqrt(dim); weight matrices
    uniform on +-1/sqrt(fan_in), drawn in registry order; biases zero.
    Beside an inner MLP, a separate cross MLP starts as an exact copy of
    it, so shared and separate coincide at step 0; alone, it is drawn.
    """
    table = init_embeddings(universe, dim, seed)
    mp = ModelParams(table=table, emb=Parameter(table.matrix, "embeddings"), variant=variant)
    layout = parameter_layout(variant, dim)
    bounds = np.cumsum([0] + [math.prod(shape) for _, shapes in layout for shape in shapes])
    if len(bounds) > 1:  # drawn in place below, so set-up holds one copy of each weight
        mp.dense = Parameter(np.zeros(bounds[-1]), "dense")
    spans = zip(bounds, bounds[1:])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for name, shapes in layout:
        kind = GruWeights if name == "gru" else MlpWeights
        params = [Parameter(mp.dense.values[lo:hi].reshape(s), f"{name}.{f.name}", mp.dense.grad[lo:hi].reshape(s))
                  for s, f, (lo, hi) in zip(shapes, fields(kind), spans)]
        for k, p in enumerate(params):
            if name == "cross_mlp" and mp.inner_mlp is not None:
                p.values[...] = mp.inner_mlp.parameters()[k].values
            else:
                _init_array(rng, p.values)
        setattr(mp, name, kind(*params))
    return mp


# --------------------------------------------------------------------------
# Stacked-batch index plan
# --------------------------------------------------------------------------


@dataclass
class _SegIndex:
    """Sorted segment ids with precomputed run boundaries; one output row per segment."""

    ids: np.ndarray
    starts: np.ndarray
    out_rows: np.ndarray


@dataclass
class _Neighbourhoods:
    """Whom each node pairs with, as the dense blocks of pair_relu_sum."""

    blocks: list[PairBlock]
    counts: np.ndarray  # (n_nodes,) neighbours per node, as floats


@dataclass
class _Plan:
    """Index arrays of a batch over two layouts of its nodes.

    Side nodes, which build_plan makes first, are the nodes of the batch's
    distinct sides, in order of first appearance, each side in ascending
    attribute-id order. Sample nodes are every node of every sample: sample
    by sample, user side then item side, each side laid out as its distinct
    side. The stages that depend on one side alone run over side nodes, the
    rest over sample nodes. A plan runs any variant over its table; the pair
    blocks that only some variants read are built when a forward first reads them.
    """

    n_nodes: int  # sample nodes
    attr_rows: np.ndarray  # (side nodes,) embedding rows
    vals: np.ndarray  # (side nodes,)
    by_distinct: _SegIndex  # side node -> distinct side
    node_src: np.ndarray | None  # (n_nodes,) sample node -> side node; None when every side is distinct
    by_side: _SegIndex  # sample node -> side segment (2*b user, 2*b+1 item)
    by_sample: _SegIndex  # sample node -> sample
    opp_seg: np.ndarray  # (n_nodes,) distinct side opposite each sample node
    # First sample node of each same-side ordered pair, ascending. _forward
    # reads only its size (zero: every side is a single node); the
    # benchmark's pair counts read the array.
    pair_a: np.ndarray
    distinct_sizes: np.ndarray  # (distinct sides,) nodes of each
    sizes: np.ndarray  # (2 * samples,) nodes of each sample side

    @functools.cached_property
    def same_side(self) -> _Neighbourhoods:  # every other side node of the side; read by inner=mlp
        return _same_side(self.by_distinct.starts, self.distinct_sizes)

    @functools.cached_property
    def cross_side(self) -> _Neighbourhoods:  # every sample node of the opposite side; read by the MLP cross kinds
        return _cross_side(self.by_side.starts, self.sizes)


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


class SampleIndex(NamedTuple):
    """What a plan takes from its sides alone, over the distinct sides of a list
    of samples: _Plan's fields of those names, each side's size and first node,
    each side's number by id() and the sides themselves (so no other object
    takes those ids), and the table whose rows attr_rows are."""

    sizes: np.ndarray
    starts: np.ndarray
    attr_rows: np.ndarray
    vals: np.ndarray
    number: dict
    sides: list
    table: EmbeddingTable


def index_samples(samples, table: EmbeddingTable) -> SampleIndex:
    """The SampleIndex of samples' distinct sides over table, in order of first appearance, by one pass over them."""
    distinct = {id(chars): chars for sample in samples for chars in (sample.user_chars, sample.item_chars)}
    number = {key: k for k, key in enumerate(distinct)}
    pairs = [pair for chars in distinct.values() for pair in chars]
    sizes = np.array([len(chars) for chars in distinct.values()], dtype=np.intp)
    ids = np.array([pair[0][0] for pair in pairs])
    order = np.lexsort((ids, np.repeat(np.arange(len(sizes)), sizes)))
    starts = np.cumsum(sizes) - sizes  # no side is empty, so each starts a segment
    vals = np.array([pair[1] for pair in pairs], dtype=np.float64)[order]
    return SampleIndex(sizes, starts, table.rows(ids)[order], vals, number, [*distinct.values()], table)


def build_plan(samples, mp: ModelParams, *, index: SampleIndex | None = None) -> _Plan:
    """The index plan of a batch for mp, over mp's table, by numpy index arithmetic over its
    distinct sides (module docstring). The batch's sides are numbered by id() in order of first
    appearance, in one pass; their nodes come from samples' own index, or, given an index over
    mp's table that holds every side of the batch (the very object), are gathered from that
    index. Any model over mp's table runs the plan, whatever its variant."""
    own = {}
    side_map = np.array([own.setdefault(id(chars), len(own))
                         for sample in samples for chars in (sample.user_chars, sample.item_chars)], dtype=np.intp)
    if index is None:
        distinct_sizes, distinct_starts, attr_rows, vals, *_ = index_samples(samples, mp.table)
    else:
        if index.table is not mp.table:
            raise ContractError("build_plan: the index is over another table than the model's")
        try:
            kept = np.fromiter(map(index.number.__getitem__, own), np.intp, len(own))
        except KeyError:
            raise ContractError("build_plan: a side of the batch is not in the index (by identity)") from None
        distinct_sizes = index.sizes[kept]
        distinct_starts = np.cumsum(distinct_sizes) - distinct_sizes
        shift = (index.starts[kept] - distinct_starts).repeat(distinct_sizes)
        src = np.arange(len(shift)) + shift
        attr_rows, vals = index.attr_rows[src], index.vals[src]
    n_distinct, n_samples = len(distinct_sizes), len(side_map) // 2
    side_ids = np.arange(2 * n_samples)
    sizes = distinct_sizes[side_map]
    starts = np.cumsum(sizes) - sizes
    side = np.repeat(side_ids, sizes)
    n_nodes = len(side)
    node_src = None if n_distinct == len(side_map) else np.arange(n_nodes) + (distinct_starts[side_map] - starts)[side]
    # Distinct sides and samples are numbered from 0: their numbers are prefixes of the sides'.
    return _Plan(
        n_nodes=n_nodes,
        attr_rows=attr_rows,
        vals=vals,
        by_distinct=_SegIndex(ids=np.repeat(side_ids[:n_distinct], distinct_sizes), starts=distinct_starts,
                              out_rows=side_ids[:n_distinct]),
        node_src=node_src,
        by_side=_SegIndex(ids=side, starts=starts, out_rows=side_ids),
        by_sample=_SegIndex(ids=side >> 1, starts=starts[0::2], out_rows=side_ids[:n_samples]),
        opp_seg=side_map[side ^ 1],
        pair_a=np.repeat(np.arange(n_nodes), np.repeat(sizes - 1, sizes)),
        distinct_sizes=distinct_sizes,
        sizes=sizes,
    )


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------


@dataclass
class _EngineOut:
    """Forward outputs: tracked Values on a Tape, plain arrays on ArrayOps."""

    nodes: Value  # (n_nodes, d) representations u
    messages: Value  # (side nodes, d) z; sample node r reads row plan.node_src[r] when that is not None
    matches: Value  # (n_nodes, d) s
    fused: Value  # (n_nodes, d) u'
    user_repr: Value  # (n_samples, d)
    item_repr: Value  # (n_samples, d)
    scores: Value  # (n_samples,)


def _mlp_apply(ops: Tape | ArrayOps, w: MlpWeights, x: Value) -> Value:
    hidden = ops.relu(ops.add_rowvec(ops.matmul(x, ops.param(w.w_in)), ops.param(w.b_hidden)))
    return ops.add_rowvec(ops.matmul(hidden, ops.param(w.w_out)), ops.param(w.b_out))


def _pair_mlp_sums(ops: Tape | ArrayOps, w: MlpWeights, nodes: Value, pairs: _Neighbourhoods, d: int) -> Value:
    """Row i is the sum of MLP(concat(u_i, u_j)) over the neighbours j of node i.

    The MLP is evaluated per node (step 2 of the module docstring): the
    top and bottom d rows of w_in project every node once, only the add,
    relu and neighbour sum run per pair, and w_out acts on the sums.
    """
    w_in = ops.param(w.w_in)
    first = ops.add_rowvec(ops.matmul(nodes, ops.slice_rows(w_in, 0, d)), ops.param(w.b_hidden))
    second = ops.matmul(nodes, ops.slice_rows(w_in, d, 2 * d))
    hidden_sums = ops.pair_relu_sum(first, second, pairs.blocks)
    out = ops.matmul(hidden_sums, ops.param(w.w_out))
    return ops.add_scaled_rowvec(out, ops.param(w.b_out), pairs.counts)


def _segsum(ops: Tape | ArrayOps, m: Value, seg: _SegIndex) -> Value:
    return ops.segment_sum_prepared(m, seg.ids, seg.starts, seg.out_rows, len(seg.out_rows))


def _others_product(ops: Tape | ArrayOps, nodes: Value, sums: Value, seg_ids: np.ndarray) -> Value:
    """Row i is u_i * (sum of its segment - u_i): the sum of u_i * u_j over
    the other nodes j of its segment, zero for a node alone in it. sums
    holds the segment sums and seg_ids the segment of each row."""
    return ops.mul(nodes, ops.sub(ops.gather_rows(sums, seg_ids), nodes))


def _to_samples(ops: Tape | ArrayOps, side_rows: Value, plan: _Plan) -> Value:
    """Side-node rows gathered to sample-node rows."""
    if plan.node_src is None:
        return side_rows
    return ops.gather_rows(side_rows, plan.node_src)


def _forward(ops: Tape | ArrayOps, plan: _Plan, mp: ModelParams) -> _EngineOut:
    d, variant = mp.dim, mp.variant
    emb = ops.param(mp.emb)
    # Once per distinct side (side nodes): nodes, messages, side sums and
    # GRU steps 1-2. Node matching, GRU step 3 and the readout run per sample.
    side_nodes = ops.scale_rows(ops.gather_rows(emb, plan.attr_rows), plan.vals)
    nodes = _to_samples(ops, side_nodes, plan)
    side_sums = None
    if variant.mode != "graph" or not plan.pair_a.size:
        side_messages = ops.constant(np.zeros((len(plan.attr_rows), d)))
    elif variant.inner == "mlp":
        side_messages = _pair_mlp_sums(ops, mp.inner_mlp, side_nodes, plan.same_side, d)
    else:
        side_sums = _segsum(ops, side_nodes, plan.by_distinct)
        side_messages = _others_product(ops, side_nodes, side_sums, plan.by_distinct.ids)

    if variant.mode != "graph":
        # Union wiring: every other node of the same sample, either side,
        # is a cross partner.
        matches = _others_product(ops, nodes, _segsum(ops, nodes, plan.by_sample), plan.by_sample.ids)
    elif variant.cross == "none":
        matches = ops.constant(np.zeros((plan.n_nodes, d)))
    elif variant.cross == "bi":
        if side_sums is None:
            side_sums = _segsum(ops, side_nodes, plan.by_distinct)
        matches = ops.mul(nodes, ops.gather_rows(side_sums, plan.opp_seg))
    else:
        weights = mp.inner_mlp if variant.cross == "mlp_shared" else mp.cross_mlp
        matches = _pair_mlp_sums(ops, weights, nodes, plan.cross_side, d)

    if variant.mode == "fm":
        fused = ops.add(nodes, ops.scale(matches, 0.5))
    elif variant.fuse == "gru":
        weights = [ops.param(p) for p in mp.gru.parameters()]
        h = ops.gru([side_nodes, side_messages], weights)
        fused = ops.gru([matches], weights, _to_samples(ops, h, plan))
    elif variant.fuse == "sum":
        fused = ops.add(_to_samples(ops, ops.add(side_nodes, side_messages), plan), matches)
    else:
        stacked = ops.concat_cols(ops.concat_cols(nodes, _to_samples(ops, side_messages, plan)), matches)
        fused = _mlp_apply(ops, mp.fuse_mlp, stacked)

    graph_reprs = _segsum(ops, fused, plan.by_side)
    user_repr = ops.gather_rows(graph_reprs, plan.by_side.out_rows[0::2])
    item_repr = ops.gather_rows(graph_reprs, plan.by_side.out_rows[1::2])
    if variant.mode in ("union", "fm"):
        scores = ops.add(ops.row_sums(user_repr), ops.row_sums(item_repr))
    else:
        scores = ops.rowdot(user_repr, item_repr)
    return _EngineOut(
        nodes=nodes, messages=side_messages, matches=matches, fused=fused,
        user_repr=user_repr, item_repr=item_repr, scores=scores,
    )


# score_samples runs at most this many sample-node elements (nodes x dim) per
# forward, 1 MiB per float64 array of the nodes; one sample larger than that
# runs alone.
SCORE_BATCH = 1 << 17


def _score_chunks(elems: np.ndarray, budget: int) -> list[int]:
    """Bounds of the fewest runs of consecutive samples, each within budget
    elements or a single sample, where the largest run that has more than
    one sample is as small as that count allows."""
    ends = np.cumsum(elems)

    def cut(cap: int) -> list[int]:
        bounds = [0]
        while bounds[-1] < len(ends):
            start = bounds[-1]
            base = ends[start - 1] if start else 0
            bounds.append(max(start + 1, int(np.searchsorted(ends, base + cap, side="right"))))
        return bounds

    fewest = cut(budget)
    if len(fewest) <= 2:
        return fewest
    lo, hi = min(-(-int(ends[-1]) // (len(fewest) - 1)), budget), budget
    while lo < hi:  # the smallest cap that needs no more runs; cut is monotone in it
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if len(cut(mid)) <= len(fewest) else (mid + 1, hi)
    return cut(lo)


def _own_variant(mp: ModelParams, variant: VariantConfig | None, what: str) -> None:
    """None stands for the model's own variant; any other variant is an error."""
    if variant is not None and variant != mp.variant:
        raise ContractError(f"{what}: the model is {format_variant(mp.variant)!r}, not {format_variant(variant)!r}")


def score_samples(samples, mp: ModelParams, variant: VariantConfig | None = None) -> np.ndarray:
    """Untracked scores of mp's variant; safe to call concurrently over read-only params.

    variant, if given, must be mp.variant. The samples run in the fewest
    balanced forwards of whole samples that hold at most SCORE_BATCH
    sample-node elements each, a larger sample alone, so the working memory
    does not grow with the list. Each chunk's plan looks its sides up once in
    the list's one index over mp's table. A sample's score does not depend
    on the chunk it runs in.
    """
    _own_variant(mp, variant, "score_samples")
    nodes = np.fromiter((len(s.user_chars) + len(s.item_chars) for s in samples), np.intp, len(samples))
    bounds = _score_chunks(nodes * mp.dim, SCORE_BATCH)
    index = index_samples(samples, mp.table)
    out = np.empty(len(samples))
    for start, stop in zip(bounds, bounds[1:]):
        plan = build_plan(samples[start:stop], mp, index=index)
        out[start:stop] = _forward(ArrayOps(), plan, mp).scores
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
        return float(stable_sigmoid(self.score))


def predict(sample: DataSample, mp: ModelParams, variant: VariantConfig | None = None) -> ForwardResult:
    """Forward one sample through mp's variant, keeping per-node diagnostics;
    variant, if given, must be mp.variant.

    Internally nodes are processed in ascending attribute-id order on
    RowLocalOps, so the score is bit-identical under any reordering of the
    input attributes and under swapping the user and item roles. The score
    is the forward's readout: in graph mode, np.dot of the two representations.
    """
    _own_variant(mp, variant, "predict")
    out = _forward(RowLocalOps(), build_plan([sample], mp), mp)
    chars = sample.user_chars + sample.item_chars
    # Each node's row: the plan orders nodes by side, then by attribute id, as index_samples sorts them.
    rows = np.argsort(np.lexsort(([c.att.id for c in chars], np.arange(len(chars)) >= len(sample.user_chars))))
    per_node = zip(chars, out.nodes[rows], out.messages[rows], out.matches[rows], out.fused[rows])
    nodes = tuple(NodeDiagnostics(c.att, u, z, s, f) for c, u, z, s, f in per_node)
    user_nodes, item_nodes = nodes[:len(sample.user_chars)], nodes[len(sample.user_chars):]
    return ForwardResult(
        user_repr=out.user_repr[0].copy(),
        item_repr=out.item_repr[0].copy(),
        score=float(out.scores[0]),
        user_nodes=user_nodes,
        item_nodes=item_nodes,
    )


# --------------------------------------------------------------------------
# The GRU fuse of one node
# --------------------------------------------------------------------------


def _check_dim(vec: np.ndarray, d: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (d,):
        raise ShapeError(f"{what}: expected length {d}, got shape {vec.shape}")
    return vec


def fuse(u_i, z_i, s_i, mp: ModelParams) -> np.ndarray:
    """GRU over the sequence [u_i, z_i, s_i] from a zero hidden state.

    Runs on RowLocalOps like predict(), so fusing a node alone gives exactly
    the bits it gets inside a full forward pass; a model with no GRU is a ContractError.
    """
    if mp.gru is None:
        raise ContractError(f"fuse: the model {format_variant(mp.variant)!r} has no GRU")
    d = mp.dim
    rows = [
        _check_dim(u_i, d, "fuse u_i")[None, :],
        _check_dim(z_i, d, "fuse z_i")[None, :],
        _check_dim(s_i, d, "fuse s_i")[None, :],
    ]
    ops = RowLocalOps()
    return ops.gru(rows, [ops.param(p) for p in mp.gru.parameters()])[0].copy()
