"""Independent straight-line reimplementations used as oracles.

Everything here is written directly against the math with plain numpy,
deliberately not sharing code with the package, so agreement is evidence
rather than tautology.
"""
import numpy as np


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def mlp_oracle(x, w_in, b_hidden, w_out, b_out):
    """relu hidden layer, linear output; x is a flat vector."""
    hidden = np.maximum(x @ w_in + b_hidden, 0.0)
    return hidden @ w_out + b_out


def pair_message_oracle(u_i, u_j, mlp):
    return mlp_oracle(np.concatenate([u_i, u_j]), mlp.w_in.values, mlp.b_hidden.values,
                      mlp.w_out.values, mlp.b_out.values)


def gru_oracle(steps, gru):
    """Step-by-step gate equations from a zero hidden state."""
    d = gru.b_update.values.shape[0]
    h = np.zeros(d)
    for x in steps:
        update = sigmoid(x @ gru.w_update.values + h @ gru.u_update.values + gru.b_update.values)
        reset = sigmoid(x @ gru.w_reset.values + h @ gru.u_reset.values + gru.b_reset.values)
        cand = np.tanh(x @ gru.w_cand.values + (reset * h) @ gru.u_cand.values + gru.b_cand.values)
        h = (1.0 - update) * h + update * cand
    return h


def full_forward_oracle(sample, mp):
    """End-to-end hand composition of the canonical forward pass."""
    reps_user = [p.val * mp.table.vector(p.att) for p in sample.user_chars]
    reps_item = [p.val * mp.table.vector(p.att) for p in sample.item_chars]

    def side(reps, opposite):
        opp_sum = np.sum(opposite, axis=0)
        fused_total = np.zeros(mp.dim)
        for i, u in enumerate(reps):
            z = np.zeros(mp.dim)
            for j, v in enumerate(reps):
                if i != j:
                    z = z + pair_message_oracle(u, v, mp.inner_mlp)
            s = u * opp_sum
            fused_total = fused_total + gru_oracle([u, z, s], mp.gru)
        return fused_total

    v_user = side(reps_user, reps_item)
    v_item = side(reps_item, reps_user)
    return float(np.dot(v_user, v_item)), v_user, v_item


def fm_oracle(sample, table):
    """Linear term sum(v_i)*val_i plus pairwise dot products, no bias."""
    pairs = list(sample.user_chars) + list(sample.item_chars)
    total = 0.0
    for p in pairs:
        total += float(table.vector(p.att).sum()) * p.val
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            vi = table.vector(pairs[i].att)
            vj = table.vector(pairs[j].att)
            total += float(vi @ vj) * pairs[i].val * pairs[j].val
    return total


def auc_pair_oracle(scores, labels):
    """O(n^2) pair counting with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    hits = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                hits += 1.0
            elif sp == sn:
                hits += 0.5
    return hits / (len(pos) * len(neg))


def ndcg_direct(scores, labels, k):
    """Direct formula for one user's ranking; stable ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    dcg = 0.0
    for rank, idx in enumerate(order[:k], start=1):
        dcg += labels[idx] / np.log2(rank + 1)
    n_pos = int(sum(1 for y in labels if y == 1.0))
    ideal = sum(1.0 / np.log2(rank + 1) for rank in range(1, min(k, n_pos) + 1))
    return dcg / ideal


def finite_difference(f, params, step=1e-5):
    """Central differences of a scalar function of Parameter objects."""
    grads = []
    for p in params:
        flat = p.values.reshape(-1)
        g = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            f_plus = f()
            flat[k] = orig - step
            f_minus = f()
            flat[k] = orig
            g[k] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g.reshape(p.values.shape))
    return grads


def value_side_map(samples, table):
    """The distinct side of every side (user side, then item side, of each
    sample), numbered in order of first appearance, where two sides are the
    same exactly when their id-sorted embedding rows and the bytes of their
    values are equal. A value that differs in its last bit or in the sign of
    a zero keeps sides apart."""
    distinct, side_map = {}, []
    for sample in samples:
        for chars in (sample.user_chars, sample.item_chars):
            ordered = sorted(chars, key=lambda p: p.att.id)
            key = (np.array([table.row(p.att) for p in ordered], dtype=np.intp).tobytes(),
                   np.array([p.val for p in ordered], dtype=np.float64).tobytes())
            side_map.append(distinct.setdefault(key, len(distinct)))
    return np.array(side_map, dtype=np.intp)


def plan_oracle(samples, table):
    """The batch plan by per-sample, per-attribute loops: the reference for
    model.build_plan. Returns its fields by name as plain intp/float64
    arrays; a segment index is (ids, starts, out_rows, n), a neighbourhood
    is (blocks, counts) with each block a (rows, nbrs, sources, back) tuple,
    in the plan's block order. Sides are deduplicated with a dict keyed by
    the id() of each side's tuple; node_src is None when no side repeats."""
    idx = lambda xs: np.array(xs, dtype=np.intp)
    side_rows, side_vals, side_of, sample_of, other_of, firsts, sizes = [], [], [], [], [], [], []
    tuple_ids = []
    for b, sample in enumerate(samples):
        for side, other, chars in ((2 * b, 2 * b + 1, sample.user_chars), (2 * b + 1, 2 * b, sample.item_chars)):
            tuple_ids.append(id(chars))
            firsts.append(len(side_of))
            sizes.append(len(chars))
            order = np.argsort([p.att.id for p in chars], kind="stable")
            side_rows.append([table.row(chars[k].att) for k in order])
            side_vals.append([chars[k].val for k in order])
            for k in order:
                side_of.append(side)
                sample_of.append(b)
                other_of.append(other)

    distinct, side_map, distinct_first = {}, [], []
    for s, key in enumerate(tuple_ids):
        if key not in distinct:
            distinct[key] = len(distinct)
            distinct_first.append(s)
        side_map.append(distinct[key])
    distinct_sizes = [sizes[s] for s in distinct_first]
    attr_rows, vals, distinct_of, distinct_firsts = [], [], [], []
    for e, s in enumerate(distinct_first):
        distinct_firsts.append(len(attr_rows))
        attr_rows += side_rows[s]
        vals += side_vals[s]
        distinct_of += [e] * sizes[s]
    node_src = None
    if len(distinct) < len(sizes):
        node_src = idx([distinct_firsts[side_map[s]] + i for s, m in enumerate(sizes) for i in range(m)])

    def segments(ids, n):
        starts = [k for k in range(len(ids)) if k == 0 or ids[k] != ids[k - 1]]
        return idx(ids), idx(starts), idx([ids[k] for k in starts]), n

    def block(row_firsts, m, source_firsts, r, k, slot):
        """m rows, r sources, k neighbours; slot(t, i) is the source slot of
        neighbour t of row slot i."""
        nbr_slot = [[slot(t, i) for i in range(m)] for t in range(k)]
        rows = [[f + i for f in row_firsts] for i in range(m)]
        nbrs = [[[f + nbr_slot[t][i] for f in source_firsts] for i in range(m)] for t in range(k)]
        sources = [[f + j for f in source_firsts] for j in range(r)]
        back = [[t * m + i for t in range(k) for i in range(m) if nbr_slot[t][i] == j] for j in range(r)]
        return idx(rows), idx(nbrs), idx(sources), idx(back)

    plan = {
        "n_nodes": len(side_of),
        "side_map": idx(side_map), "attr_rows": idx(attr_rows), "vals": np.array(vals, dtype=np.float64),
        "by_distinct": segments(distinct_of, len(distinct)), "node_src": node_src,
        "by_side": segments(side_of, 2 * len(samples)), "by_sample": segments(sample_of, len(samples)),
        "opp_seg": idx([side_map[o] for o in other_of]),
        "pair_a": idx([f + i for f, m in zip(firsts, sizes) for i in range(m) for j in range(m) if j != i]),
        "distinct_sizes": idx(distinct_sizes), "sizes": idx(sizes),
    }
    blocks = []
    for m in sorted(set(distinct_sizes) - {0, 1}):
        group = [f for f, size in zip(distinct_firsts, distinct_sizes) if size == m]
        blocks.append(block(group, m, group, m, m - 1, lambda t, i: t + (t >= i)))
    counts = [float(m - 1) for m in distinct_sizes for _ in range(m)]
    plan["same_side"] = (blocks, np.array(counts))
    shapes = list(zip(sizes[0::2], sizes[1::2]))
    blocks = []
    for p, q in sorted(set(shapes)):
        users = [firsts[2 * b] for b, shape in enumerate(shapes) if shape == (p, q)]
        items = [firsts[2 * b + 1] for b, shape in enumerate(shapes) if shape == (p, q)]
        blocks.append(block(users, p, items, q, q, lambda t, i: t))
        blocks.append(block(items, q, users, p, p, lambda t, i: t))
    counts = [float(other) for p, q in shapes for m, other in ((p, q), (q, p)) for _ in range(m)]
    plan["cross_side"] = (blocks, np.array(counts))
    return plan


def gru_chain(ops, steps, weights, h=None):
    """The GRU as the chain of primitives the engine ran before Tape.gru, on
    any ops object: the reference for Tape.gru's value, for its gradients'
    bits and order, and for ArrayOps.gru. Unlike the rest of this module it
    is written against the package's primitives, because those are what it
    pins. weights are the 9 GRU arrays in GruWeights order."""
    w_update, u_update, b_update, w_reset, u_reset, b_reset, w_cand, u_cand, b_cand = weights
    if h is None:
        first, steps = steps[0], steps[1:]
        update = ops.sigmoid(ops.add_rowvec(ops.matmul(first, w_update), b_update))
        cand = ops.tanh(ops.add_rowvec(ops.matmul(first, w_cand), b_cand))
        h = ops.mul(update, cand)
    for x in steps:
        update = ops.sigmoid(ops.add_rowvec(ops.add(ops.matmul(x, w_update), ops.matmul(h, u_update)), b_update))
        reset = ops.sigmoid(ops.add_rowvec(ops.add(ops.matmul(x, w_reset), ops.matmul(h, u_reset)), b_reset))
        cand = ops.tanh(
            ops.add_rowvec(ops.add(ops.matmul(x, w_cand), ops.matmul(ops.mul(reset, h), u_cand)), b_cand)
        )
        h = ops.add(ops.mul(ops.sub(ops.constant(np.ones(update.shape)), update), h), ops.mul(update, cand))
    return h


def adam_per_array(params, m, v, t, lr):
    """Step t of bias-corrected Adam, one array at a time with a temporary
    per operation: the update the parameter arena replaced, and the
    reference for its bits. m and v are per-array moment lists, updated in
    place with the parameters' values."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for p, m_k, v_k in zip(params, m, v):
        g = p.grad
        m_k *= beta1
        m_k += (1.0 - beta1) * g
        v_k *= beta2
        v_k += (1.0 - beta2) * g * g
        p.values -= lr * (m_k / c1) / (np.sqrt(v_k / c2) + eps)
