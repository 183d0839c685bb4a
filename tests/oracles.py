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


def plan_oracle(samples, table, variant):
    """The batch plan by per-sample, per-attribute loops: the reference for
    model.build_plan. Returns its fields by name as plain intp/float64
    arrays; a segment index is (ids, starts, out_rows, n), a neighbourhood
    is (blocks, counts) with each block a (rows, nbrs, sources, back) tuple,
    in the plan's block order."""
    idx = lambda xs: np.array(xs, dtype=np.intp)
    attr_rows, vals, side_of, sample_of, opp, input_pos, firsts, sizes = [], [], [], [], [], [], [], []
    for b, sample in enumerate(samples):
        for side, other, chars in ((2 * b, 2 * b + 1, sample.user_chars), (2 * b + 1, 2 * b, sample.item_chars)):
            firsts.append(len(attr_rows))
            sizes.append(len(chars))
            for k in np.argsort([p.att.id for p in chars], kind="stable"):
                input_pos.append(firsts[-1] + k)
                attr_rows.append(table.row(chars[k].att))
                vals.append(chars[k].val)
                side_of.append(side)
                sample_of.append(b)
                opp.append(other)

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
        "n_samples": len(samples), "n_nodes": len(attr_rows), "n_sides": 2 * len(samples),
        "attr_rows": idx(attr_rows), "vals": np.array(vals, dtype=np.float64),
        "by_side": segments(side_of, 2 * len(samples)), "by_sample": segments(sample_of, len(samples)),
        "opp_seg": idx(opp), "user_seg": idx(range(0, 2 * len(samples), 2)),
        "item_seg": idx(range(1, 2 * len(samples), 2)), "input_pos": idx(input_pos),
        "pair_a": idx([]), "same_side": None, "cross_side": None,
    }
    if variant.mode != "graph":
        return plan
    plan["pair_a"] = idx([f + i for f, m in zip(firsts, sizes) for i in range(m) for j in range(m) if j != i])
    blocks = []
    for m in sorted(set(sizes) - {0, 1}):
        group = [f for f, size in zip(firsts, sizes) if size == m]
        blocks.append(block(group, m, group, m, m - 1, lambda t, i: t + (t >= i)))
    counts = [float(m - 1) for m in sizes for _ in range(m)]
    plan["same_side"] = (blocks, np.array(counts))
    if variant.cross in ("mlp_shared", "mlp_separate"):
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
