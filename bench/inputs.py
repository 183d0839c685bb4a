"""Seeded input generators. The same seed gives the same bytes.

The generators live here, not in the library, so that a change to
`gmrec.dataio.generate_synthetic` cannot change what the benchmark feeds
the program. Files are written in the library's text format: a label, the
user attributes and the item attributes, tab separated. A token `name=v`
with a numeric v is a numeric attribute with value v; any other token is a
categorical attribute with value 1.
"""
from __future__ import annotations

import numpy as np

# The criterion-6/8 synthetic spec of the acceptance suite, ids on: every
# user has uid, ua, ub (p = 3 nodes) and every item iid, ic (q = 2 nodes).
SMALL_USERS, SMALL_ITEMS, SMALL_PER_USER = 500, 300, 20
SMALL_CARD_A, SMALL_CARD_B, SMALL_CARD_C = 24, 4, 24
SMALL_NOISE = 0.1

# The wide catalogue: 6 to 8 attributes per side, one of them numeric.
# 10 samples per user split 6/2/2, so the train split is 6 * 128 = 768
# samples, exactly twelve batches of 64.
WIDE_USERS, WIDE_ITEMS, WIDE_PER_USER = 128, 256, 10
WIDE_FIELDS, WIDE_CARD, WIDE_FACTORS = 7, 6, 4
WIDE_NOISE = 0.1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0x62656E63, stream]))


def train_small_text(seed: int) -> str:
    """Planted XOR-modulated cross-affinity rule over 500 users x 300 items.

    label = [sign_a[a(u)] * sign_b[b(u)] * T[a(u), c(i)] > 0], flipped to a
    coin with probability 0.1; T has its additive shortcuts removed so that
    only the three-way composition carries signal.
    """
    rng = _rng(seed, 1)
    user_a = rng.integers(0, SMALL_CARD_A, size=SMALL_USERS)
    user_b = rng.integers(0, SMALL_CARD_B, size=SMALL_USERS)
    item_c = rng.integers(0, SMALL_CARD_C, size=SMALL_ITEMS)
    sign_a = rng.permutation(np.repeat([-1.0, 1.0], SMALL_CARD_A // 2))
    sign_b = rng.permutation(np.repeat([-1.0, 1.0], SMALL_CARD_B // 2))
    table = rng.normal(size=(SMALL_CARD_A, SMALL_CARD_C))
    for _ in range(3):
        table = table - sign_a[:, None] * (sign_a @ table)[None, :] / SMALL_CARD_A
        table = table - table.mean(axis=1, keepdims=True)
    table = table - np.median(table)
    lines = []
    for u in range(SMALL_USERS):
        items = np.sort(rng.choice(SMALL_ITEMS, size=SMALL_PER_USER, replace=False))
        flips = rng.random(size=SMALL_PER_USER) < SMALL_NOISE
        coins = rng.random(size=SMALL_PER_USER) < 0.5
        user = f"uid=u{u} ua=c{user_a[u]} ub=c{user_b[u]}"
        for item, flip, coin in zip(items, flips, coins):
            score = sign_a[user_a[u]] * sign_b[user_b[u]] * table[user_a[u], item_c[item]]
            label = int(coin) if flip else int(score > 0)
            lines.append(f"{label}\t{user}\tiid=i{item} ic=c{item_c[item]}")
    return "\n".join(lines) + "\n"


def _wide_side(rng: np.random.Generator, count: int, prefix: str, numeric: str):
    """Per entity: its attribute tokens and its latent factor vector.

    Each entity has 5 to 7 of the categorical fields plus the numeric one,
    fixed once here so that every line repeats the same characteristic.
    """
    factors = rng.normal(size=(WIDE_FIELDS, WIDE_CARD, WIDE_FACTORS))
    tokens, vectors, numbers = [], [], []
    for _ in range(count):
        n_fields = int(rng.integers(WIDE_FIELDS - 2, WIDE_FIELDS + 1))
        fields = np.sort(rng.choice(WIDE_FIELDS, size=n_fields, replace=False))
        values = rng.integers(0, WIDE_CARD, size=n_fields)
        number = float(rng.uniform(0.5, 1.5))
        text = " ".join(f"{prefix}{f}=v{v}" for f, v in zip(fields, values))
        tokens.append(f"{text} {numeric}={number:.3f}")
        vectors.append(sum(factors[f, v] for f, v in zip(fields, values)))
        numbers.append(round(number, 3))
    return tokens, np.array(vectors), np.array(numbers)


def train_wide_text(seed: int) -> str:
    """Latent-factor rule over 128 users x 256 items, 6-8 attributes a side.

    score = <user factors, item factors> + 2 (age - 1)(price - 1); the label
    is the score above its median, flipped to a coin with probability 0.1.
    """
    rng = _rng(seed, 2)
    users, user_vec, age = _wide_side(rng, WIDE_USERS, "ua", "uage")
    items, item_vec, price = _wide_side(rng, WIDE_ITEMS, "ia", "iprice")
    picks = np.stack([
        rng.choice(WIDE_ITEMS, size=WIDE_PER_USER, replace=False) for _ in range(WIDE_USERS)
    ])
    rows = np.repeat(np.arange(WIDE_USERS), WIDE_PER_USER)
    cols = picks.reshape(-1)
    score = (user_vec[rows] * item_vec[cols]).sum(axis=1) + 2.0 * (age[rows] - 1) * (price[cols] - 1)
    labels = (score > np.median(score)).astype(int)
    flips = rng.random(size=labels.size) < WIDE_NOISE
    coins = (rng.random(size=labels.size) < 0.5).astype(int)
    labels = np.where(flips, coins, labels)
    lines = [f"{y}\t{users[u]}\t{items[i]}" for y, u, i in zip(labels, rows, cols)]
    return "\n".join(lines) + "\n"


def stream(seed: int, tag: int, n: int, high: int) -> np.ndarray:
    """n seeded indexes in [0, high): request streams for the serve workloads."""
    return _rng(seed, 10 + tag).integers(0, high, size=n)


def gradcheck_seeds(seed: int) -> list[int]:
    """Library seeds of acceptance criterion 1's twenty instances, in an
    order drawn from the workload seed. One pass over them is exactly
    `run_gradcheck(instances=20, seed=0)`.

    Other instance seeds are not drawn: at step 1e-5 about 2% of them put a
    perturbation across a relu kink, where the central difference (not the
    tape gradient) is wrong by up to 2e-3, and the 1e-4 gate would fail.
    """
    return [int(k) for k in _rng(seed, 3).permutation(20)]
