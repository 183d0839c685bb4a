"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the PASS
lines). The directional-ablation criterion trains nine models and takes a
few minutes; everything else is fast.
"""
import math
import time

import numpy as np

from gmrec.data import sample_user_key, universe_of
from gmrec.dataio import (
    SynthSpec,
    generate_synthetic,
    load_checkpoint,
    parse_dataset_lines,
    save_checkpoint,
)
from gmrec.metrics import ScoredSample, auc, logloss, ndcg_at_k
from gmrec.model import (
    CANONICAL,
    fuse,
    init_model_params,
    parse_variant,
    predict,
    score_samples,
)
from gmrec.selfcheck import run_fmcheck, run_gradcheck
from gmrec.training import SplitDataset, TrainConfig, ablate, split_per_user, train

from conftest import make_sample, swap_roles
from oracles import auc_pair_oracle, ndcg_direct


def report(line: str):
    print(line, flush=True)


def test_criterion_1_gradient_correctness():
    """20 seeded random instances, d=8, <=4 attrs/side, step 1e-5: the tape
    gradient matches central differences within 1e-4 relative, under 10 s."""
    t0 = time.perf_counter()
    worst = run_gradcheck(instances=20, d=8, seed=0, step=1e-5, max_attrs=4)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"PASS criterion 1: gradcheck max relative error {worst:.3e} in {elapsed:.1f}s")


def test_criterion_2_fm_reduction_identity():
    """50 random instances, d<=8: reduced pipeline equals the analytic
    factorization-machine score within 1e-9, under 1 s."""
    t0 = time.perf_counter()
    worst = run_fmcheck(n=50, d_max=8, seed=0)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"max deviation {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(f"PASS criterion 2: fm identity max |deviation| {worst:.3e} in {elapsed:.2f}s")


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(123)
    # AUC: exact agreement with O(n^2) pair counting on 1000 samples,
    # including tied scores.
    scores = np.round(rng.normal(size=1000), 2)  # rounding forces some ties
    labels = (rng.random(size=1000) < 0.45).astype(float)
    labels[0], labels[1] = 1.0, 0.0
    scored = [ScoredSample("u", float(s), float(y)) for s, y in zip(scores, labels)]
    fast = auc(scored)
    brute = auc_pair_oracle(scores, labels)
    assert fast == brute, f"{fast} vs {brute}"

    # NDCG@k: direct formula on 100 random per-user rankings to 1e-12.
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 15))
        user_scores = rng.normal(size=n)
        user_labels = (rng.random(size=n) < 0.5).astype(float)
        if user_labels.sum() == 0:
            user_labels[int(rng.integers(0, n))] = 1.0
        k = int(rng.integers(1, 15))
        mine = ndcg_at_k(
            [ScoredSample("u", float(s), float(y)) for s, y in zip(user_scores, user_labels)],
            k,
        )
        worst = max(worst, abs(mine - ndcg_direct(list(user_scores), list(user_labels), k)))
    assert worst < 1e-12, f"ndcg deviation {worst}"

    # Logloss of the all-0.5 predictor is ln 2 to 1e-12.
    coin = [ScoredSample("u", 0.5, float(y)) for y in (rng.random(size=64) < 0.5)]
    assert abs(logloss(coin) - math.log(2.0)) < 1e-12
    report(f"PASS criterion 3: AUC == pair counting (exact), ndcg deviation {worst:.2e}, coin logloss == ln 2")


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(7)
    for seed in range(6):
        sample = make_sample(4, 3, vals=list(rng.uniform(0.5, 2.0, size=7)))
        mp = init_model_params(universe_of([sample]), 8, seed)
        base = predict(sample, mp)
        shuffled = type(sample)(
            user_chars=tuple(sample.user_chars[i] for i in rng.permutation(4)),
            item_chars=tuple(sample.item_chars[j] for j in rng.permutation(3)),
            label=sample.label,
        )
        assert predict(shuffled, mp).score == base.score  # exact
        assert predict(swap_roles(sample), mp).score == base.score  # exact

        opp_sum = np.sum([n.representation for n in base.item_nodes], axis=0)
        for node in base.user_nodes:
            assert np.abs(node.match - node.representation * opp_sum).max() < 1e-12

        single = make_sample(1, 3, vals=list(rng.uniform(0.5, 2.0, size=4)))
        mp_single = init_model_params(universe_of([single]), 8, seed)
        res = predict(single, mp_single)
        node = res.user_nodes[0]
        assert np.array_equal(node.message, np.zeros(8))
        fused = fuse(node.representation, np.zeros(8), node.match, mp_single)
        assert np.array_equal(res.user_repr, fused)  # exact
    report(
        "PASS criterion 4: permutation, role-swap, and single-node identities exact; "
        "node-match linearity within 1e-12"
    )


def test_criterion_5_overfit_capacity():
    """The canonical model drives a 100-sample dataset above train AUC 0.99
    within 50 epochs at d=16, lr 1e-3, in under 60 s."""
    text, _ = generate_synthetic(
        SynthSpec(users=20, items=30, samples=100, rule="xor_cross", noise=0.0, seed=42)
    )
    ds = parse_dataset_lines(text.splitlines())
    split = SplitDataset(train=list(ds.samples), valid=list(ds.samples), test=[])
    config = TrainConfig(dim=16, learning_rate=1e-3, epochs=50, batch_size=8, seed=0, patience=50)
    t0 = time.perf_counter()
    result = train(split, config)
    elapsed = time.perf_counter() - t0
    scores = score_samples(ds.samples, result.params)
    train_auc = auc(
        [ScoredSample(sample_user_key(s), float(v), s.label) for s, v in zip(ds.samples, scores)]
    )
    assert train_auc > 0.99, f"train AUC {train_auc}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(f"PASS criterion 5: train AUC {train_auc:.4f} after {len(result.logs)} epochs in {elapsed:.1f}s")


ABLATION_SPEC = SynthSpec(
    users=500, items=300, samples=10000, rule="xor_cross",
    user_attr_card=24, second_user_attr_card=4, item_attr_card=24,
    noise=0.1, ids=False, seed=11,
)


def test_criterion_6_directional_ablation():
    """On the planted-rule dataset (10k samples, XOR-modulated cross-affinity,
    noise 0.1) the full model beats both the no-matching variant and the
    trained FM reduction by at least 0.01 AUC, averaged over 3 seeds,
    within 10 minutes."""
    t0 = time.perf_counter()
    text, _ = generate_synthetic(ABLATION_SPEC)
    ds = parse_dataset_lines(text.splitlines())
    variants = ("inner=mlp,cross=bi,fuse=gru", "inner=mlp,cross=none,fuse=gru", "mode=fm")
    config = TrainConfig(dim=16, learning_rate=3e-3, epochs=40, batch_size=64, patience=40)
    reports = ablate(ds.samples, [parse_variant(v) for v in variants], [0, 1, 2], config)
    means = {variant: report["auc"] for variant, report in zip(variants, reports)}
    elapsed = time.perf_counter() - t0
    canon = means["inner=mlp,cross=bi,fuse=gru"]
    margin_none = canon - means["inner=mlp,cross=none,fuse=gru"]
    margin_fm = canon - means["mode=fm"]
    assert margin_none >= 0.01, f"margin vs cross=none {margin_none:.4f}"
    assert margin_fm >= 0.01, f"margin vs fm {margin_fm:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report(
        f"PASS criterion 6: AUC full {canon:.4f} vs no-matching {means['inner=mlp,cross=none,fuse=gru']:.4f} "
        f"(+{margin_none:.3f}) and fm {means['mode=fm']:.4f} (+{margin_fm:.3f}) in {elapsed:.0f}s"
    )


def test_criterion_7_determinism_and_persistence(tmp_path):
    text, _ = generate_synthetic(
        SynthSpec(users=60, items=40, samples=1200, rule="xor_cross", noise=0.05, seed=6)
    )
    ds = parse_dataset_lines(text.splitlines())
    config = TrainConfig(dim=8, epochs=5, batch_size=64, seed=9, patience=5)

    runs = []
    for _ in range(2):
        split = split_per_user(ds.samples, seed=9)
        result = train(split, config)
        runs.append(result)
    logs_a = [str(log) for log in runs[0].logs]
    logs_b = [str(log) for log in runs[1].logs]
    assert logs_a == logs_b  # bit-identical training logs
    for pa, pb in zip(runs[0].params.parameters(), runs[1].params.parameters()):
        assert np.array_equal(pa.values, pb.values)

    path = str(tmp_path / "model.ckpt")
    save_checkpoint(runs[0].params, config.variant, path, ds.vocab)
    loaded, variant, _ = load_checkpoint(path)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(ds.samples), size=100, replace=False)
    for k in picks:
        sample = ds.samples[int(k)]
        assert predict(sample, loaded, variant).score == predict(sample, runs[0].params, config.variant).score
    report("PASS criterion 7: identical logs and parameters across reruns; checkpoint round trip bit-exact on 100 samples")


def test_criterion_8_degenerate_attribute_regimes():
    """Training and evaluation complete in all four attribute regimes, and
    with both sides' attributes the test AUC is at least the id-only one."""

    def regime_auc(attrs, epochs):
        spec = SynthSpec(
            users=500, items=300, samples=10000, rule="xor_cross",
            user_attr_card=24, second_user_attr_card=4, item_attr_card=24,
            noise=0.1, ids=True, attrs=attrs, seed=11,
        )
        text, _ = generate_synthetic(spec)
        ds = parse_dataset_lines(text.splitlines())
        config = TrainConfig(dim=16, learning_rate=3e-3, epochs=epochs, batch_size=64, patience=epochs)
        return ablate(ds.samples, [CANONICAL], [0], config)[0]["auc"]

    # all four regimes must run end to end
    smoke = {attrs: regime_auc(attrs, epochs=2) for attrs in ("none", "user", "item", "both")}
    for attrs, value in smoke.items():
        assert math.isfinite(value), f"regime {attrs} produced {value}"

    auc_none = regime_auc("none", epochs=25)
    auc_both = regime_auc("both", epochs=25)
    assert auc_both >= auc_none, f"both {auc_both:.4f} < none {auc_none:.4f}"
    report(
        f"PASS criterion 8: regimes complete (smoke {', '.join(f'{k}={v:.3f}' for k, v in smoke.items())}); "
        f"both {auc_both:.4f} >= none {auc_none:.4f}"
    )
