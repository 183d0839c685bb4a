"""The calls the benchmark harness (bench/workloads.py) makes into the
library, in its own forms, on a tiny d=4 checkpoint, and the per-layer
metrics its traced run reads from them: a change to the library's API that
would break bench/run.py fails here first."""
import functools
import math
import os
import sys

import gmrec.data
import gmrec.dataio
import gmrec.model
import gmrec.selfcheck
import gmrec.training

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import layers  # noqa: E402
import tracer as tr  # noqa: E402


def _catalogue(tmp_path) -> str:
    text, _ = gmrec.dataio.generate_synthetic(gmrec.dataio.SynthSpec(users=8, items=6, samples=80, seed=5))
    catalogue = str(tmp_path / "catalogue.txt")
    with open(catalogue, "w", encoding="utf-8") as handle:
        handle.write(text)
    return catalogue


def test_benchmark_call_forms(tmp_path, monkeypatch):
    catalogue = _catalogue(tmp_path)

    # make_checkpoint and the train workloads' hook around regularized_risk.
    risk, steps = gmrec.training.regularized_risk, []

    @functools.wraps(risk)
    def timed_risk(*args, **kwargs):
        out = risk(*args, **kwargs)
        steps.append(float(out.data))
        return out

    monkeypatch.setattr(gmrec.training, "regularized_risk", timed_risk)
    dataset = gmrec.dataio.parse_dataset(catalogue)
    split = gmrec.training.split_per_user(dataset.samples, 1)
    config = gmrec.training.TrainConfig(dim=4, learning_rate=3e-3, epochs=1, batch_size=16, seed=1, patience=1)
    result = gmrec.training.train(split, config)
    assert steps and all(map(math.isfinite, steps))
    gmrec.dataio.save_checkpoint(result.params, config.variant, str(tmp_path / "model.ckpt"), dataset.vocab)

    # Serve: load, then rank requests and single predict() calls with the loaded variant.
    mp, variant, vocab = gmrec.dataio.load_checkpoint(str(tmp_path / "model.ckpt"))
    assert variant == config.variant
    samples = gmrec.dataio.parse_dataset(catalogue, vocab=vocab).samples
    pool = list({gmrec.data.sample_item_key(s): s.item_chars for s in samples}.values())
    request = [gmrec.data.DataSample(samples[0].user_chars, item, 0.0) for item in pool]
    scores = gmrec.model.score_samples(request, mp, variant)
    for j, sample in enumerate(request):
        score = gmrec.model.predict(sample, mp, variant).score
        assert math.isfinite(score) and abs(score - scores[j]) <= 1e-9 * max(1.0, abs(score))
        assert abs(score - float(gmrec.model.score_samples([sample], mp, variant)[0])) <= 1e-9 * max(1.0, abs(score))

    # Gradcheck: a model built without a variant, the FM check and one instance.
    _, universe, init_seed = gmrec.selfcheck.random_instance(8, 3, 4)
    assert gmrec.model.init_model_params(universe, 8, init_seed).parameters()
    assert gmrec.selfcheck.run_fmcheck(n=5, d_max=8, seed=1) < 1e-9
    assert gmrec.selfcheck.run_gradcheck(instances=1, d=8, seed=3, step=1e-5, max_attrs=4) < 1e-4


def test_traced_plans_are_counted(tmp_path):
    """A short train() and one score_samples call under the bench tracer,
    installed at every import site of layers.TARGETS and restored after:
    the plans built inside the requests give non-zero nodes and pairs per
    batch, which needs build_plan's samples as its first argument."""
    split = gmrec.training.split_per_user(gmrec.dataio.parse_dataset(_catalogue(tmp_path)).samples, 1)
    config = gmrec.training.TrainConfig(dim=4, epochs=1, batch_size=16, seed=1, patience=1)
    sites = tr.snapshot(layers.TARGETS)
    assert tr.untraced_violations(sites) == []
    tracer, patches = tr.Tracer(), tr.Patches()
    tr.install(tracer, sites, patches)
    try:
        tracer.request = 0
        mp = gmrec.training.train(split, config).params
        tracer.request = 1
        gmrec.model.score_samples(split.valid, mp)
        tracer.request = None
    finally:
        patches.restore()
    assert tr.untraced_violations(sites) == []

    def side_key(sample):
        return gmrec.data.sample_user_key(sample), gmrec.data.sample_item_key(sample)

    metrics = layers.layer_metrics(tracer, 2, 1, 0.0, 0.0, side_key)
    assert metrics["model.nodes_per_batch"] > 0 and metrics["model.pairs_per_batch"] > 0
    assert {"training.train", "model.build_plan", "model.score_samples"} <= {s[0] for s in tracer.spans}
