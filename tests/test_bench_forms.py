"""The calls the benchmark harness (bench/workloads.py) makes into the
library, in its own forms, on a tiny d=4 checkpoint: a change to the
library's API that would break bench/run.py fails here first."""
import functools
import math

import gmrec.data
import gmrec.dataio
import gmrec.model
import gmrec.selfcheck
import gmrec.training


def test_benchmark_call_forms(tmp_path, monkeypatch):
    text, _ = gmrec.dataio.generate_synthetic(gmrec.dataio.SynthSpec(users=8, items=6, samples=80, seed=5))
    catalogue = str(tmp_path / "catalogue.txt")
    with open(catalogue, "w", encoding="utf-8") as handle:
        handle.write(text)

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
