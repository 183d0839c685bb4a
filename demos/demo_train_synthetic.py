"""Train on a planted-rule dataset, evaluate, and round-trip a checkpoint.

Run: python demos/demo_train_synthetic.py
"""
import os
import tempfile

from gmrec import (
    SynthSpec,
    TrainConfig,
    evaluate_model,
    format_metric_report,
    generate_synthetic,
    load_checkpoint,
    parse_dataset_lines,
    predict,
    save_checkpoint,
    split_per_user,
    train,
)

text, sidecar = generate_synthetic(
    SynthSpec(users=120, items=80, samples=2400, rule="xor_cross", noise=0.05, seed=4)
)
dataset = parse_dataset_lines(text.splitlines())
print("dataset:", dataset.report)

split = split_per_user(dataset.samples, seed=0)
config = TrainConfig(dim=16, learning_rate=3e-3, epochs=12, batch_size=128, seed=0)
result = train(split, config)
for log in result.logs:
    print(log)

report = evaluate_model(split.test, result.params)
print("test:", format_metric_report(report))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.ckpt")
    save_checkpoint(result.params, result.params.variant, path, dataset.vocab)
    loaded, _, vocab = load_checkpoint(path)
    sample = split.test[0]
    before = predict(sample, result.params).score
    after = predict(sample, loaded).score
    print(f"checkpoint round trip: score {before!r} -> {after!r}, identical={before == after}")
