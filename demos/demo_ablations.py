"""Compare interaction-modeling and fusing choices on one dataset.

Each variant string picks the pair model for same-side interactions, the
model for user-item interactions, and the fusing function. "mode=fm" runs
the reduced pipeline that collapses to a factorization machine.

Run: python demos/demo_ablations.py
"""
from gmrec import SynthSpec, TrainConfig, ablate, generate_synthetic, parse_dataset_lines, parse_variant

VARIANTS = [
    "inner=mlp,cross=bi,fuse=gru",   # the full model
    "inner=mlp,cross=none,fuse=gru", # no node matching at all
    "inner=bi,cross=bi,fuse=gru",    # products everywhere
    "inner=mlp,cross=bi,fuse=sum",   # linear fusing
    "mode=fm",                       # factorization-machine reduction
]

# No id columns: the label needs the three-way composition of two user
# attributes and one item attribute, which additive pairwise models
# cannot shortcut through per-user memorization.
text, _ = generate_synthetic(
    SynthSpec(users=300, items=200, samples=6000, rule="xor_cross",
              user_attr_card=24, second_user_attr_card=4, item_attr_card=24,
              noise=0.1, ids=False, seed=4)
)
dataset = parse_dataset_lines(text.splitlines())
config = TrainConfig(dim=16, learning_rate=3e-3, epochs=25, batch_size=64, patience=25)
reports = ablate(dataset.samples, [parse_variant(v) for v in VARIANTS], [0], config)

print(f"{'variant':35s} {'auc':>8s} {'logloss':>8s} {'ndcg@10':>8s}")
for text_variant, report in zip(VARIANTS, reports):
    print(f"{text_variant:35s} {report['auc']:8.4f} {report['logloss']:8.4f} "
          f"{report['ndcg@10']:8.4f}")
