"""Walk one observation through the forward pass and read its attribute graphs
from predict()'s per-node diagnostics.

Each side is a complete graph over its attribute-value pairs: p nodes and
p(p-1)/2 implicit same-side edges, every node's neighbourhood being all the
others.

Run: python demos/demo_graphs_and_forward.py
"""
import numpy as np

from gmrec import (
    AttributeId,
    AttributeValuePair,
    DataSample,
    init_model_params,
    predict,
    universe_of,
)

# A user described by three attributes and a movie described by two.
gender = AttributeId(0, "user")
age = AttributeId(1, "user")
uid = AttributeId(2, "user")
genre_scifi = AttributeId(3, "item")
year = AttributeId(4, "item")

sample = DataSample(
    user_chars=(
        AttributeValuePair(gender, 1.0),
        AttributeValuePair(age, 1.0),
        AttributeValuePair(uid, 1.0),
    ),
    item_chars=(
        AttributeValuePair(genre_scifi, 1.0),
        AttributeValuePair(year, 0.7),  # numeric attribute, scaled value
    ),
    label=1.0,
)

params = init_model_params(universe_of([sample]), dim=8, seed=3)

result = predict(sample, params)
for side, nodes in (("user", result.user_nodes), ("item", result.item_nodes)):
    p = len(nodes)
    print(f"{side} graph: {p} nodes, {p * (p - 1) // 2} implicit edges")
first = result.user_nodes[0].att.id
print(f"neighbourhood of user attr {first}:", tuple(n.att.id for n in result.user_nodes if n.att.id != first))

print("\nscore:", result.score)
print("probability:", result.probability)
print("user graph representation:", np.round(result.user_repr, 4))
print("item graph representation:", np.round(result.item_repr, 4))

print("\nper-node breakdown (user side):")
for node in result.user_nodes:
    print(
        f"  attr {node.att.id}: |u|={np.linalg.norm(node.representation):.3f}"
        f" |message|={np.linalg.norm(node.message):.3f}"
        f" |match|={np.linalg.norm(node.match):.3f}"
        f" |fused|={np.linalg.norm(node.fused):.3f}"
    )

# The score never depends on how the attributes were ordered.
shuffled = DataSample(
    user_chars=sample.user_chars[::-1],
    item_chars=sample.item_chars[::-1],
    label=sample.label,
)
print("\nscore under reversed attribute order:", predict(shuffled, params).score)
print("identical bits:", predict(shuffled, params).score == result.score)
