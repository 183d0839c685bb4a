import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from gmrec.data import ITEM, USER, AttributeId, AttributeValuePair, DataSample
from gmrec.dataio import SynthSpec
from gmrec.errors import InvalidConfigError
from gmrec.model import CROSS_KINDS, FUSE_KINDS, INNER_KINDS, MODES, VariantConfig


def make_ids(n_user: int, n_item: int):
    users = [AttributeId(i, USER) for i in range(n_user)]
    items = [AttributeId(n_user + j, ITEM) for j in range(n_item)]
    return users, items


def make_sample(n_user: int, n_item: int, vals=None, label=1.0, id_offset: int = 0):
    users = [AttributeId(id_offset + i, USER) for i in range(n_user)]
    items = [AttributeId(id_offset + n_user + j, ITEM) for j in range(n_item)]
    if vals is None:
        vals = [1.0] * (n_user + n_item)
    return DataSample(
        user_chars=tuple(AttributeValuePair(a, float(v)) for a, v in zip(users, vals[:n_user])),
        item_chars=tuple(AttributeValuePair(a, float(v)) for a, v in zip(items, vals[n_user:])),
        label=label,
    )


def swap_roles(sample: DataSample) -> DataSample:
    """The same observation with the user and item sides exchanged.

    Attribute ids keep their embedding rows; only the side tags flip so the
    swapped sample still validates.
    """

    def flip(chars, new_side):
        return tuple(AttributeValuePair(AttributeId(p.att.id, new_side), p.val) for p in chars)

    return DataSample(user_chars=flip(sample.item_chars, USER), item_chars=flip(sample.user_chars, ITEM),
                      label=sample.label)


def plan_side_map(plan) -> np.ndarray:
    """The distinct side of each side of a plan's samples (user side, then
    item side, of each), read from opp_seg: the first node of a sample's
    other side is opposite this one."""
    return plan.opp_seg[plan.by_side.starts[np.arange(len(plan.by_side.out_rows)) ^ 1]]


def draw_synth_spec(data) -> SynthSpec:
    """A small SynthSpec drawn from a hypothesis st.data() object."""
    attrs = data.draw(st.sampled_from(["both", "user", "item", "none"]))
    return SynthSpec(
        users=data.draw(st.integers(1, 40)), items=data.draw(st.integers(1, 30)),
        samples=data.draw(st.integers(1, 300)), rule=data.draw(st.sampled_from(["xor_cross", "cross", "random"])),
        user_attr_card=data.draw(st.integers(1, 6)), second_user_attr_card=data.draw(st.integers(1, 4)),
        item_attr_card=data.draw(st.integers(1, 6)), noise=data.draw(st.sampled_from([0.0, 0.3])), attrs=attrs,
        ids=attrs != "both" or data.draw(st.booleans()), seed=data.draw(st.integers(0, 2**16)),
    )


def shuffle_tokens(lines, rng):
    """Dataset lines with each line's user and item tokens in a random order."""
    out = []
    for line in lines:
        label, *sides = line.split("\t")
        out.append("\t".join([label] + [" ".join(rng.permutation(side.split())) for side in sides]))
    return out


def all_variants():
    """Every valid VariantConfig, in a fixed order."""
    out = set()
    for fields in itertools.product(INNER_KINDS, CROSS_KINDS, FUSE_KINDS, MODES):
        try:
            out.add(VariantConfig(*fields))
        except InvalidConfigError:
            pass
    return sorted(out, key=repr)


def pytest_report_header(config):
    """numpy and the BLAS its matmul calls: the exact identities of the
    row-local kernel are stated for the backend that ran them."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
