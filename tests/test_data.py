import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrec.data import (
    ITEM,
    MAX_SIDE_ATTRS,
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    EmbeddingTable,
    Side,
    init_embeddings,
    node_representation,
    sample_user_key,
)
from gmrec.errors import ContractError, InvalidConfigError, MissingEmbeddingError

from conftest import make_ids


class TestInitEmbeddings:
    def test_shape_and_range(self):
        users, items = make_ids(3, 2)
        table = init_embeddings(users + items, 64, seed=7)
        assert table.matrix.shape == (5, 64)
        assert np.all(np.abs(table.matrix) <= 1.0 / 8.0)

    def test_same_seed_bit_identical(self):
        users, items = make_ids(3, 2)
        a = init_embeddings(users + items, 64, seed=7)
        b = init_embeddings(users + items, 64, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seed_differs(self):
        users, items = make_ids(3, 2)
        a = init_embeddings(users + items, 8, seed=7)
        b = init_embeddings(users + items, 8, seed=8)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_single_attribute_scalar_range(self):
        table = init_embeddings([AttributeId(0, USER)], 1, seed=0)
        assert table.matrix.shape == (1, 1)
        assert -1.0 <= table.matrix[0, 0] <= 1.0

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidConfigError):
            init_embeddings([AttributeId(0, USER)], 0, seed=0)

    def test_empty_universe_rejected(self):
        with pytest.raises(InvalidConfigError):
            init_embeddings([], 4, seed=0)
        with pytest.raises(InvalidConfigError):
            EmbeddingTable(dim=4, ids=(), matrix=np.zeros((0, 4)))

    def test_duplicate_ids_rejected(self):
        """Also when the duplicates are not adjacent in row order."""
        ids = tuple(AttributeId(i, USER) for i in (9, 2, 30, 2))
        with pytest.raises(InvalidConfigError, match="duplicate"):
            EmbeddingTable(dim=2, ids=ids, matrix=np.zeros((len(ids), 2)))

    def test_vectorised_rows_equal_row_for_non_ascending_ids(self, rng):
        ids = tuple(AttributeId(i, USER) for i in (9, 2, 30, 4, 17, -3))
        table = EmbeddingTable(dim=2, ids=ids, matrix=np.zeros((len(ids), 2)))
        query = rng.choice([a.id for a in ids], size=40)
        scan = [[a.id for a in table.ids].index(i) for i in query]
        assert np.array_equal(table.rows(query), scan)
        assert [table.row(AttributeId(int(i), USER)) for i in query] == scan
        assert all(AttributeId(int(i), USER) in table for i in query)
        for unknown in (-4, 3, 31, 2**70):  # below, between, above, beyond int64
            with pytest.raises(MissingEmbeddingError, match=rf"attribute id {unknown}$"):
                table.rows(np.array([9, unknown, 2]))
            with pytest.raises(MissingEmbeddingError, match=rf"attribute id {unknown}$"):
                table.row(AttributeId(unknown, USER))
            assert AttributeId(unknown, USER) not in table


class TestNodeRepresentation:
    def _table(self, row):
        table = init_embeddings([AttributeId(0, USER)], len(row), seed=0)
        table.matrix[0] = row
        return table

    def test_scalar_multiple(self):
        table = self._table([0.5, -1.0])
        pair = AttributeValuePair(AttributeId(0, USER), 2.0)
        assert np.array_equal(node_representation(pair, table), [1.0, -2.0])

    def test_val_one_is_identity(self):
        table = self._table([0.3, 0.7, -0.2])
        pair = AttributeValuePair(AttributeId(0, USER), 1.0)
        assert np.array_equal(node_representation(pair, table), table.matrix[0])

    def test_val_zero_annihilates(self):
        table = self._table([0.3, 0.7])
        pair = AttributeValuePair(AttributeId(0, USER), 0.0)
        assert np.array_equal(node_representation(pair, table), np.zeros(2))

    def test_unknown_attribute_rejected(self):
        table = self._table([0.3])
        pair = AttributeValuePair(AttributeId(99, USER), 1.0)
        with pytest.raises(MissingEmbeddingError):
            node_representation(pair, table)

    def test_linear_in_val(self, rng):
        users, _ = make_ids(1, 0)
        table = init_embeddings(users, 6, seed=3)
        for _ in range(20):
            val = float(rng.normal())
            a = float(rng.normal())
            lhs = node_representation(AttributeValuePair(users[0], a * val), table)
            rhs = a * node_representation(AttributeValuePair(users[0], val), table)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-15)

    def test_shared_vector_mutation_visible_everywhere(self):
        users, items = make_ids(1, 1)
        table = init_embeddings(users + items, 4, seed=0)
        pair = AttributeValuePair(users[0], 2.0)
        before = node_representation(pair, table)
        table.matrix[table.row(users[0])] += 1.0
        after = node_representation(pair, table)
        assert np.array_equal(after, before + 2.0)


class TestDataSample:
    def test_empty_side_rejected(self):
        users, items = make_ids(1, 1)
        with pytest.raises(ContractError):
            DataSample((), (AttributeValuePair(items[0], 1.0),), 1.0)

    def test_duplicate_attribute_rejected(self):
        users, items = make_ids(1, 1)
        dup = (AttributeValuePair(users[0], 1.0), AttributeValuePair(users[0], 2.0))
        with pytest.raises(ContractError):
            DataSample(dup, (AttributeValuePair(items[0], 1.0),), 1.0)

    def test_wrong_side_rejected(self):
        users, items = make_ids(1, 1)
        with pytest.raises(ContractError):
            DataSample(
                (AttributeValuePair(items[0], 1.0),),
                (AttributeValuePair(users[0], 1.0),),
                1.0,
            )

    def test_bad_label_rejected(self):
        users, items = make_ids(1, 1)
        with pytest.raises(ContractError):
            DataSample(
                (AttributeValuePair(users[0], 1.0),),
                (AttributeValuePair(items[0], 1.0),),
                0.5,
            )

    def test_user_key_ignores_order(self):
        users, items = make_ids(2, 1)
        item_chars = (AttributeValuePair(items[0], 1.0),)
        a = DataSample(
            (AttributeValuePair(users[0], 1.0), AttributeValuePair(users[1], 2.0)),
            item_chars, 1.0,
        )
        b = DataSample(
            (AttributeValuePair(users[1], 2.0), AttributeValuePair(users[0], 1.0)),
            item_chars, 0.0,
        )
        assert sample_user_key(a) == sample_user_key(b)

    def test_hand_built_side_over_max_attrs_rejected(self):
        """The cap holds for every sample, not only for parsed ones."""
        big = tuple(AttributeValuePair(AttributeId(k, USER), 1.0) for k in range(MAX_SIDE_ATTRS + 1))
        item = (AttributeValuePair(AttributeId(10_000, ITEM), 1.0),)
        n = MAX_SIDE_ATTRS + 1
        with pytest.raises(ContractError, match=rf"^{n} attributes on the user side, at most {n - 1}$"):
            DataSample(big, item, 1.0)
        assert len(DataSample(big[:-1], item, 1.0).user_chars) == MAX_SIDE_ATTRS

    def test_side_on_the_wrong_field_rejected(self):
        users, items = make_ids(2, 1)
        user = Side(AttributeValuePair(a, 1.0) for a in users)
        item = Side([AttributeValuePair(items[0], 2.0)])
        assert DataSample(user, item, 1.0).user_chars is user
        with pytest.raises(ContractError, match="^attribute id 0 is user-side, used on the item side$"):
            DataSample(user, user, 1.0)
        with pytest.raises(ContractError, match="^attribute id 2 is item-side, used on the user side$"):
            DataSample(item, item, 1.0)


class TestSide:
    def test_copies_are_checked_sides(self):
        side = Side([AttributeValuePair(AttributeId(3, ITEM), 0.5), AttributeValuePair(AttributeId(1, ITEM), 2.0)])
        for twin in (copy.copy(side), copy.deepcopy(side), pickle.loads(pickle.dumps(side))):
            assert type(twin) is Side and twin == side
        assert type(tuple(side)) is tuple and tuple(side) == side

    @staticmethod
    @st.composite
    def pair_lists(draw):
        """Pair lists that break each side rule, alone or together, or none."""
        n = draw(st.one_of(st.integers(0, 5), st.integers(MAX_SIDE_ATTRS - 1, MAX_SIDE_ATTRS + 1)))
        ids = list(draw(st.permutations(range(n))))
        vals = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        tags = [draw(st.sampled_from([USER, ITEM]))] * n
        if n:
            spot = st.integers(0, n - 1)
            if draw(st.booleans()):
                ids[draw(spot)] = ids[draw(spot)]
            if draw(st.booleans()):
                tags[draw(spot)] = draw(st.sampled_from([USER, ITEM]))
            vals[draw(spot)] = draw(st.sampled_from([vals[0], math.nan, math.inf, -math.inf]))
        return [AttributeValuePair(AttributeId(i, t), v) for i, t, v in zip(ids, tags, vals)]

    @given(pairs=pair_lists())
    @settings(max_examples=300, deadline=None)
    def test_side_and_sample_share_one_statement(self, pairs):
        """Side(pairs) and a DataSample given the pairs as a plain tuple
        accept or reject together, with one message; an accepted plain
        tuple is stored as itself."""
        plain = tuple(pairs)
        tag = plain[0].att.side if plain else USER
        other = Side([AttributeValuePair(AttributeId(-1, ITEM if tag == USER else USER), 1.0)])

        def outcome(build):
            try:
                return build(), None
            except ContractError as exc:
                return None, str(exc)

        side, side_error = outcome(lambda: Side(pairs))
        sample, sample_error = outcome(
            lambda: DataSample(plain, other, 1.0) if tag == USER else DataSample(other, plain, 1.0)
        )
        assert side_error == sample_error
        valid = (
            0 < len(plain) <= MAX_SIDE_ATTRS
            and len({p.att.id for p in plain}) == len(plain)
            and {p.att.side for p in plain} == {tag}
            and all(math.isfinite(p.val) for p in plain)
        )
        assert (side_error is None) == valid
        if valid:
            assert side == plain
            assert (sample.user_chars if tag == USER else sample.item_chars) is plain
