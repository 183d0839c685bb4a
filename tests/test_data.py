import numpy as np
import pytest

from gmrec.data import (
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    EmbeddingTable,
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

    def test_vectorised_rows_equal_row_for_non_ascending_ids(self, rng):
        ids = tuple(AttributeId(i, USER) for i in (9, 2, 30, 4, 17, -3))
        table = EmbeddingTable(dim=2, ids=ids, matrix=np.zeros((len(ids), 2)))
        query = rng.choice([a.id for a in ids], size=40)
        assert np.array_equal(table.rows(query), [table.row(AttributeId(int(i), USER)) for i in query])
        for unknown in (-4, 3, 31, 2**70):  # below, between, above, beyond int64
            with pytest.raises(MissingEmbeddingError, match=rf"attribute id {unknown}$"):
                table.rows(np.array([9, unknown, 2]))


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
