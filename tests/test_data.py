import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrec.autodiff import Parameter
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
    sample_user_key,
    universe_of,
)
from gmrec.dataio import SynthSpec, generate_synthetic, parse_dataset_lines
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

    def test_matrix_of_another_shape_rejected(self):
        """The matrix must be (len(ids), dim): a wider one, one row short, a
        flat one or a 3-D one is an InvalidConfigError, not a score from the
        wrong entries or an IndexError later."""
        ids = (AttributeId(4, USER), AttributeId(1, ITEM))
        for matrix in (np.ones((3, 5)), np.ones((2, 5)), np.ones((1, 4)), np.ones(8), np.ones((2, 4, 1))):
            with pytest.raises(InvalidConfigError, match=r"embedding matrix of shape .*expected \(2, 4\)"):
                EmbeddingTable(dim=4, ids=ids, matrix=matrix)

    def test_matrix_held_as_c_contiguous_float64(self):
        """A float32, Fortran-order or integer matrix is held as a C-contiguous
        float64 copy of its values, which a model's embedding Parameter then
        shares, so the table sees every update; a C-contiguous float64 matrix
        is held as itself."""
        ids = (AttributeId(4, USER), AttributeId(1, ITEM))
        given = np.arange(8.0).reshape(2, 4)
        for matrix in (given.astype(np.float32), np.asfortranarray(given), given.astype(np.int64), given):
            table = EmbeddingTable(dim=4, ids=ids, matrix=matrix)
            assert table.matrix.dtype == np.float64 and table.matrix.flags.c_contiguous
            assert np.array_equal(table.matrix, given)
            emb = Parameter(table.matrix, "embeddings")
            emb.values[1, 2] = -7.0
            assert table.vector(AttributeId(1, ITEM))[2] == -7.0
        assert EmbeddingTable(dim=4, ids=ids, matrix=given).matrix is given

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


def _universe_by_sample(samples):
    """universe_of's result by walking every side of every sample."""
    seen = {}
    for s in samples:
        for p in s.user_chars + s.item_chars:
            seen.setdefault(p.att.id, p.att)
    return tuple(sorted(seen.values(), key=lambda a: a.id))


class TestUniverse:
    def test_parsed_data_matches_walk_over_samples(self):
        lines = generate_synthetic(SynthSpec(users=40, items=30, samples=400, seed=3))[0].splitlines()
        samples = parse_dataset_lines(lines).samples
        assert len({id(c) for s in samples for c in (s.user_chars, s.item_chars)}) < 2 * len(samples)
        assert universe_of(samples) == _universe_by_sample(samples)
        assert universe_of(samples[::-1]) == _universe_by_sample(samples[::-1])

    def test_hand_built_data_matches_walk_over_samples(self):
        """Shared tuples, equal tuples that are separate objects, and one id
        tagged user in one sample and item in another: the first tag seen wins."""
        def side(ids, tag):
            return tuple(AttributeValuePair(AttributeId(i, tag), 1.0) for i in ids)

        shared = side((5, 1), USER)
        samples = [
            DataSample(shared, side((2,), ITEM), 1.0),
            DataSample(shared, side((7, 3), ITEM), 0.0),
            DataSample(side((5, 1), USER), side((2,), ITEM), 0.0),
            DataSample(side((3,), USER), side((9,), ITEM), 1.0),
        ]
        for batch in (samples, samples[::-1], []):
            assert universe_of(batch) == _universe_by_sample(batch)
        assert AttributeId(3, ITEM) in universe_of(samples)


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

    def test_malformed_pairs_rejected_by_position(self):
        """A pair that is not an AttributeValuePair of an AttributeId and a
        number is a ContractError naming its position, from Side and from
        DataSample: a plain tuple, an int or plain-tuple att, a string or
        None value, a bare AttributeId."""
        good = AttributeValuePair(AttributeId(1, USER), 1.0)
        item = (AttributeValuePair(AttributeId(9, ITEM), 1.0),)
        malformed = [
            (AttributeId(2, USER), 1.0),
            AttributeValuePair(2, 1.0),
            AttributeValuePair((2, USER), 1.0),
            AttributeValuePair(AttributeId(2, USER), "1.0"),
            AttributeValuePair(AttributeId(2, USER), None),
            AttributeId(2, USER),
        ]
        for pair in malformed:
            for pairs, k in (([pair], 0), ([good, pair], 1)):
                with pytest.raises(ContractError, match=rf"^pair {k} of the side is not"):
                    Side(pairs)
                with pytest.raises(ContractError, match=rf"^pair {k} of the side is not"):
                    DataSample(pairs, item, 1.0)
        assert Side([good, AttributeValuePair(AttributeId(2, USER), np.float32(0.5))])[1].val == 0.5

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
