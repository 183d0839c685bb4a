"""Core data model: attribute-value pairs, data samples, and the embedding table.

An attribute is identified by a dense integer id that indexes a global
universe shared by both sides; the side (user or item) is fixed per id.
The representation of an attribute-value pair is val * v, where v is the
attribute's embedding vector.
A Side is a characteristic checked once where it is built; pass one Side
to many hand-built samples to share one checked side, as the parser does.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, InvalidConfigError, MissingEmbeddingError

USER = "user"
ITEM = "item"


class AttributeId(NamedTuple):
    id: int
    side: str  # USER or ITEM, fixed per id


class AttributeValuePair(NamedTuple):
    att: AttributeId
    val: float


# Most attributes a side may have. pair_relu_sum keeps at least one whole
# m-node graph per chunk: (m-1) * m * 4d float64 values plus a one-byte relu
# mask each. At MAX_DIM (1024) that must stay under 1 GiB; m = 128 keeps it
# at about 570 MiB.
MAX_SIDE_ATTRS = 128

# A pair's value type: float and int first, since checking the numbers.Real ABC alone is slow.
_NUMBER = (float, int, numbers.Real)


class Side(tuple):
    """A nonempty tuple of at most MAX_SIDE_ATTRS attribute-value pairs with
    unique ids, one side tag (the first pair's) and finite values: checked
    when built (copies and pickles too) and immutable, so it stays valid."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[AttributeValuePair]):
        self = super().__new__(cls, pairs)
        if not self:
            raise ContractError("empty attribute list")
        for k, pair in enumerate(self):
            if not (isinstance(pair, AttributeValuePair) and isinstance(pair.att, AttributeId)
                    and isinstance(pair.val, _NUMBER)):
                raise ContractError(f"pair {k} of the side is not AttributeValuePair(AttributeId, number): {pair!r}")
        tag = self[0].att.side
        if len(self) > MAX_SIDE_ATTRS:
            raise ContractError(f"{len(self)} attributes on the {tag} side, at most {MAX_SIDE_ATTRS}")
        seen = set()
        for att, val in self:
            if att.side != tag:
                raise ContractError(f"attribute id {att.id} is {att.side}-side, used on the {tag} side")
            if att.id in seen:
                raise ContractError(f"duplicate attribute id {att.id} on the {tag} side")
            if not math.isfinite(val):
                raise ContractError(f"non-finite value for attribute id {att.id}")
            seen.add(att.id)
        return self


@dataclass(frozen=True)
class DataSample:
    """One observation: a user characteristic, an item characteristic, a
    label of 0 or 1. A Side is kept after an O(1) check of its tag; pass one
    Side to share one checked side across hand-built samples. Any other
    sequence is checked as a Side and kept as a tuple, itself if it is one."""

    user_chars: tuple[AttributeValuePair, ...]
    item_chars: tuple[AttributeValuePair, ...]
    label: float

    def __post_init__(self):
        for name, side in (("user_chars", USER), ("item_chars", ITEM)):
            chars = getattr(self, name)
            if not isinstance(chars, Side):
                Side(chars := tuple(chars))
                object.__setattr__(self, name, chars)
            first = chars[0].att
            if first.side != side:
                raise ContractError(f"attribute id {first.id} is {first.side}-side, used on the {side} side")
        if self.label not in (0.0, 1.0, 0, 1):
            raise ContractError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class EmbeddingTable:
    """Dense lookup table: one length-dim vector per attribute id.

    All samples sharing an attribute resolve to the same underlying row,
    so mutating a row changes every representation built from it.
    """

    dim: int
    ids: tuple[AttributeId, ...]
    matrix: np.ndarray  # (len(ids), dim), held as C-contiguous float64
    _keys: np.ndarray = field(init=False, repr=False, compare=False)  # ids ascending
    _key_rows: np.ndarray = field(init=False, repr=False, compare=False)  # row of each key

    def __post_init__(self):
        if not self.ids:
            raise InvalidConfigError("attribute universe is empty")
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)  # Parameter shares it, no copy
        if self.matrix.shape != (len(self.ids), self.dim):
            raise InvalidConfigError(f"embedding matrix of shape {self.matrix.shape}, "
                                     f"expected ({len(self.ids)}, {self.dim}): one row of dim per id")
        ids = np.array([att.id for att in self.ids])
        self._key_rows = np.argsort(ids, kind="stable")
        self._keys = ids[self._key_rows]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise InvalidConfigError("duplicate attribute ids in universe")

    def _search(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Binary-search positions of ids among the sorted keys, and which
        ids are there; reads only, so concurrent callers are safe."""
        pos = self._keys.searchsorted(ids)
        return pos, self._keys.take(pos, mode="clip") == ids

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The row of every id in a 1-D id array. The first unknown id
        raises MissingEmbeddingError."""
        pos, known = self._search(ids)
        if not known.all():
            raise MissingEmbeddingError(f"no embedding for attribute id {ids[np.argmin(known)]}")
        return self._key_rows[pos]

    def row(self, att: AttributeId) -> int:
        return int(self.rows(np.array([att.id]))[0])

    def vector(self, att: AttributeId) -> np.ndarray:
        """View of the attribute's embedding row (shared, not a copy)."""
        return self.matrix[self.row(att)]

    def vectors(self, atts: Sequence[AttributeId]) -> np.ndarray:
        """The attributes' embedding rows, stacked in order (a copy), by one
        id search."""
        return self.matrix[self.rows(np.array([att.id for att in atts], dtype=np.int64))]

    def __contains__(self, att: AttributeId) -> bool:
        return bool(self._search(np.array([att.id]))[1][0])


def init_embeddings(universe: Iterable[AttributeId], dim: int, seed: int) -> EmbeddingTable:
    """Seeded uniform init on [-1/sqrt(dim), +1/sqrt(dim)], one row per id.

    Rows are laid out in ascending id order; the same seed reproduces the
    table bit for bit.
    """
    ids = tuple(sorted(set(universe), key=lambda a: a.id))
    if dim < 1:
        raise InvalidConfigError(f"embedding dim must be >= 1, got {dim}")
    bound = 1.0 / math.sqrt(dim)
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-bound, bound, size=(len(ids), dim))
    return EmbeddingTable(dim=dim, ids=ids, matrix=matrix)


def universe_of(samples: Sequence[DataSample]) -> tuple[AttributeId, ...]:
    """All attribute ids in the samples, ascending by id, walking each distinct side once."""
    seen: dict[int, AttributeId] = {}
    for chars in {id(chars): chars for s in samples for chars in (s.user_chars, s.item_chars)}.values():
        for p in chars:
            seen.setdefault(p.att.id, p.att)
    return tuple(sorted(seen.values(), key=lambda a: a.id))


def side_key(chars: Sequence[AttributeValuePair]) -> tuple:
    """Hashable value of a side: its (id, value) pairs in any order, values
    equal as numbers (0, -0) equal. The parser interns sides by it."""
    return tuple(sorted((p.att.id, p.val) for p in chars))


def sample_user_key(sample: DataSample) -> tuple:
    """side_key of a sample's user side: its user's value, whatever tuple holds it."""
    return side_key(sample.user_chars)


def sample_item_key(sample: DataSample) -> tuple:
    """side_key of a sample's item side."""
    return side_key(sample.item_chars)
