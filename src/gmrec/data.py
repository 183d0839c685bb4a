"""Core data model: attribute-value pairs, data samples, and the embedding table.

An attribute is identified by a dense integer id that indexes a global
universe shared by both sides; the side (user or item) is fixed per id.
The representation of an attribute-value pair is val * v, where v is the
attribute's embedding vector.
"""
from __future__ import annotations

import math
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


@dataclass(frozen=True)
class DataSample:
    """One observation: a user characteristic, an item characteristic, a label.

    Both characteristics are nonempty (a bare id counts as one attribute)
    and no attribute id repeats within a side.
    """

    user_chars: tuple[AttributeValuePair, ...]
    item_chars: tuple[AttributeValuePair, ...]
    label: float

    def __post_init__(self):
        object.__setattr__(self, "user_chars", tuple(self.user_chars))
        object.__setattr__(self, "item_chars", tuple(self.item_chars))
        for side_name, chars, side in (
            ("user", self.user_chars, USER),
            ("item", self.item_chars, ITEM),
        ):
            if not chars:
                raise ContractError(f"{side_name} characteristic is empty")
            ids = [p.att.id for p in chars]
            if len(set(ids)) != len(ids):
                raise ContractError(f"duplicate attribute id on the {side_name} side")
            for p in chars:
                if p.att.side != side:
                    raise ContractError(
                        f"attribute id {p.att.id} is {p.att.side}-side, used on the {side_name} side"
                    )
                if not math.isfinite(p.val):
                    raise ContractError(f"non-finite value for attribute id {p.att.id}")
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
    matrix: np.ndarray  # (len(ids), dim), float64
    _keys: np.ndarray = field(init=False, repr=False, compare=False)  # ids ascending
    _key_rows: np.ndarray = field(init=False, repr=False, compare=False)  # row of each key

    def __post_init__(self):
        if not self.ids:
            raise InvalidConfigError("attribute universe is empty")
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


def node_representation(pair: AttributeValuePair, table: EmbeddingTable) -> np.ndarray:
    """Representation of an attribute-value pair: val * v, elementwise."""
    return pair.val * table.vector(pair.att)


def universe_of(samples: Sequence[DataSample]) -> tuple[AttributeId, ...]:
    """All attribute ids appearing in the samples, ascending by id."""
    seen: dict[int, AttributeId] = {}
    for s in samples:
        for p in s.user_chars + s.item_chars:
            seen.setdefault(p.att.id, p.att)
    return tuple(sorted(seen.values(), key=lambda a: a.id))


def sample_user_key(sample: DataSample) -> tuple:
    """Hashable identity of the user in a sample: its full characteristic.

    Two samples describe the same user exactly when their user sides carry
    the same attribute-value pairs.
    """
    return tuple(sorted((p.att.id, p.val) for p in sample.user_chars))


def sample_item_key(sample: DataSample) -> tuple:
    """Hashable identity of the item characteristic in a sample."""
    return tuple(sorted((p.att.id, p.val) for p in sample.item_chars))
