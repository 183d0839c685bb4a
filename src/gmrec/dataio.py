"""Dataset file format, synthetic data generation, and checkpoints.

Dataset lines are `<label>\t<user fields>\t<item fields>`. Fields are
space-separated tokens. A token `name=value` with a numeric value is an
attribute `name` carrying that value; any other token (including ones
like `gender=male`, whose value part is not a number) is a categorical
attribute with value 1. Attribute names map to dense integer ids in
first-appearance order; an attribute may appear on one side only.

Checkpoints are a single binary blob: the 8-byte magic "GMCFCKP1", a
fixed header (dim, attribute count, variant string length, counts of MLP
and GRU arrays), the variant string, the names of the embedding table's
attributes as length-prefixed UTF-8 names (each followed by a side byte)
in row order, then every parameter array as little-endian 64-bit floats
in registry order, as model.parameter_layout lists them. Loading validates
the magic, the vocabulary (UTF-8, unique names, side byte 0 or 1), the
counts and the exact byte size before it allocates any parameter; a round
trip is bit-exact. Saving renames a finished temporary file over the target.
"""
from __future__ import annotations

import json
import math
import os
import struct
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import (
    ITEM,
    USER,
    AttributeId,
    AttributeValuePair,
    DataSample,
    Side,
    side_key,
)
from .errors import (
    CheckpointError,
    ContractError,
    EmptyDatasetError,
    InvalidConfigError,
    ParseError,
)
from .model import (
    ModelParams,
    VariantConfig,
    format_variant,
    init_model_params,
    parameter_layout,
    parse_variant,
)

MAGIC = b"GMCFCKP1"
_HEADER = struct.Struct("<IIIII")  # dim, n_attrs, variant_len, n_mlp_arrays, n_gru_arrays
_U32 = struct.Struct("<I")
_SIDES = (USER, ITEM)  # indexed by the side byte


class Vocabulary:
    """Attribute-name interning: names to dense ids, side fixed per name."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: list[AttributeId] = []
        self._by_name: dict[str, AttributeId] = {}

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, name: str, side: str) -> AttributeId:
        att = self._by_name.get(name)
        if att is None:
            att = AttributeId(len(self.names), side)
            self.names.append(name)
            self.ids.append(att)
            self._by_name[name] = att
            return att
        if att.side != side:
            raise ParseError(f"attribute {name!r} used on both sides")
        return att

    def lookup(self, name: str) -> AttributeId | None:
        return self._by_name.get(name)

    def name_of(self, att: AttributeId) -> str:
        return self.names[att.id]

    def resolve(self, names: Iterable[str]) -> list[AttributeId]:
        out = []
        for n in names:
            att = self._by_name.get(n)
            if att is None:
                raise ParseError(f"unknown attribute {n!r}")
            out.append(att)
        return out


@dataclass
class ParseOptions:
    threshold: float | None = None  # ratings above this are positive
    min_positives: int = 0  # drop users with fewer positives

    def __post_init__(self):
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise InvalidConfigError(f"threshold must be finite, got {self.threshold!r}", "threshold")
        if self.min_positives < 0:
            raise InvalidConfigError(f"min_positives must be >= 0, got {self.min_positives!r}", "min_positives")


@dataclass
class ParseReport:
    n_lines: int = 0
    n_samples: int = 0
    n_users: int = 0
    n_user_attrs: int = 0
    n_item_attrs: int = 0
    n_dropped_users: int = 0

    def __str__(self) -> str:
        return (
            f"samples={self.n_samples} users={self.n_users} "
            f"user_attrs={self.n_user_attrs} item_attrs={self.n_item_attrs} "
            f"dropped_users={self.n_dropped_users}"
        )


@dataclass
class Dataset:
    samples: list[DataSample]
    vocab: Vocabulary
    report: ParseReport


def _parse_token(token: str) -> tuple[str, float]:
    name, sep, raw = token.partition("=")
    if sep:
        try:
            return name, float(raw)
        except ValueError:
            pass  # non-numeric value: the whole token is a categorical attribute
    return token, 1.0


def parse_dataset_lines(
    lines: Iterable[str],
    options: ParseOptions | None = None,
    vocab: Vocabulary | None = None,
) -> Dataset:
    """Parse dataset lines; a pre-existing vocabulary (e.g. from a
    checkpoint) keeps attribute ids aligned with it.

    The parser checks the columns, the label's number and that a name keeps
    one side; each distinct side text is built once as a data.Side, which
    checks the side, and sides equal by side_key share the first Side with
    that value, so the plan dedupe and every per-user grouping key on it."""
    options = options or ParseOptions()
    vocab = vocab if vocab is not None else Vocabulary()
    samples: list[DataSample] = []
    parsed = {}  # (side, text) -> its Side, filled only once the text parses
    interned = {}  # side_key -> first Side with that value; user and item ids never overlap
    report = ParseReport()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        report.n_lines += 1
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated columns, got {len(parts)}", lineno)
        label_text, user_text, item_text = parts
        try:
            raw_label = float(label_text)
        except ValueError:
            raw_label = math.nan
        if not math.isfinite(raw_label):
            raise ParseError(f"bad label {label_text!r}", lineno)
        label = raw_label if options.threshold is None else float(raw_label > options.threshold)
        try:
            for side, text in ((USER, user_text), (ITEM, item_text)):
                if (side, text) not in parsed:
                    tokens = map(_parse_token, text.split())
                    chars = Side(AttributeValuePair(vocab.intern(name, side), val) for name, val in tokens)
                    parsed[side, text] = interned.setdefault(side_key(chars), chars)
            samples.append(DataSample(parsed[USER, user_text], parsed[ITEM, item_text], label))
        except (ContractError, ParseError) as exc:
            raise ParseError(str(exc), lineno) from None
    if options.min_positives > 0:
        positives = Counter(s.user_chars for s in samples if s.label == 1.0)
        dropped = {s.user_chars for s in samples if positives[s.user_chars] < options.min_positives}
        samples = [s for s in samples if s.user_chars not in dropped]
        report.n_dropped_users = len(dropped)
    if not samples:
        raise EmptyDatasetError("no usable samples after parsing and filtering")
    report.n_samples = len(samples)
    report.n_users = len({s.user_chars for s in samples})
    report.n_user_attrs = sum(1 for a in vocab.ids if a.side == USER)
    report.n_item_attrs = sum(1 for a in vocab.ids if a.side == ITEM)
    return Dataset(samples=samples, vocab=vocab, report=report)


def parse_dataset(
    path: str,
    options: ParseOptions | None = None,
    vocab: Vocabulary | None = None,
) -> Dataset:
    """parse_dataset_lines over a UTF-8 file; a byte that is not valid
    UTF-8 is a ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_dataset_lines(handle, options, vocab)
    except UnicodeDecodeError:
        pass
    # Count the line of the first bad byte as the text reader splits lines:
    # at "\n", "\r\n" or a lone "\r".
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    raise ParseError("not valid UTF-8", data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1)


def _format_value(val: float) -> str:
    return repr(int(val)) if float(val).is_integer() else repr(float(val))


def serialize_sample(sample: DataSample, vocab: Vocabulary) -> str:
    def fields(chars):
        out = []
        for p in chars:
            name = vocab.name_of(p.att)
            out.append(name if p.val == 1.0 else f"{name}={_format_value(p.val)}")
        return " ".join(out)

    return f"{int(sample.label)}\t{fields(sample.user_chars)}\t{fields(sample.item_chars)}"


def serialize_dataset(samples: Sequence[DataSample], vocab: Vocabulary) -> str:
    return "\n".join(serialize_sample(s, vocab) for s in samples) + "\n"


# --------------------------------------------------------------------------
# Synthetic data with a planted rule
# --------------------------------------------------------------------------

# Largest users, items or samples count a SynthSpec accepts. The dataset has
# at most max(users, samples) lines, which peak at about 200 bytes each while
# the text is built (about 200 MB at this bound); the per-user and per-item
# attribute arrays take 8 bytes an entry.
MAX_SYNTH_COUNT = 1_000_000
# Largest attribute cardinality or affinity rank a SynthSpec accepts. The
# affinity table and its two rank factors are float64 arrays of at most
# this bound squared entries, 32 MB each.
MAX_SYNTH_CARD = 2048


@dataclass
class SynthSpec:
    """Planted-rule generator configuration.

    The label of a (user, item) pair is decided by a score combining an
    inner term (an XOR-like product of per-value signs over the user's two
    categorical attributes) and a cross term (an affinity table between the
    user's first attribute and the item's attribute):

        rule "xor_cross": score = sign_a[a(u)] * sign_b[b(u)] * T[a(u), c(i)]
        rule "cross":     score = T[a(u), c(i)]
        rule "random":    labels are fair coin flips

    With probability `noise` a label is replaced by a fair coin flip. The
    `attrs` field controls which sides' attributes are written out; ids are
    always written, and the sampled pairs and labels do not depend on it.
    """

    users: int = 200
    items: int = 120
    samples: int = 4000
    rule: str = "xor_cross"
    user_attr_card: int = 12  # cardinality of attribute a, indexes the table rows
    second_user_attr_card: int = 8  # cardinality of attribute b, carries the XOR sign
    item_attr_card: int = 12  # cardinality of attribute c, indexes the table columns
    affinity_rank: int | None = None  # None: full-rank gaussian table
    noise: float = 0.0
    attrs: str = "both"  # both | user | item | none
    ids: bool = True  # emit uid/iid columns; required for the attrs regimes
    seed: int = 0

    def __post_init__(self):
        bounds = {"users": MAX_SYNTH_COUNT, "items": MAX_SYNTH_COUNT, "samples": MAX_SYNTH_COUNT,
                  "user_attr_card": MAX_SYNTH_CARD, "second_user_attr_card": MAX_SYNTH_CARD,
                  "item_attr_card": MAX_SYNTH_CARD}
        for name, high in bounds.items():
            if not 1 <= getattr(self, name) <= high:
                raise InvalidConfigError(f"{name} must be in 1..{high}, got {getattr(self, name)!r}", name)
        if self.affinity_rank is not None and not 1 <= self.affinity_rank <= MAX_SYNTH_CARD:
            raise InvalidConfigError(
                f"affinity_rank must be in 1..{MAX_SYNTH_CARD}, got {self.affinity_rank!r}", "affinity_rank"
            )
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed!r}", "seed")
        if self.rule not in ("xor_cross", "cross", "random"):
            raise ContractError(f"unknown rule {self.rule!r}")
        if self.attrs not in ("both", "user", "item", "none"):
            raise ContractError(f"unknown attrs mode {self.attrs!r}")
        if not self.ids and self.attrs != "both":
            raise ContractError("dropping id columns requires attrs=both")
        if not 0.0 <= self.noise <= 1.0:
            raise InvalidConfigError(f"noise must be in [0, 1], got {self.noise!r}", "noise")


def generate_synthetic(spec: SynthSpec) -> tuple[str, dict]:
    """Dataset text plus a sidecar describing the planted rule.

    Deterministic in the seed; the same seed with a different `attrs` mode
    yields the same pairs and labels with other columns hidden.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
    user_a = rng.integers(0, spec.user_attr_card, size=spec.users)
    user_b = rng.integers(0, spec.second_user_attr_card, size=spec.users)
    item_c = rng.integers(0, spec.item_attr_card, size=spec.items)

    def balanced_signs(k):
        signs = np.ones(k)
        signs[: k // 2] = -1.0
        rng.shuffle(signs)
        return signs

    sign_a = balanced_signs(spec.user_attr_card)
    sign_b = balanced_signs(spec.second_user_attr_card)
    if spec.affinity_rank is None:
        table = rng.normal(size=(spec.user_attr_card, spec.item_attr_card))
    else:
        rank = spec.affinity_rank
        left = rng.normal(size=(spec.user_attr_card, rank))
        right = rng.normal(size=(rank, spec.item_attr_card))
        table = left @ right / np.sqrt(rank)
    if spec.rule == "xor_cross":
        # Strip every additive shortcut to the XOR-modulated rule: remove the
        # sign-aligned component of each table column and center rows, so all
        # pairwise marginals of the label vanish and only the genuine
        # three-way composition carries signal.
        for _ in range(3):
            table = table - sign_a[:, None] * (sign_a @ table)[None, :] / len(sign_a)
            table = table - table.mean(axis=1, keepdims=True)
    table = table - np.median(table)

    per_user = max(1, spec.samples // spec.users)
    per_user = min(per_user, spec.items)
    lines = []
    for u in range(spec.users):
        items = np.sort(rng.choice(spec.items, size=per_user, replace=False))
        coins = rng.random(size=per_user)
        flips = rng.random(size=per_user)
        for item, coin, flip in zip(items, coins, flips):
            if spec.rule == "xor_cross":
                score = sign_a[user_a[u]] * sign_b[user_b[u]] * table[user_a[u], item_c[item]]
                label = 1 if score > 0 else 0
            elif spec.rule == "cross":
                score = table[user_a[u], item_c[item]]
                label = 1 if score > 0 else 0
            else:
                label = 1 if coin < 0.5 else 0
            if spec.noise > 0 and flip < spec.noise:
                label = 1 if coin < 0.5 else 0
            user_fields = [f"uid=u{u}"] if spec.ids else []
            if spec.attrs in ("both", "user"):
                user_fields += [f"ua=c{user_a[u]}", f"ub=c{user_b[u]}"]
            item_fields = [f"iid=i{item}"] if spec.ids else []
            if spec.attrs in ("both", "item"):
                item_fields.append(f"ic=c{item_c[item]}")
            lines.append(f"{label}\t{' '.join(user_fields)}\t{' '.join(item_fields)}")
    sidecar = {
        "spec": asdict(spec),
        "sign_a": sign_a.tolist(),
        "sign_b": sign_b.tolist(),
        "affinity_table": table.tolist(),
        "user_a": user_a.tolist(),
        "user_b": user_b.tolist(),
        "item_c": item_c.tolist(),
    }
    return "\n".join(lines) + "\n", sidecar


def write_synthetic(spec: SynthSpec, path: str) -> dict:
    text, sidecar = generate_synthetic(spec)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(path + ".rule.json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2)
    return sidecar


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def _checkpoint_layout(variant: VariantConfig, dim: int, n_attrs: int) -> tuple[list[tuple[int, ...]], int, int]:
    """Every array shape in registry order, and the header's MLP and GRU array counts."""
    layout = parameter_layout(variant, dim)
    n_gru = sum(len(shapes) for name, shapes in layout if name == "gru")
    shapes = [(n_attrs, dim)] + [shape for _, part in layout for shape in part]
    return shapes, len(shapes) - 1 - n_gru, n_gru


def save_checkpoint(mp: ModelParams, variant: VariantConfig, path: str, vocab: Vocabulary) -> None:
    """Write the model with the vocabulary names of its embedding rows, in
    row order. A vocabulary name with no row (an attribute seen only in
    samples that were dropped) is not written."""
    variant_bytes = format_variant(variant).encode("utf-8")
    atts = mp.table.ids
    for att in atts:
        if not (0 <= att.id < len(vocab) and vocab.ids[att.id] == att):
            raise CheckpointError(f"embedding row for attribute id {att.id} has no name in the vocabulary")
    shapes, n_mlp, n_gru = _checkpoint_layout(variant, mp.dim, len(atts))
    if [p.shape for p in mp.parameters()] != shapes:
        raise CheckpointError("model components do not match the declared variant")
    blob = bytearray()
    blob += MAGIC
    blob += _HEADER.pack(mp.dim, len(atts), len(variant_bytes), n_mlp, n_gru)
    blob += variant_bytes
    for att in atts:
        encoded = vocab.name_of(att).encode("utf-8")
        blob += _U32.pack(len(encoded))
        blob += encoded
        blob.append(0 if att.side == USER else 1)
    for p in mp.parameters():
        blob += np.ascontiguousarray(p.values, dtype="<f8").tobytes()
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> tuple[ModelParams, VariantConfig, Vocabulary]:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        if blob[:7] == MAGIC[:7]:
            raise CheckpointError(
                f"unsupported checkpoint version {blob[7:8]!r}; this build reads version 1"
            )
        raise CheckpointError("unsupported format: bad magic")
    offset = len(MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise CheckpointError("truncated checkpoint: header missing")
    dim, n_attrs, variant_len, n_mlp, n_gru = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    if len(blob) < offset + variant_len:
        raise CheckpointError("truncated checkpoint: variant string missing")
    try:
        variant = parse_variant(blob[offset:offset + variant_len].decode("utf-8"))
    except (UnicodeDecodeError, InvalidConfigError) as exc:
        raise CheckpointError(f"corrupt variant string: {exc}") from None
    offset += variant_len
    vocab = Vocabulary()
    for k in range(n_attrs):
        if len(blob) < offset + _U32.size:
            raise CheckpointError("truncated checkpoint: vocabulary missing")
        (name_len,) = _U32.unpack_from(blob, offset)
        offset += _U32.size
        if len(blob) < offset + name_len + 1:
            raise CheckpointError("truncated checkpoint: vocabulary missing")
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"corrupt vocabulary: name {k} is not valid UTF-8") from None
        offset += name_len
        if blob[offset] >= len(_SIDES):
            raise CheckpointError(f"corrupt vocabulary: side byte {blob[offset]} for {name!r}")
        if vocab.lookup(name) is not None:
            raise CheckpointError(f"corrupt vocabulary: duplicate name {name!r}")
        vocab.intern(name, _SIDES[blob[offset]])
        offset += 1

    shapes, expected_mlp, expected_gru = _checkpoint_layout(variant, dim, n_attrs)
    if (n_mlp, n_gru) != (expected_mlp, expected_gru):
        raise CheckpointError(
            f"array counts ({n_mlp} MLP, {n_gru} GRU) do not match variant {format_variant(variant)!r}"
        )
    payload = len(blob) - offset
    expected_payload = 8 * sum(math.prod(shape) for shape in shapes)
    if payload != expected_payload:
        raise CheckpointError(
            f"payload size mismatch: {payload} bytes, expected {expected_payload}"
        )
    values = []  # read-only views into the blob; load_values copies them
    for shape in shapes:
        count = math.prod(shape)
        values.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape))
        offset += 8 * count
    try:
        mp = init_model_params(vocab.ids, dim, 0, variant)
        mp.load_values(values)
    except (InvalidConfigError, ContractError) as exc:
        raise CheckpointError(f"checkpoint does not describe a model: {exc}") from None
    return mp, variant, vocab
