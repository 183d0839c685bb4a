import io
import json
import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmrec.data
import gmrec.dataio
from gmrec.cli import main
from gmrec.data import ITEM, USER, side_key, universe_of
from gmrec.dataio import (
    MAGIC,
    MAX_SYNTH_CARD,
    MAX_SYNTH_COUNT,
    ParseOptions,
    SynthSpec,
    Vocabulary,
    generate_synthetic,
    load_checkpoint,
    parse_dataset_lines,
    save_checkpoint,
    serialize_dataset,
    write_synthetic,
)
from gmrec.errors import CheckpointError, EmptyDatasetError, InvalidConfigError, ParseError
from gmrec.metrics import per_user_report, score_dataset
from gmrec.model import (
    CANONICAL,
    VariantConfig,
    build_plan,
    init_model_params,
    predict,
)
from gmrec.training import split_per_user

from conftest import draw_synth_spec, plan_side_map, shuffle_tokens
from oracles import value_side_map


class TestParsing:
    def test_basic_line(self):
        ds = parse_dataset_lines(["1\tgender=male age_18\tgenre=scifi"])
        (s,) = ds.samples
        assert len(s.user_chars) == 2 and len(s.item_chars) == 1
        assert all(p.val == 1.0 for p in s.user_chars + s.item_chars)
        assert s.label == 1.0
        assert ds.vocab.names == ["gender=male", "age_18", "genre=scifi"]

    def test_numeric_value_token(self):
        ds = parse_dataset_lines(["0\tage=23.5\tprice=-2"])
        (s,) = ds.samples
        assert s.user_chars[0].val == 23.5
        assert s.item_chars[0].val == -2.0
        assert ds.vocab.names == ["age", "price"]

    @pytest.mark.parametrize("token", ["=3", "=-2.5", "=nan"])
    def test_numeric_token_without_a_name_rejected(self, token, capsys, tmp_path):
        """A numeric value needs an attribute name: a ParseError naming the
        line and the token, exit 2 from the CLI."""
        lines = ["1\tu1\ti1", f"0\tu1 {token}\ti2"]
        with pytest.raises(ParseError, match=rf"^line 2: token '{token}' gives a value to an empty attribute name$"):
            parse_dataset_lines(lines)
        data = tmp_path / "data.tsv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(data), "--dim", "2", "--epochs", "1"]) == 2
        assert f"token '{token}'" in capsys.readouterr().err

    def test_categorical_token_may_start_with_equals(self):
        ds = parse_dataset_lines(["1\t=\t=x"])
        assert ds.vocab.names == ["=", "=x"]
        assert all(p.val == 1.0 for p in ds.samples[0].user_chars + ds.samples[0].item_chars)

    def test_rating_threshold(self):
        lines = ["4\tu1\ti1", "3\tu1\ti2"]
        ds = parse_dataset_lines(lines, ParseOptions(threshold=3.0))
        assert [s.label for s in ds.samples] == [1.0, 0.0]

    def test_raw_rating_without_threshold_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dataset_lines(["4\tu1\ti1"])

    def test_duplicate_attribute_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dataset_lines(["1\tu1\ti1", "1\tu2 u2\ti1"])

    @pytest.mark.parametrize("threshold", [None, 2.5])
    @pytest.mark.parametrize("label", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_label_rejected_with_line_number(self, threshold, label):
        first = "1\tu1\ti1" if threshold is None else "4\tu1\ti1"
        with pytest.raises(ParseError, match=rf"^line 2: bad label '{label}'$"):
            parse_dataset_lines([first, f"{label}\tu1\ti2"], ParseOptions(threshold=threshold))

    def test_equal_side_texts_share_one_tuple(self):
        """Sides are interned by value: every line with an equal side, the
        same attributes in another token order included, gets the first
        tuple parsed with that value."""
        ds = parse_dataset_lines(["1\tu1 a=2\ti1 c", "0\tu1 a=2\ti2", "1\ta=2 u1\ti1 c"])
        first, second, third = ds.samples
        assert second.user_chars is first.user_chars and third.item_chars is first.item_chars
        assert third.user_chars is first.user_chars
        assert ds.report.n_users == 1

    def test_each_distinct_side_text_is_checked_once(self, monkeypatch):
        """The parser builds one Side, and so checks the side rules once, per
        distinct side text of a file, however many lines repeat it."""
        built = []

        class CountedSide(gmrec.data.Side):
            __slots__ = ()

            def __new__(cls, pairs):
                built.append(1)
                return super().__new__(cls, pairs)

        monkeypatch.setattr(gmrec.dataio, "Side", CountedSide)
        lines = generate_synthetic(SynthSpec(users=30, items=20, samples=240, seed=5))[0].splitlines()
        ds = parse_dataset_lines(lines)
        texts = {(k, line.split("\t")[k]) for line in lines for k in (1, 2)}
        assert len(built) == len(texts) < 2 * len(ds.samples)
        assert all(type(chars) is CountedSide for s in ds.samples for chars in (s.user_chars, s.item_chars))

    def test_values_equal_as_numbers_are_one_side(self):
        """a=0, a=-0 and a=0.0 are one side, and it keeps the first value."""
        ds = parse_dataset_lines(["1\tu1 a=0\ti1", "0\ta=-0 u1\ti2", "1\tu1 a=0.0\ti3", "0\tu1 a=1e-300\ti1"])
        first, second, third, fourth = (s.user_chars for s in ds.samples)
        assert second is first and third is first and fourth is not first
        assert math.copysign(1.0, second[1].val) == 1.0

    def test_side_of_max_attrs_parses(self):
        user = " ".join(f"u{k}" for k in range(gmrec.data.MAX_SIDE_ATTRS))
        ds = parse_dataset_lines([f"1\t{user}\ti1"])
        assert len(ds.samples[0].user_chars) == gmrec.data.MAX_SIDE_ATTRS

    @pytest.mark.parametrize("side", [USER, ITEM])
    def test_side_over_max_attrs_rejected(self, side):
        big = " ".join(f"x{k}" for k in range(gmrec.data.MAX_SIDE_ATTRS + 1))
        fields = f"{big}\ti1" if side == USER else f"u1\t{big}"
        n = gmrec.data.MAX_SIDE_ATTRS + 1
        with pytest.raises(ParseError, match=rf"^line 2: {n} attributes on the {side} side, at most {n - 1}$"):
            parse_dataset_lines(["1\tu1\ti1", f"0\t{fields}"])

    @pytest.mark.parametrize("lines, message", [
        (["1\tu1\ti1", "0\tu2 u2\ti1", "1\tu2 u2\ti1"], "line 2: duplicate attribute id 2 on the user side"),
        (["1\tx\ti1", "0\tu1\tx", "1\tu1\tx"], "line 2: attribute 'x' used on both sides"),
        (["1\tu1\ti1 w=nan", "1\tu1\ti1 w=nan"], "line 1: non-finite value for attribute id 2"),
        (["1\tu1\ti1", "0\tu1\ti1 w=inf", "1\tu1\ti1 w=inf"], "line 2: non-finite value for attribute id 2"),
        (["1\tu1\ti1", "0\tu1\t ", "1\tu1\t "], "line 2: empty attribute list"),
    ])
    def test_repeated_bad_text_fails_at_its_first_line(self, lines, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_dataset_lines(lines)

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dataset_lines(["1\tonly-two-columns"])

    def test_attribute_on_both_sides_rejected(self):
        with pytest.raises(ParseError, match="both sides"):
            parse_dataset_lines(["1\tcommon\tother", "1\tu2\tcommon"])

    def test_given_vocabulary_is_closed(self):
        """A name outside a given vocabulary fails at the first line that
        uses it once a kept sample uses it; samples dropped by min_positives
        do not count, and the vocabulary is never extended."""
        vocab = parse_dataset_lines(["1\tu1\ti1", "1\tu1 a=2\ti2"]).vocab
        names = list(vocab.names)
        lines = ["1\tu1\ti1", "0\tu1 a=2\tnew_item", "1\tnobody\ti1", "1\tu1\tnew_item"]
        with pytest.raises(ParseError, match=r"^line 2: unknown attribute 'new_item': .*no embedding"):
            parse_dataset_lines(lines, None, vocab)
        with pytest.raises(ParseError, match=r"^line 3: unknown attribute 'nobody': .*no embedding"):
            parse_dataset_lines([lines[0], "", lines[2]], None, vocab)
        kept = parse_dataset_lines(["1\tu1\ti2", "1\tu1\ti1", "1\tnobody\ti1", "0\tnobody\ti2"],
                                   ParseOptions(min_positives=2), vocab)
        assert [s.user_chars[0].att for s in kept.samples] == [vocab.lookup("u1")] * 2
        assert kept.vocab is vocab and vocab.names == names
        lines = ["1\tu1\ti2", "1\tu1\ti1", "1\tnobody\tnew_item", "0\tu1\tnew_item"]
        with pytest.raises(ParseError, match=r"^line 3: unknown attribute 'new_item'"):
            parse_dataset_lines(lines, ParseOptions(min_positives=2), vocab)
        assert vocab.names == names and vocab.lookup("new_item") is None

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            parse_dataset_lines([])

    def test_min_positives_drops_users(self):
        lines = [
            "1\tu1\ti1", "1\tu1\ti2",  # u1 has 2 positives
            "1\tu2\ti1", "0\tu2\ti2",  # u2 has 1
        ]
        ds = parse_dataset_lines(lines, ParseOptions(min_positives=2))
        assert ds.report.n_dropped_users == 1
        assert len(ds.samples) == 2

    def test_sides_recorded(self):
        ds = parse_dataset_lines(["1\tu_a\ti_a i_b"])
        sides = {name: att.side for name, att in zip(ds.vocab.names, ds.vocab.ids)}
        assert sides == {"u_a": USER, "i_a": ITEM, "i_b": ITEM}

    def test_parse_serialize_parse_fixed_point(self):
        lines = [
            "1\tgender=male age_18\tgenre=scifi year=1999",
            "0\tgender=female weight=72.5\tgenre=drama",
        ]
        ds1 = parse_dataset_lines(lines)
        text = serialize_dataset(ds1.samples, ds1.vocab)
        ds2 = parse_dataset_lines(text.splitlines())
        assert serialize_dataset(ds2.samples, ds2.vocab) == text
        assert ds2.vocab.names == ds1.vocab.names
        assert ds2.samples == ds1.samples


def _grouping(dataset, seed):
    """What grouping by user gives, in value terms: the splits as side keys
    and labels in order, the per-user counts in order, and the per-user
    report of a fixed model."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # users with fewer than 5 samples
        split = split_per_user(dataset.samples, seed)
    parts = [[(side_key(s.user_chars), side_key(s.item_chars), s.label) for s in part]
             for part in (split.train, split.valid, split.test)]
    mp = init_model_params(universe_of(dataset.samples), 4, seed=1)
    return parts, list(split.by_user.values()), per_user_report(score_dataset(dataset.samples, mp))


class TestSideInterning:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_token_order_changes_no_grouping(self, data):
        """A file with each line's tokens shuffled gives the canonical
        file's report, splits (by value) and per-user report, and its
        plans share exactly the sides that are equal by value."""
        lines = generate_synthetic(draw_synth_spec(data))[0].splitlines()
        shuffled = shuffle_tokens(lines, np.random.default_rng(data.draw(st.integers(0, 2**16))))
        seed = data.draw(st.integers(0, 100))
        for min_positives in (0, data.draw(st.integers(1, 6))):
            options = ParseOptions(min_positives=min_positives)
            try:
                canonical = parse_dataset_lines(lines, options)
            except EmptyDatasetError:
                with pytest.raises(EmptyDatasetError):
                    parse_dataset_lines(shuffled, options)
                continue
            # The canonical vocabulary, so that attribute ids do not depend on token order.
            reordered = parse_dataset_lines(shuffled, options, parse_dataset_lines(lines).vocab)
            assert reordered.report == canonical.report
            assert _grouping(reordered, seed) == _grouping(canonical, seed)
            mp = init_model_params(universe_of(reordered.samples), 4, seed=1)
            picks = data.draw(st.lists(st.integers(0, len(reordered.samples) - 1), max_size=64))
            for batch in (reordered.samples, [reordered.samples[k] for k in picks]):
                if batch:
                    assert np.array_equal(plan_side_map(build_plan(batch, mp)), value_side_map(batch, mp.table))


class TestSynthetic:
    @pytest.mark.parametrize("field, high", [
        ("users", MAX_SYNTH_COUNT), ("items", MAX_SYNTH_COUNT), ("samples", MAX_SYNTH_COUNT),
        ("user_attr_card", MAX_SYNTH_CARD), ("second_user_attr_card", MAX_SYNTH_CARD),
        ("item_attr_card", MAX_SYNTH_CARD), ("affinity_rank", MAX_SYNTH_CARD),
    ])
    def test_sizes_bounded(self, field, high):
        SynthSpec(**{field: high})
        with pytest.raises(InvalidConfigError) as info:
            SynthSpec(**{field: high + 1})
        assert info.value.field == field

    def test_deterministic(self):
        spec = SynthSpec(users=20, items=15, samples=100, seed=9)
        a, side_a = generate_synthetic(spec)
        b, side_b = generate_synthetic(spec)
        assert a == b
        assert side_a == side_b

    def test_attrs_modes_share_pairs_and_labels(self):
        base = dict(users=20, items=15, samples=100, seed=9, noise=0.3)
        full, _ = generate_synthetic(SynthSpec(attrs="both", **base))
        bare, _ = generate_synthetic(SynthSpec(attrs="none", **base))

        def skeleton(text):
            rows = []
            for line in text.splitlines():
                label, user, item = line.split("\t")
                rows.append((label, user.split()[0], item.split()[0]))
            return rows

        assert skeleton(full) == skeleton(bare)
        assert "ua=" in full and "ua=" not in bare

    def test_labels_follow_planted_rule_when_noiseless(self):
        spec = SynthSpec(users=30, items=20, samples=200, rule="xor_cross", noise=0.0, seed=3)
        text, sidecar = generate_synthetic(spec)
        sign_a = np.array(sidecar["sign_a"])
        sign_b = np.array(sidecar["sign_b"])
        table = np.array(sidecar["affinity_table"])
        user_a = sidecar["user_a"]
        user_b = sidecar["user_b"]
        item_c = sidecar["item_c"]
        for line in text.splitlines():
            label, user, item = line.split("\t")
            uid = int(user.split()[0].split("=u")[1])
            iid = int(item.split()[0].split("=i")[1])
            score = sign_a[user_a[uid]] * sign_b[user_b[uid]] * table[user_a[uid], item_c[iid]]
            assert int(label) == (1 if score > 0 else 0)

    def test_parses_cleanly(self):
        text, _ = generate_synthetic(SynthSpec(users=10, items=10, samples=50, seed=1))
        ds = parse_dataset_lines(text.splitlines())
        assert ds.report.n_samples == 50

    def test_write_synthetic_files(self, tmp_path):
        path = tmp_path / "synth.tsv"
        write_synthetic(SynthSpec(users=5, items=5, samples=10, seed=0), str(path))
        assert path.exists()
        sidecar = json.loads((path.with_suffix(".tsv.rule.json")).read_text())
        assert "affinity_table" in sidecar

    def test_ids_can_be_dropped(self):
        text, _ = generate_synthetic(
            SynthSpec(users=10, items=10, samples=50, seed=1, ids=False)
        )
        assert "uid=" not in text and "iid=" not in text
        ds = parse_dataset_lines(text.splitlines())
        assert all(len(s.user_chars) == 2 for s in ds.samples)


class TestPlantedRuleRecovery:
    def test_low_rank_cross_rule_is_learnable_by_fm(self):
        """A noiseless rank-2 affinity rule is linear-factorizable, so the
        trained reduced pipeline separates it almost perfectly."""
        from gmrec.metrics import evaluate_model
        from gmrec.model import parse_variant
        from gmrec.training import TrainConfig, split_per_user, train

        spec = SynthSpec(users=100, items=60, samples=2500, rule="cross",
                         affinity_rank=2, user_attr_card=8, item_attr_card=8,
                         noise=0.0, ids=False, seed=21)
        text, _ = generate_synthetic(spec)
        ds = parse_dataset_lines(text.splitlines())
        split = split_per_user(ds.samples, 0)
        config = TrainConfig(dim=8, learning_rate=1e-2, epochs=25, batch_size=64,
                             seed=0, patience=25, variant=parse_variant("mode=fm"))
        result = train(split, config)
        report = evaluate_model(split.test, result.params)
        assert report["auc"] > 0.95

    def test_half_noise_caps_auc_near_three_quarters(self):
        """Replacing half the labels with coin flips caps any scorer at
        0.5 + 0.5 * clean AUC = 0.75; the rule's own scores hit the ceiling
        and a trained model cannot materially exceed it."""
        from gmrec.data import sample_user_key
        from gmrec.metrics import ScoredSample, auc

        spec = SynthSpec(users=200, items=120, samples=5000, rule="cross",
                         user_attr_card=8, item_attr_card=8, noise=0.5,
                         ids=False, seed=33)
        text, sidecar = generate_synthetic(spec)
        ds = parse_dataset_lines(text.splitlines())
        table = np.array(sidecar["affinity_table"])
        scored = []
        for line, s in zip(text.splitlines(), ds.samples):
            _, user, item = line.split("\t")
            a = int(user.split()[0].split("=c")[1])
            c = int(item.split()[0].split("=c")[1])
            scored.append(ScoredSample(sample_user_key(s), float(table[a, c]), s.label))
        ceiling = auc(scored)
        assert abs(ceiling - 0.75) < 0.02


def _dataset_and_params(dim=6, seed=4, variant=CANONICAL):
    text, _ = generate_synthetic(SynthSpec(users=12, items=10, samples=60, seed=seed))
    ds = parse_dataset_lines(text.splitlines())
    mp = init_model_params(universe_of(ds.samples), dim, seed, variant)
    return ds, mp


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        loaded, variant, vocab = load_checkpoint(path)
        assert variant == CANONICAL
        assert vocab.names == ds.vocab.names
        assert [a.side for a in vocab.ids] == [a.side for a in ds.vocab.ids]
        for a, b in zip(mp.parameters(), loaded.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_round_trip_preserves_predictions(self, tmp_path):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        loaded, variant, _ = load_checkpoint(path)
        for sample in ds.samples[:20]:
            assert predict(sample, loaded, variant).score == predict(sample, mp).score

    @pytest.mark.parametrize(
        "variant",
        [
            VariantConfig(inner="bi", cross="bi", fuse="sum"),
            VariantConfig(inner="mlp", cross="mlp_separate", fuse="mlp"),
            VariantConfig(mode="fm"),
            VariantConfig(mode="union"),
        ],
        ids=lambda v: f"{v.inner}-{v.cross}-{v.fuse}-{v.mode}",
    )
    def test_round_trip_other_variants(self, tmp_path, variant):
        ds, mp = _dataset_and_params(variant=variant)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, variant, path, ds.vocab)
        loaded, loaded_variant, _ = load_checkpoint(path)
        assert loaded_variant == variant
        sample = ds.samples[0]
        assert predict(sample, loaded, variant).score == predict(sample, mp, variant).score

    def test_loaded_params_remain_trainable(self, tmp_path):
        from gmrec.training import AdamState, adam_step, regularized_risk

        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        loaded, variant, _ = load_checkpoint(path)
        params = loaded.parameters()
        for p in params:
            p.zero_grad()
        risk = regularized_risk(ds.samples[:16], loaded, 1e-5)
        risk.tape.backward(risk)
        adam_step(params, AdamState(params), 1e-3)  # must not hit read-only arrays

    def test_names_without_an_embedding_row_are_not_written(self, tmp_path):
        """A model trained on part of a dataset keeps the names of its own
        rows; the other names of the vocabulary are dropped on save."""
        ds, _ = _dataset_and_params()
        kept = ds.samples[len(ds.samples) // 2:]
        mp = init_model_params(universe_of(kept), 6, 4, CANONICAL)
        assert len(mp.table.ids) < len(ds.vocab)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        loaded, variant, vocab = load_checkpoint(path)
        assert vocab.names == [ds.vocab.name_of(att) for att in mp.table.ids]
        assert np.array_equal(loaded.emb.values, mp.emb.values)
        reparsed = parse_dataset_lines(serialize_dataset(kept, ds.vocab).splitlines(), None, vocab)
        for before, after in zip(kept, reparsed.samples):
            assert predict(after, loaded, variant).score == predict(before, mp).score

    def test_embedding_row_without_a_name_rejected(self, tmp_path):
        _, mp = _dataset_and_params()
        with pytest.raises(CheckpointError, match="no name"):
            save_checkpoint(mp, CANONICAL, str(tmp_path / "model.ckpt"), Vocabulary())
        assert os.listdir(tmp_path) == []

    def test_truncated_file_rejected_without_partial_params(self, tmp_path):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        blob = Path(path).read_bytes()
        with open(path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(CheckpointError, match="size"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOTAMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_future_version_rejected_explicitly(self, tmp_path):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        blob = bytearray(Path(path).read_bytes())
        blob[7] = ord("2")
        with open(path, "wb") as f:
            f.write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_tampered_counts_rejected(self, tmp_path):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        blob = bytearray(Path(path).read_bytes())
        # n_mlp_arrays lives in the header after dim and n_attrs
        import struct

        struct.pack_into("<I", blob, 8 + 12, 99)
        with open(path, "wb") as f:
            f.write(bytes(blob))
        with pytest.raises(CheckpointError, match="counts"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fuse, n_mlp, n_gru", [("gru", 8, 9), ("sum", 8, 0), ("mlp", 12, 0)])
    def test_checkpoint_with_an_unread_inner_mlp_rejected(self, tmp_path, capsys, fuse, n_mlp, n_gru):
        """Older builds gave inner=bi,cross=mlp_separate an inner MLP that
        nothing read, so its checkpoints hold the arrays of inner=mlp with
        the same cross and fuse kinds. Loading one is a data error."""
        writer = VariantConfig(inner="mlp", cross="mlp_separate", fuse=fuse)
        ds, mp = _dataset_and_params(variant=writer)
        path = tmp_path / "model.ckpt"
        save_checkpoint(mp, writer, str(path), ds.vocab)
        blob = path.read_bytes()
        header = struct.unpack_from("<IIIII", blob, len(MAGIC))
        assert header[3:] == (n_mlp, n_gru)
        old = f"inner=bi,cross=mlp_separate,fuse={fuse}"
        rest = blob[len(MAGIC) + struct.calcsize("<IIIII") + header[2]:]
        path.write_bytes(MAGIC + struct.pack("<IIIII", *header[:2], len(old), *header[3:]) + old.encode() + rest)
        assert main(["predict", "--ckpt", str(path), "--line", "u\ti"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: array counts ({n_mlp} MLP, {n_gru} GRU) do not match variant {old!r}\n"


def _fm_blob(entries, dim=2, rows=None, variant=b"mode=fm"):
    """A mode=fm checkpoint (embeddings only) over (name bytes, side byte) entries."""
    blob = MAGIC + struct.pack("<IIIII", dim, len(entries), len(variant), 0, 0) + variant
    for name, side in entries:
        blob += struct.pack("<I", len(name)) + name + bytes([side])
    rows = len(entries) if rows is None else rows
    return blob + np.arange(rows * dim, dtype="<f8").tobytes()


class TestCheckpointHardening:
    def test_minimal_fm_checkpoint_loads(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(_fm_blob([(b"u", 0), (b"i", 1)]))
        mp, variant, vocab = load_checkpoint(str(path))
        assert variant == VariantConfig(mode="fm")
        assert vocab.names == ["u", "i"] and [a.side for a in vocab.ids] == [USER, ITEM]
        assert np.array_equal(mp.emb.values, [[0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "blob,message",
        [
            (_fm_blob([(b"\xffu", 0), (b"i", 1)]), "UTF-8"),
            (_fm_blob([(b"u", 0), (b"u", 0), (b"i", 1)]), "duplicate"),
            (_fm_blob([(b"u", 0), (b"i", 2)]), "side byte"),
            (_fm_blob([(b"u", 0), (b"i", 1)], dim=0), "dim"),
            (_fm_blob([], dim=2), "empty"),
            (_fm_blob([(b"u", 0), (b"i", 1)], variant=b"mode=fm,mode=fm"),
             "corrupt variant string: variant key 'mode' given twice"),
        ],
        ids=["non-utf8-name", "duplicate-names", "side-byte-2", "dim-0", "empty-vocabulary", "repeated-variant-key"],
    )
    def test_corrupt_checkpoint_rejected(self, tmp_path, capsys, blob, message):
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        assert main(["predict", "--ckpt", path, "--line", "u\ti"]) == 2
        assert "error" in capsys.readouterr().err

    def test_restore_failure_becomes_checkpoint_error(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.ckpt")
        with open(path, "wb") as f:
            f.write(_fm_blob([(b"u", 0), (b"i", 1)]))
        skeleton = gmrec.dataio.init_model_params
        monkeypatch.setattr(
            gmrec.dataio, "init_model_params",
            lambda universe, dim, seed, variant: skeleton(universe, dim, seed, CANONICAL),
        )
        with pytest.raises(CheckpointError, match="restoring"):
            load_checkpoint(path)

    def test_save_leaves_no_temporary_file(self, tmp_path):
        ds, mp = _dataset_and_params()
        save_checkpoint(mp, CANONICAL, str(tmp_path / "model.ckpt"), ds.vocab)
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ds, mp = _dataset_and_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(mp, CANONICAL, path, ds.vocab)
        before = Path(path).read_bytes()

        def no_rename(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(gmrec.dataio.os, "replace", no_rename)
        mp.emb.values[...] = 0.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(mp, CANONICAL, path, ds.vocab)
        assert Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """A small valid checkpoint: its directory, its bytes, and where its parameters start."""
    text, _ = generate_synthetic(SynthSpec(users=4, items=3, samples=8, seed=1))
    ds = parse_dataset_lines(text.splitlines())
    mp = init_model_params(universe_of(ds.samples), 2, 1, CANONICAL)
    directory = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(mp, CANONICAL, str(directory / "valid.ckpt"), ds.vocab)
    blob = (directory / "valid.ckpt").read_bytes()
    return directory, blob, len(blob) - 8 * sum(p.values.size for p in mp.parameters())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_byte_mutation_rejected_or_round_trips(valid_checkpoint, data):
    """Any one-byte change to a valid checkpoint either fails to load with
    CheckpointError or loads a model that saves back to the same bytes."""
    directory, blob, params_start = valid_checkpoint
    index = data.draw(st.one_of(st.integers(0, params_start - 1), st.integers(0, len(blob) - 1)))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[index]))
    mutated = bytearray(blob)
    mutated[index] = value
    path = directory / "mutated.ckpt"
    path.write_bytes(bytes(mutated))
    try:
        mp, variant, vocab = load_checkpoint(str(path))
    except CheckpointError:
        return
    save_checkpoint(mp, variant, str(directory / "resaved.ckpt"), vocab)
    assert (directory / "resaved.ckpt").read_bytes() == bytes(mutated)


_VALID_LINES = [
    "1\tuid_1 gender=male age=0.5\tiid_1 genre=scifi year=1.25",
    "0\tuid_2 gender=female age=-1\tiid_2 genre=drama",
    "1\tuid_1 gender=male age=0.5\tiid_2 genre=drama year=2",
    "0\tuid_3\tiid_1 genre=scifi",
]
_MUTATION_CHARS = "\t\n\r =.-+e019abinfuid_é"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_dataset_line_rejected_with_line_number_or_valid(data):
    """Up to three character edits to one line of a valid dataset file give
    either a ParseError naming a line of the file or a valid Dataset."""
    lines = list(_VALID_LINES)
    target = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[target]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(line)), label="at")
        kind = data.draw(st.sampled_from(["insert", "replace", "delete"]), label="kind")
        char = data.draw(st.sampled_from(_MUTATION_CHARS), label="char")
        if kind == "insert":
            line = line[:at] + char + line[at:]
        elif kind == "replace":
            line = line[:at] + char + line[at + 1:]
        else:
            line = line[:at] + line[at + 1:]
    lines[target] = line
    text = "\n".join(lines) + "\n"
    n_lines = len(io.StringIO(text, newline=None).readlines())
    try:
        ds = parse_dataset_lines(io.StringIO(text, newline=None))  # the newline handling of a text file
    except ParseError as exc:
        assert exc.line_number is not None and 1 <= exc.line_number <= n_lines
        assert str(exc).startswith(f"line {exc.line_number}: ")
        return
    assert ds.report.n_samples == len(ds.samples) >= len(_VALID_LINES) - 1
    for sample in ds.samples:
        assert sample.label in (0.0, 1.0)
        for chars, side in ((sample.user_chars, USER), (sample.item_chars, ITEM)):
            assert chars and len({p.att.id for p in chars}) == len(chars)
            for p in chars:
                assert ds.vocab.ids[p.att.id] == p.att and p.att.side == side
                assert math.isfinite(p.val)
