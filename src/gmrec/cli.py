"""Command-line driver.

Subcommands: train, evaluate, predict, ablate, gradcheck, fmcheck, synth,
export-matrices. Exit codes: 0 success, 1 usage error, 2 data or numeric
error. Flags override values from a `key = value` config file (--config),
which override built-in defaults.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .dataio import (
    ParseOptions,
    SynthSpec,
    load_checkpoint,
    parse_dataset,
    parse_dataset_lines,
    save_checkpoint,
    write_synthetic,
)
from .errors import EngineError, InvalidConfigError, UndefinedMetricError
from .metrics import (
    evaluate_model,
    export_matrices,
    format_matrix,
    format_metric_report,
    per_user_report,
    score_dataset,
)
from .model import predict
from .selfcheck import run_fmcheck, run_gradcheck
from .training import MAX_DIM, TrainConfig, split_per_user, train
from .variants import format_variant, parse_variant


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Config fields whose flag is not the field name with dashes for underscores.
_FLAG_OF = {
    "learning_rate": "lr",
    "user_attr_card": "user-card",
    "second_user_attr_card": "second-user-card",
    "item_attr_card": "item-card",
}


@contextlib.contextmanager
def _usage_errors(flag: str | None = None):
    """Report a config-range error as a usage error naming its flag: `flag`,
    or else the flag of the field the error names."""
    try:
        yield
    except InvalidConfigError as exc:
        name = flag or _FLAG_OF.get(exc.field, str(exc.field).replace("_", "-"))
        raise _UsageError(f"--{name}: {exc}") from None


# A field whose flag and config key are both unset keeps its dataclass default.
_TRAIN_FIELDS = {
    "dim": int, "learning_rate": float, "lam": float, "epochs": int, "batch_size": int, "seed": int,
    "variant": str, "patience": int,
}
_PARSE_FIELDS = {"threshold": float, "min_positives": int}


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, default=None, help=f"embedding dimension (default {TrainConfig.dim})")
    p.add_argument("--lr", type=float, default=None, help=f"learning rate (default {TrainConfig.learning_rate})")
    p.add_argument("--lam", type=float, default=None, help=f"L2 weight (default {TrainConfig.lam})")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--patience", type=int, default=None, help="early-stop patience on validation AUC")
    p.add_argument("--variant", default=None, help=f'e.g. "{format_variant(TrainConfig.variant)}" or "mode=fm"')


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--threshold", type=float, default=None,
                   help="treat labels as ratings; ratings above this are positive")
    p.add_argument("--min-positives", type=int, default=None,
                   help="drop users with fewer positive samples")


def _finite_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _int_in(low: int, high: float = math.inf):
    """An argparse type for an integer in low..high, so that a bad value is
    reported against its own flag alone."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer in {low}..{high}, got {text!r}")
        return value

    return parse


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = None
    if not seeds or any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError(f"expected comma-separated non-negative integers, got {text!r}")
    return seeds


def build_parser() -> _Parser:
    parser = _Parser(prog="gmrec", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    _add_train_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=("all", "test"), default="all")
    p.add_argument("--seed", type=_int_in(0), default=None)
    p.add_argument("--per-user", default=None, help="write a per-user breakdown file")
    _add_data_flags(p)

    p = sub.add_parser("predict", help="score one sample line with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--line", required=True,
                   help="'user fields<TAB>item fields' or a full dataset line")

    p = sub.add_parser("ablate", help="train and compare several variants")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", required=True, help="semicolon-separated variant strings")
    p.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated seeds")
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("gradcheck", help="gradients vs central finite differences")
    p.add_argument("--d", type=_int_in(1, MAX_DIM), default=8)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--instances", type=_int_in(1), default=20)
    p.add_argument("--step", type=_finite_positive, default=1e-5)
    p.add_argument("--tol", type=_finite_positive, default=1e-4)

    p = sub.add_parser("fmcheck", help="reduced pipeline vs the analytic FM formula")
    p.add_argument("--n", type=_int_in(1), default=50)
    p.add_argument("--d", type=_int_in(1, MAX_DIM), default=8)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--tol", type=_finite_positive, default=1e-9)

    p = sub.add_parser("synth", help="generate a planted-rule synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=120)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--rule", choices=("xor_cross", "cross", "random"), default="xor_cross")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--attrs", choices=("both", "user", "item", "none"), default="both")
    p.add_argument("--user-card", type=int, default=12)
    p.add_argument("--second-user-card", type=int, default=8)
    p.add_argument("--item-card", type=int, default=12)
    p.add_argument("--affinity-rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-matrices", help="attribute similarity and matching grids")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--group-a", required=True, help="comma-separated names; trailing * is a prefix glob")
    p.add_argument("--group-b", required=True)
    p.add_argument("--out", default=None, help="write grids to a file instead of stdout")

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError:
            raise EngineError(f"config file: {path!r} is not valid UTF-8") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise EngineError(f"config file: bad line {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _effective(args, key: str, cast):
    """CLI flag > config file > None, for the dataclass default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config_values", {})
    if key in config:
        raw = config[key]
        try:
            return cast(raw)
        except ValueError:
            raise _UsageError(f"config file: {key} = {raw!r} is not a valid {cast.__name__}") from None
    return None


def _given(args, fields: dict) -> dict:
    """The fields whose flag or config key holds a value, cast."""
    values = {}
    for name, cast in fields.items():
        value = _effective(args, _FLAG_OF.get(name, name).replace("-", "_"), cast)
        if value is not None:
            values[name] = value
    return values


def _train_config(args) -> TrainConfig:
    values = _given(args, _TRAIN_FIELDS)
    if "variant" in values:
        with _usage_errors("variant"):
            values["variant"] = parse_variant(values["variant"])
    with _usage_errors():
        return TrainConfig(**values)


def _parse_options(args) -> ParseOptions:
    with _usage_errors():
        return ParseOptions(**_given(args, _PARSE_FIELDS))


def _cmd_train(args) -> int:
    config = _train_config(args)  # a bad flag fails before the data is read
    dataset = parse_dataset(args.data, _parse_options(args))
    print(f"# parsed {dataset.report}")
    split = split_per_user(dataset.samples, config.seed)
    result = train(split, config)
    for log in result.logs:
        print(log)
    if split.test:
        report = evaluate_model(split.test, result.params, config.variant)
        print("# test " + format_metric_report(report))
    if args.out:
        save_checkpoint(result.params, config.variant, args.out, dataset.vocab)
        print(f"# checkpoint written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    options = _parse_options(args)
    mp, variant, vocab = load_checkpoint(args.ckpt)
    dataset = parse_dataset(args.data, options, vocab)
    samples = dataset.samples
    if args.split == "test":
        seed = int(args.seed if args.seed is not None else 0)
        samples = split_per_user(samples, seed).test
    if not samples:
        raise UndefinedMetricError("no samples in the requested split")
    report = evaluate_model(samples, mp, variant)
    print(format_metric_report(report))
    if args.per_user:
        scored = score_dataset(samples, mp, variant)
        with open(args.per_user, "w", encoding="utf-8") as handle:
            handle.write(per_user_report(scored))
    return 0


def _cmd_predict(args) -> int:
    mp, variant, vocab = load_checkpoint(args.ckpt)
    line = args.line
    if line.count("\t") == 1:
        line = "0\t" + line
    dataset = parse_dataset_lines([line], None, vocab)
    result = predict(dataset.samples[0], mp, variant)
    print(f"score={result.score!r} prob={result.probability!r}")
    return 0


def _cmd_ablate(args) -> int:
    _train_config(args)  # a bad flag fails before the data is read
    with _usage_errors("variants"):
        variants = [parse_variant(v) for v in args.variants.split(";") if v.strip()]
        if not variants:
            raise InvalidConfigError(f"expected at least one variant, got {args.variants!r}")
    dataset = parse_dataset(args.data, _parse_options(args))
    rows = []
    for variant in variants:
        metrics_per_seed = []
        for seed in args.seeds:
            config = _train_config(args)
            config.seed = seed
            config.variant = variant
            split = split_per_user(dataset.samples, seed)
            result = train(split, config)
            metrics_per_seed.append(evaluate_model(split.test, result.params, variant))
        keys = list(metrics_per_seed[0])
        rows.append(
            (format_variant(variant),
             {k: float(np.mean([m[k] for m in metrics_per_seed])) for k in keys})
        )
    name_width = max(len(name) for name, _ in rows)
    keys = list(rows[0][1])
    print(f"{'variant':<{name_width}} " + " ".join(f"{k:>10}" for k in keys))
    for name, metrics in rows:
        print(f"{name:<{name_width}} " + " ".join(f"{metrics[k]:>10.4f}" for k in keys))
    return 0


def _cmd_gradcheck(args) -> int:
    worst = run_gradcheck(instances=args.instances, d=args.d, seed=args.seed, step=args.step)
    print(f"max_relative_error={worst!r}")
    if worst >= args.tol:
        print(f"FAIL: above tolerance {args.tol}", file=sys.stderr)
        return 2
    return 0


def _cmd_fmcheck(args) -> int:
    worst = run_fmcheck(n=args.n, d_max=args.d, seed=args.seed)
    print(f"max_abs_deviation={worst!r}")
    if worst >= args.tol:
        print(f"FAIL: above tolerance {args.tol}", file=sys.stderr)
        return 2
    return 0


def _cmd_synth(args) -> int:
    with _usage_errors():
        spec = SynthSpec(
            users=args.users,
            items=args.items,
            samples=args.samples,
            rule=args.rule,
            user_attr_card=args.user_card,
            second_user_attr_card=args.second_user_card,
            item_attr_card=args.item_card,
            affinity_rank=args.affinity_rank,
            noise=args.noise,
            attrs=args.attrs,
            seed=args.seed,
        )
    write_synthetic(spec, args.out)
    print(f"# wrote {args.out} and {args.out}.rule.json")
    return 0


def _resolve_group(spec: str, vocab) -> list:
    names = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.endswith("*"):
            prefix = token[:-1]
            names.extend(n for n in vocab.names if n.startswith(prefix))
        else:
            names.append(token)
    return vocab.resolve(names)


def _cmd_export_matrices(args) -> int:
    mp, _, vocab = load_checkpoint(args.ckpt)
    group_a = _resolve_group(args.group_a, vocab)
    group_b = _resolve_group(args.group_b, vocab)
    sim, match = export_matrices(mp.table, group_a, group_b)
    labels_a = [vocab.name_of(a) for a in group_a]
    labels_b = [vocab.name_of(b) for b in group_b]
    text = format_matrix(sim, labels_a, labels_a, "cosine similarity (group A x group A)")
    text += "\n"
    text += format_matrix(match, labels_a, labels_b, "node matching strength (group A x group B)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
    "fmcheck": _cmd_fmcheck,
    "synth": _cmd_synth,
    "export-matrices": _cmd_export_matrices,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        config_path = getattr(args, "config", None)
        args._config_values = _read_config_file(config_path) if config_path else {}
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
