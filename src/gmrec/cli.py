"""Command-line driver.

Subcommands: train, evaluate, predict, ablate, gradcheck, fmcheck, synth,
export-matrices. Exit codes: 0 success, 1 usage error, 2 data or numeric
error. Flags match by their full name only.

A flag that sets a TrainConfig, ParseOptions or SynthSpec field has no
default of its own: the dataclass is built from the fields whose flag was
given, so every default lives in the dataclass. Each `key = value` line of
a config file (--config, on train and ablate) becomes the flag
`--key=value`, placed after the command name and before the command line's
own flags: argparse casts it and rejects an unknown key, and a flag given
on the command line wins. A key naming a flag that the command line always
gives (the command's required flags, and --config) is a usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
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
    metric_report,
    per_user_report,
    score_dataset,
)
from .model import VariantConfig, format_variant, parse_variant, predict
from .selfcheck import run_fmcheck, run_gradcheck
from .training import MAX_DIM, TrainConfig, split_per_user, train


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser  # whose usage to print; None: the command's


class _Parser(argparse.ArgumentParser):
    """Matches flags by full name only, and reports a bad or unknown flag
    as a _UsageError that carries the parser of the command that failed."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message):
        raise _UsageError(message, self)


# Fields whose flag is not the field name with dashes, to name it in errors.
_FLAG_OF = {
    "learning_rate": "lr",
    "user_attr_card": "user-card",
    "second_user_attr_card": "second-user-card",
    "item_attr_card": "item-card",
}


def _settings(cls, args):
    """A `cls` dataclass from the fields whose flag was given (their flags
    default to None); a range error is a usage error naming the flag, and
    the config file when the value came from there (args.from_config)."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if getattr(args, f.name, None) is not None}
    try:
        return cls(**given)
    except InvalidConfigError as exc:
        flag = _FLAG_OF.get(exc.field, str(exc.field).replace("_", "-"))
        where = f"config file {args.config}: " if exc.field in getattr(args, "from_config", ()) else ""
        raise _UsageError(f"{where}--{flag}: {exc}") from None


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value lines, each read as the flag --key=value")
    p.add_argument("--dim", type=int, help=f"embedding dimension (default {TrainConfig.dim})")
    p.add_argument("--lr", dest="learning_rate", type=float, help=f"learning rate (default {TrainConfig.learning_rate})")
    p.add_argument("--lam", type=float, help=f"L2 weight (default {TrainConfig.lam})")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patience", type=int, help="early-stop patience on validation AUC")
    p.add_argument("--variant", type=_variant, help=f'e.g. "{format_variant(TrainConfig.variant)}" or "mode=fm"')


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--threshold", type=float, help="treat labels as ratings; ratings above this are positive")
    p.add_argument("--min-positives", type=int, help="drop users with fewer positive samples")


def _variant(text: str) -> VariantConfig:
    try:
        return parse_variant(text)
    except InvalidConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _variant_list(text: str) -> list[VariantConfig]:
    variants = [_variant(v) for v in text.split(";") if v.strip()]
    if not variants:
        raise argparse.ArgumentTypeError(f"expected at least one variant, got {text!r}")
    return variants


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
    parser.commands = sub.choices

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--seed", type=int)
    _add_train_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=("all", "test"), default="all")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--per-user", default=None, help="write a per-user breakdown file")
    _add_data_flags(p)

    p = sub.add_parser("predict", help="score one sample line with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--line", required=True,
                   help="'user fields<TAB>item fields' or a full dataset line")

    p = sub.add_parser("ablate", help="train and compare several variants")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", type=_variant_list, required=True, help="semicolon-separated variant strings")
    p.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated seeds")
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
    p.add_argument("--users", type=int)
    p.add_argument("--items", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--rule", choices=("xor_cross", "cross", "random"))
    p.add_argument("--noise", type=float)
    p.add_argument("--attrs", choices=("both", "user", "item", "none"))
    p.add_argument("--user-card", dest="user_attr_card", type=int)
    p.add_argument("--second-user-card", dest="second_user_attr_card", type=int)
    p.add_argument("--item-card", dest="item_attr_card", type=int)
    p.add_argument("--affinity-rank", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("export-matrices", help="attribute similarity and matching grids")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--group-a", required=True, help="comma-separated names; trailing * is a prefix glob")
    p.add_argument("--group-b", required=True)
    p.add_argument("--out", default=None, help="write grids to a file instead of stdout")

    return parser


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags; a
    key may spell the flag's dashes as underscores."""
    # The command line always gives these flags.
    fixed = {f for a in command._actions if a.required or a.dest == "config" for f in a.option_strings}
    flags = []
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
        flag = f"--{key.strip().replace('_', '-')}"
        if flag in fixed:
            raise _UsageError(f"key {key.strip()!r} is not allowed; give {flag} on the command line")
        flags.append(f"{flag}={value.strip()}")
    return flags


def _cmd_train(args) -> int:
    config = _settings(TrainConfig, args)  # a bad flag fails before the data is read
    dataset = parse_dataset(args.data, _settings(ParseOptions, args))
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
    options = _settings(ParseOptions, args)
    mp, variant, vocab = load_checkpoint(args.ckpt)
    dataset = parse_dataset(args.data, options, vocab)
    samples = dataset.samples
    if args.split == "test":
        samples = split_per_user(samples, args.seed).test
    if not samples:
        raise UndefinedMetricError("no samples in the requested split")
    scored = score_dataset(samples, mp, variant)
    print(format_metric_report(metric_report(scored)))
    if args.per_user:
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
    base = _settings(TrainConfig, args)  # a bad flag fails before the data is read
    dataset = parse_dataset(args.data, _settings(ParseOptions, args))
    rows = []
    for variant in args.variants:
        metrics_per_seed = []
        for seed in args.seeds:
            config = dataclasses.replace(base, seed=seed, variant=variant)
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
    write_synthetic(_settings(SynthSpec, args), args.out)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        command = parser.commands[args.command]
        if getattr(args, "config", None):
            at = argv.index(args.command) + 1
            try:
                merged = parser.parse_args(argv[:at] + _config_flags(args.config, command) + argv[at:])
            except _UsageError as exc:  # the command line alone parsed
                raise _UsageError(f"config file {args.config}: {exc}", exc.parser) from None
            merged.from_config = {k for k, v in vars(args).items() if v is None and getattr(merged, k) is not None}
            args = merged
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        (exc.parser or command).print_usage(sys.stderr)
        return 1
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
