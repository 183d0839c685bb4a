"""What the traced run wraps in `gmrec`, and how its spans become the
per-layer metrics.

Layers are the library's modules on the hot paths: dataio, training,
model, autodiff, metrics and selfcheck. Each target below is a public
function (or a `Tape` method) of one of them. Timings are self time unless
the metric's entry in PER_LAYER says otherwise.

A request is one train step, rank request, predict call or gradcheck
instance; "per request" numbers divide by the number of requests replayed
under the tracer, and count only spans that belong to a request (so a
training step's numbers leave out validation, which runs between steps).
"""
from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple

from tracer import Tracer, self_times


class Target(NamedTuple):
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    note: Callable | None = None  # (args, kwargs, result) -> payload
    adapt: Callable | None = None  # (tracer, original) -> function to wrap


def _lines_parsed(args, kwargs, dataset):
    return dataset.report.n_lines


def _plan_shape(args, kwargs, plan):
    samples = args[0] if args else kwargs["samples"]
    return plan.n_nodes, int(plan.pair_a.size), samples


def _matmul_shape(args, kwargs, out):
    tape, a, b = args[:3]
    row_local = bool(kwargs.get("row_local", args[3] if len(args) > 3 else False))
    m, k = a.data.shape
    return row_local, 2.0 * m * k * b.data.shape[1]


def _tape_size(args, kwargs, result):
    return len(args[0].nodes)


def _param_entries(args, kwargs, worst):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return sum(int(p.values.size) for p in params)


def _count_fd_evals(tracer: Tracer, gradient_check):
    """gradient_check with its value_fn traced as `autodiff.fd_eval`."""

    def with_fd_spans(forward, params, step=1e-5, value_fn=None):
        if value_fn is not None:
            value_fn = tracer.wrap("autodiff.fd_eval", value_fn)
        return gradient_check(forward, params, step, value_fn=value_fn)

    return with_fd_spans


_ELEMENTWISE = ("add", "sub", "scale", "mul", "relu", "log", "softplus", "add_rowvec", "mul_rowvec", "scale_rows")

TARGETS = [
    Target("dataio.parse_dataset", "gmrec.dataio", "parse_dataset", _lines_parsed),
    Target("dataio.load_checkpoint", "gmrec.dataio", "load_checkpoint"),
    Target("training.train", "gmrec.training", "train"),
    Target("training.split_per_user", "gmrec.training", "split_per_user"),
    Target("training.regularized_risk", "gmrec.training", "regularized_risk"),
    Target("training.adam_step", "gmrec.training", "adam_step"),
    Target("model.build_plan", "gmrec.model", "build_plan", _plan_shape),
    Target("model.score_samples", "gmrec.model", "score_samples"),
    Target("model.predict", "gmrec.model", "predict"),
    Target("metrics.score_dataset", "gmrec.metrics", "score_dataset"),
    Target("metrics.auc", "gmrec.metrics", "auc"),
    Target("metrics.logloss", "gmrec.metrics", "logloss"),
    Target("metrics.ndcg_at_k", "gmrec.metrics", "ndcg_at_k"),
    Target("selfcheck.run_gradcheck", "gmrec.selfcheck", "run_gradcheck"),
    Target("autodiff.gradient_check", "gmrec.autodiff", "gradient_check", _param_entries, _count_fd_evals),
    Target("autodiff.backward", "gmrec.autodiff", "Tape.backward", _tape_size),
    Target("autodiff.matmul", "gmrec.autodiff", "Tape.matmul", _matmul_shape),
    Target("autodiff.gather_rows", "gmrec.autodiff", "Tape.gather_rows"),
    Target("autodiff.segment_sum", "gmrec.autodiff", "Tape.segment_sum"),
    Target("autodiff.segment_sum", "gmrec.autodiff", "Tape.segment_sum_prepared"),
    Target("autodiff.sigmoid", "gmrec.autodiff", "Tape.sigmoid"),
    Target("autodiff.tanh", "gmrec.autodiff", "Tape.tanh"),
] + [Target("autodiff.elementwise", "gmrec.autodiff", f"Tape.{op}") for op in _ELEMENTWISE]

# name, unit, better; the same list, in this order, is BENCHMARK.json's per_layer.
PER_LAYER = [
    ("dataio.parse_s", "s", "lower"),  # one parse_dataset call of the workload's file
    ("dataio.parse_lines_per_s", "1/s", "higher"),
    ("dataio.ckpt_load_ms", "ms", "lower"),  # one load_checkpoint call
    ("training.split_s", "s", "lower"),  # one split_per_user call
    ("training.risk_ms", "ms", "lower"),  # regularized_risk per step, inclusive (plan + forward + loss)
    ("training.adam_ms", "ms", "lower"),  # per step
    ("training.validation_s", "s", "lower"),  # score_dataset + auc + logloss inside train(), inclusive, per epoch
    ("training.steps", "count", "higher"),  # steps replayed under the tracer
    ("training.val_auc", "ratio", "higher"),  # after the fixed epochs of the first train() call
    ("model.plan_ms", "ms", "lower"),  # per request
    ("model.plan_calls_per_epoch", "count", "lower"),  # per request outside the train-* workloads
    ("model.plan_share", "ratio", "lower"),  # plan / (plan + forward), requests only
    ("model.forward_ms", "ms", "lower"),  # risk, score or predict inclusive, minus their plans, per request
    ("model.nodes_per_batch", "count", "lower"),  # per plan built inside a request
    ("model.pairs_per_batch", "count", "lower"),
    ("model.pairs_per_node", "ratio", "lower"),
    ("model.side_reuse_ratio", "ratio", "higher"),  # distinct sides / side computations
    ("autodiff.matmul_ms", "ms", "lower"),  # BLAS-path matmul, per request
    ("autodiff.matmul_calls", "count", "lower"),  # both kernels, per request
    ("autodiff.matmul_gflop", "GFLOP", "lower"),  # forward 2mkn from shapes, per request
    ("autodiff.row_local_matmul_ms", "ms", "lower"),
    ("autodiff.gather_rows_ms", "ms", "lower"),
    ("autodiff.segment_sum_ms", "ms", "lower"),
    ("autodiff.sigmoid_ms", "ms", "lower"),
    ("autodiff.tanh_ms", "ms", "lower"),
    ("autodiff.elementwise_ms", "ms", "lower"),
    ("autodiff.tape_nodes_per_step", "count", "lower"),  # tape length at each backward
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.backward_us_per_node", "us", "lower"),
    ("autodiff.fd_evals", "count", "lower"),  # value_fn calls per gradcheck instance
    ("autodiff.fd_eval_us", "us", "lower"),  # one value_fn call, inclusive
    ("selfcheck.instances", "count", "higher"),
    ("selfcheck.param_entries", "count", "lower"),  # per instance
    ("selfcheck.instance_s", "s", "lower"),  # one run_gradcheck(instances=1) call, inclusive
    ("metrics.score_dataset_ms", "ms", "lower"),  # per call, self: wrapping scores, not the forward
    ("metrics.auc_ms", "ms", "lower"),  # per call
    ("metrics.logloss_ms", "ms", "lower"),
    ("metrics.ndcg_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),  # traced replay time / untraced time - 1
]

_FORWARD_ENTRIES = ("training.regularized_risk", "model.score_samples", "model.predict", "autodiff.fd_eval")
_VALIDATION = ("metrics.score_dataset", "metrics.auc", "metrics.logloss")


def layer_metrics(
    tracer: Tracer,
    requests: int,
    epochs: int,
    val_auc: float,
    overhead_pct: float,
    side_key: Callable,
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans; 0 where a layer did not run.

    side_key(sample) -> (user key, item key), for the side reuse ratio.
    """
    spans = tracer.spans
    own = self_times(spans)
    notes = dict(tracer.notes)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)

    def inclusive(i):
        return spans[i][2] - spans[i][1]

    def in_request(name):
        return [i for i in by_name[name] if spans[i][4] is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_ns(indexes, times):
        return ratio(sum(times(i) for i in indexes), len(indexes))

    def per_request_ms(ns):
        return ratio(ns, requests) / 1e6

    def self_ms(name):
        return per_request_ms(sum(own[i] for i in in_request(name)))

    forward_entries = [i for name in _FORWARD_ENTRIES for i in in_request(name)]
    entry_set = set(forward_entries)
    plans = in_request("model.build_plan")
    plan_ns = sum(own[i] for i in plans)
    forward_ns = sum(inclusive(i) for i in forward_entries) - sum(
        inclusive(i) for i in plans if spans[i][3] in entry_set
    )
    plan_notes = [notes[i] for i in plans]
    nodes = sum(n for n, _, _ in plan_notes)
    pairs = sum(p for _, p, _ in plan_notes)
    sides = sum(2 * len(samples) for _, _, samples in plan_notes)
    distinct = 0
    for _, _, samples in plan_notes:
        keys = [side_key(s) for s in samples]
        distinct += len({u for u, _ in keys}) + len({i for _, i in keys})

    matmuls = in_request("autodiff.matmul")
    row_local = [i for i in matmuls if notes[i][0]]
    blas = [i for i in matmuls if not notes[i][0]]
    backwards = in_request("autodiff.backward")
    tape_nodes = sum(notes[i] for i in backwards)
    backward_ns = sum(own[i] for i in backwards)
    instances = by_name["selfcheck.run_gradcheck"]
    risks = by_name["training.regularized_risk"]
    trains = set(by_name["training.train"])
    validation = [i for name in _VALIDATION for i in by_name[name] if spans[i][3] in trains]
    parses = by_name["dataio.parse_dataset"]
    parse_ns = sum(inclusive(i) for i in parses)

    return {
        "dataio.parse_s": mean_ns(parses, inclusive) / 1e9,
        "dataio.parse_lines_per_s": ratio(sum(notes[i] for i in parses), parse_ns / 1e9),
        "dataio.ckpt_load_ms": mean_ns(by_name["dataio.load_checkpoint"], inclusive) / 1e6,
        "training.split_s": mean_ns(by_name["training.split_per_user"], inclusive) / 1e9,
        "training.risk_ms": mean_ns(risks, inclusive) / 1e6,
        "training.adam_ms": mean_ns(by_name["training.adam_step"], inclusive) / 1e6,
        "training.validation_s": ratio(sum(inclusive(i) for i in validation), epochs) / 1e9,
        "training.steps": float(len(risks)),
        "training.val_auc": val_auc,
        "model.plan_ms": per_request_ms(plan_ns),
        "model.plan_calls_per_epoch": (
            ratio(len(by_name["model.build_plan"]), epochs) if epochs else ratio(len(plans), requests)
        ),
        "model.plan_share": ratio(plan_ns, plan_ns + forward_ns),
        "model.forward_ms": per_request_ms(forward_ns),
        "model.nodes_per_batch": ratio(nodes, len(plans)),
        "model.pairs_per_batch": ratio(pairs, len(plans)),
        "model.pairs_per_node": ratio(pairs, nodes),
        "model.side_reuse_ratio": ratio(distinct, sides),
        "autodiff.matmul_ms": per_request_ms(sum(own[i] for i in blas)),
        "autodiff.matmul_calls": ratio(len(matmuls), requests),
        "autodiff.matmul_gflop": ratio(sum(notes[i][1] for i in matmuls), requests) / 1e9,
        "autodiff.row_local_matmul_ms": per_request_ms(sum(own[i] for i in row_local)),
        "autodiff.gather_rows_ms": self_ms("autodiff.gather_rows"),
        "autodiff.segment_sum_ms": self_ms("autodiff.segment_sum"),
        "autodiff.sigmoid_ms": self_ms("autodiff.sigmoid"),
        "autodiff.tanh_ms": self_ms("autodiff.tanh"),
        "autodiff.elementwise_ms": self_ms("autodiff.elementwise"),
        "autodiff.tape_nodes_per_step": ratio(tape_nodes, len(backwards)),
        "autodiff.backward_ms": per_request_ms(backward_ns),
        "autodiff.backward_us_per_node": ratio(backward_ns, tape_nodes) / 1e3,
        "autodiff.fd_evals": ratio(len(by_name["autodiff.fd_eval"]), len(instances)),
        "autodiff.fd_eval_us": mean_ns(by_name["autodiff.fd_eval"], inclusive) / 1e3,
        "selfcheck.instances": float(len(instances)),
        "selfcheck.param_entries": mean_ns(by_name["autodiff.gradient_check"], lambda i: notes[i]),
        "selfcheck.instance_s": mean_ns(instances, inclusive) / 1e9,
        "metrics.score_dataset_ms": mean_ns(by_name["metrics.score_dataset"], lambda i: own[i]) / 1e6,
        "metrics.auc_ms": mean_ns(by_name["metrics.auc"], inclusive) / 1e6,
        "metrics.logloss_ms": mean_ns(by_name["metrics.logloss"], inclusive) / 1e6,
        "metrics.ndcg_ms": mean_ns(by_name["metrics.ndcg_at_k"], inclusive) / 1e6,
        "trace.overhead_pct": overhead_pct,
    }
