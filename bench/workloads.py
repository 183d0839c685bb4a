"""The workloads: their inputs, their set-up and one unit of their closed loop.

Every load comes from one process with one caller, which waits for each
reply before it sends the next request (a closed loop). The program sees
only the inputs generated here from the workload seed.

The library is always called through its module attributes
(`gmrec.training.train(...)`), so that the traced run's wrappers, which
replace those attributes, see every call.
"""
from __future__ import annotations

import functools
import hashlib
import math
import os
import subprocess
import sys
import time

import gmrec
import gmrec.data
import gmrec.dataio
import gmrec.metrics
import gmrec.model
import gmrec.selfcheck
import gmrec.training

import inputs
import reference

RELATIVE_TOLERANCE = 1e-9


class Run:
    """What one measured loop did: operations, failures, requests, work.

    Times are kept as intervals on the run's clock, so that they can be
    read both as wall time and at the reference speed (reference.py).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = reference.Reference()
        self.requests: list[tuple[float, float, str, float]] = []  # start, end, kind, work
        self.busy: list[tuple[float, float]] = []  # the timed calls that did the work
        self.work = 0.0  # throughput units done by the timed calls
        self.units = 0
        self.digests: list[str] = []
        self.values: dict[str, list[float]] = {}

    def op(self, ok: bool, problem: str) -> None:
        """Count one operation; a failed one also keeps its message."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def note(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(value)

    def request(self, start: float, end: float, kind: str, work: float | None = None) -> None:
        """One request; with work, it is also a timed call of its own."""
        self.requests.append((start, end, kind, work or 0.0))
        if work is not None:
            self.timed(start, end, work)

    def timed(self, start: float, end: float, work: float) -> None:
        self.busy.append((start, end))
        self.work += work

    def latencies(self, scaled: bool, kind: str | None = None) -> list[float]:
        """Seconds per request, wall or at the reference speed."""
        split = self.reference.split
        return [split(a, b)[scaled] for a, b, k, _ in self.requests if kind in (None, k)]

    def busy_seconds(self, scaled: bool) -> float:
        return sum(self.reference.split(a, b)[scaled] for a, b in self.busy)


def agree(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b))


class Workload:
    name = ""
    why = ""
    kinds: tuple[str, ...] = ()  # the kinds of request, named on the detail line as in `step_ms_p50`
    throughput = ""  # what throughput_per_s is called on the detail line
    rates: dict[str, str] = {}  # kind -> name of that kind's own work rate on the detail line
    pass_units = 1  # the loop ends only after a whole number of passes

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def prepare(self) -> None:
        """Write the inputs; not timed."""

    def setup(self):
        """Everything before the first timed operation; timed, repeated."""

    def timed_setup(self):
        """(state, seconds) of one set-up."""
        t0 = time.perf_counter()
        state = self.setup()
        return state, time.perf_counter() - t0

    def start(self, state, run: Run) -> None:
        """Untimed work once before the loop: request streams, one-off gates."""

    def hooks(self, patches, run: Run, tracer) -> None:
        """Request clocks installed for the loop, in both runs."""

    def unit(self, state, k: int, run: Run, tracer) -> None:
        """The k-th unit of the closed loop."""
        raise NotImplementedError

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class Train(Workload):
    """Closed loop of train() calls, each for a fixed number of epochs.

    Call k uses config seed 1000 * seed + k, so every call is a distinct
    training run over the same split; a request is one step inside it,
    timed by a clock on the step's first and last library calls.
    """

    kinds, throughput = ("step",), "train_samples_per_s"
    dim = batch_size = epochs = 0
    learning_rate = 3e-3

    def text(self) -> str:
        raise NotImplementedError

    def prepare(self):
        _write(self.path("data.txt"), self.text())

    def setup(self):
        dataset = gmrec.dataio.parse_dataset(self.path("data.txt"))
        return gmrec.training.split_per_user(dataset.samples, self.seed)

    def hooks(self, patches, run, tracer):
        risk, adam = gmrec.training.regularized_risk, gmrec.training.adam_step
        started = [0.0]

        @functools.wraps(risk)
        def timed_risk(*args, **kwargs):
            if tracer is not None:
                tracer.request = len(run.requests)
            started[0] = time.perf_counter()
            out = risk(*args, **kwargs)
            loss = float(out.data)
            run.op(math.isfinite(loss), f"non-finite step loss {loss!r}")
            return out

        @functools.wraps(adam)
        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            run.request(started[0], time.perf_counter(), "step")
            if tracer is not None:
                tracer.request = None
            run.reference.pace()
            return out

        timed_risk.__bench_clock__ = timed_adam.__bench_clock__ = True
        patches.replace(gmrec.training, "regularized_risk", timed_risk)
        patches.replace(gmrec.training, "adam_step", timed_adam)

    def unit(self, split, k, run, tracer):
        config = gmrec.training.TrainConfig(
            dim=self.dim, learning_rate=self.learning_rate, epochs=self.epochs,
            batch_size=self.batch_size, seed=1000 * self.seed + k, patience=self.epochs,
        )
        t0 = time.perf_counter()
        result = gmrec.training.train(split, config)
        logs = result.logs
        run.timed(t0, time.perf_counter(), len(split.train) * len(logs))
        run.digests.append(hashlib.sha256("\n".join(map(str, logs)).encode()).hexdigest()[:16])
        val_auc = logs[-1].val_auc if logs else float("nan")
        run.note("val_auc", val_auc)
        run.op(
            len(logs) == self.epochs and math.isfinite(val_auc),
            f"train() call {k}: {len(logs)} epochs, val_auc {val_auc!r}",
        )


class TrainSmall(Train):
    name = "train-small"
    why = "d=16 on the criterion-6/8 catalogue (p=3, q=2): plan loops, tape dispatch and validation dominate"
    dim, batch_size, epochs = 16, 64, 2

    def text(self):
        return inputs.train_small_text(self.seed)


class TrainWide(Train):
    name = "train-wide"
    why = "d=64, batch 64, 6-8 attributes a side with a numeric one: pair-MLP matmuls and backward dominate"
    dim, batch_size, epochs = 64, 64, 2

    def text(self):
        return inputs.train_wide_text(self.seed)


STREAM_LENGTH = 1 << 16
PREDICTS_PER_RANK = 16


class Serve(Workload):
    """A d=64 checkpoint of the train-small catalogue, loaded and queried.

    Unit k: one rank request, then PREDICTS_PER_RANK single predict() calls.
    A rank request is one user (seeded stream) x the whole item pool through
    score_samples, then NDCG@10 against the user's liked items; a predict
    call scores one seeded (user, item) pair. Interleaving the two keeps the
    mix of the traffic the same in every stretch of the run.
    """

    name = "serve"
    why = "a d=64 checkpoint; per unit one user x 300-item rank request and 16 single predict() calls; forward only"
    kinds, throughput = ("rank", "predict"), "scored_pairs_per_s"
    rates = {"rank": "rank_pairs_per_s", "predict": "predict_calls_per_s"}

    def prepare(self):
        _write(self.path("catalogue.txt"), inputs.train_small_text(self.seed))
        # Trained in a child process so that training's memory does not
        # count in this workload's peak RSS.
        subprocess.run(
            [sys.executable, os.path.join(self.root, "bench", "run.py"),
             "--make-checkpoint", self.workdir, "--seed", str(self.seed)],
            check=True, timeout=170, stdout=subprocess.DEVNULL,
        )

    def setup(self):
        mp, variant, vocab = gmrec.dataio.load_checkpoint(self.path("model.ckpt"))
        dataset = gmrec.dataio.parse_dataset(self.path("catalogue.txt"), vocab=vocab)
        return mp, variant, dataset.samples

    def start(self, state, run):
        _, _, samples = state
        users, pool = {}, {}
        for s in samples:
            item = gmrec.data.sample_item_key(s)
            pool.setdefault(item, s.item_chars)
            chars, liked = users.setdefault(gmrec.data.sample_user_key(s), (s.user_chars, set()))
            if s.label == 1.0:
                liked.add(item)
        self.users = [(key, chars, liked) for key, (chars, liked) in users.items() if liked]
        self.pool_keys, self.pool = list(pool), list(pool.values())
        self.order = inputs.stream(self.seed, 0, STREAM_LENGTH, len(self.users))
        self.probes = inputs.stream(self.seed, 1, 2 * STREAM_LENGTH, len(self.pool)).reshape(-1, 2)
        self.who = inputs.stream(self.seed, 2, STREAM_LENGTH, len(self.users))
        self.what = inputs.stream(self.seed, 3, STREAM_LENGTH, len(self.pool))

    def unit(self, state, k, run, tracer):
        self.rank(state, k, run, tracer)
        for j in range(k * PREDICTS_PER_RANK, (k + 1) * PREDICTS_PER_RANK):
            self.predict(state, j, run, tracer)

    def rank(self, state, k, run, tracer):
        mp, variant, _ = state
        key, chars, liked = self.users[self.order[k % STREAM_LENGTH]]
        request = [gmrec.data.DataSample(chars, item, 0.0) for item in self.pool]
        labels = [1.0 if item in liked else 0.0 for item in self.pool_keys]
        tracer_request(tracer, len(run.requests))
        t0 = time.perf_counter()
        scores = gmrec.model.score_samples(request, mp, variant)
        ranked = [gmrec.metrics.ScoredSample(key, float(s), y) for s, y in zip(scores, labels)]
        ndcg = gmrec.metrics.ndcg_at_k(ranked, 10)
        run.request(t0, time.perf_counter(), "rank", len(request))
        tracer_request(tracer, None)
        run.note("ndcg@10", ndcg)
        ok = 0.0 <= ndcg <= 1.0 and all(map(math.isfinite, scores))
        for j in self.probes[k % STREAM_LENGTH]:
            ok = ok and agree(float(scores[j]), gmrec.model.predict(request[j], mp, variant).score)
        run.op(ok, f"rank request {k}: ndcg {ndcg!r} or a score disagrees with predict()")

    def predict(self, state, k, run, tracer):
        mp, variant, _ = state
        _, chars, _ = self.users[self.who[k % STREAM_LENGTH]]
        sample = gmrec.data.DataSample(chars, self.pool[self.what[k % STREAM_LENGTH]], 0.0)
        tracer_request(tracer, len(run.requests))
        t0 = time.perf_counter()
        score = gmrec.model.predict(sample, mp, variant).score
        run.request(t0, time.perf_counter(), "predict", 1)
        tracer_request(tracer, None)
        ok = math.isfinite(score)
        if k % 16 == 0:
            ok = ok and agree(score, float(gmrec.model.score_samples([sample], mp, variant)[0]))
        run.op(ok, f"predict call {k}: score {score!r} is not finite or disagrees with score_samples")


def make_checkpoint(workdir: str, seed: int) -> None:
    """One short epoch at d=64 on the catalogue, saved as the serve checkpoint.

    Training sees the first 1024 training samples; the rest of the split is
    kept in `test` so that the model's vocabulary covers the catalogue.
    """
    dataset = gmrec.dataio.parse_dataset(os.path.join(workdir, "catalogue.txt"))
    split = gmrec.training.split_per_user(dataset.samples, seed)
    short = gmrec.training.SplitDataset(
        train=split.train[:1024], valid=split.valid[:256],
        test=split.train[1024:] + split.valid[256:] + split.test,
    )
    config = gmrec.training.TrainConfig(
        dim=64, learning_rate=3e-3, epochs=1, batch_size=256, seed=seed, patience=1
    )
    result = gmrec.training.train(short, config)
    gmrec.dataio.save_checkpoint(
        result.params, config.variant, os.path.join(workdir, "model.ckpt"), dataset.vocab
    )


class Gradcheck(Workload):
    name = "gradcheck"
    why = "acceptance criterion 1: per-entry central differences on graphs of at most 8 nodes at d=8"
    kinds, throughput = ("instance",), "fd_evals_per_s"
    pass_units = 20  # one pass is one criterion-1 check, so every run has the same instance mix

    def timed_setup(self):
        """Importing the library in a fresh interpreter, timed inside it: the
        only set-up a gradient check has, and where work moved out of the
        check would land."""
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import gmrec; print(time.perf_counter() - t)"
        )
        src = os.path.join(self.root, "src")
        out = subprocess.run(
            [sys.executable, "-c", code, src], check=True, timeout=60, capture_output=True, text=True
        )
        return None, float(out.stdout.strip())

    def start(self, state, run):
        self.order = inputs.gradcheck_seeds(self.seed)
        self.entries = {}  # parameter entries per instance seed
        for seed in self.order:
            _, universe, init_seed = gmrec.selfcheck.random_instance(8, seed, 4)
            params = gmrec.model.init_model_params(universe, 8, init_seed).parameters()
            self.entries[seed] = sum(p.values.size for p in params)
        deviation = gmrec.selfcheck.run_fmcheck(n=50, d_max=8, seed=self.seed)
        run.note("fmcheck", deviation)
        run.op(deviation < 1e-9, f"run_fmcheck deviation {deviation!r}")

    def unit(self, state, k, run, tracer):
        seed = self.order[k % len(self.order)]
        tracer_request(tracer, k)
        t0 = time.perf_counter()
        worst = gmrec.selfcheck.run_gradcheck(instances=1, d=8, seed=seed, step=1e-5, max_attrs=4)
        run.request(t0, time.perf_counter(), "instance", 2 * self.entries[seed])
        tracer_request(tracer, None)
        run.note("worst", worst)
        run.op(worst < 1e-4, f"gradcheck instance seed {seed}: worst relative error {worst!r}")


def tracer_request(tracer, request) -> None:
    if tracer is not None:
        tracer.request = request


WORKLOADS = {w.name: w for w in (TrainSmall, TrainWide, Serve, Gradcheck)}
