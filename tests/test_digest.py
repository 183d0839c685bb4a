"""tests/digest.py against its committed record, tests/digest_one_thread.txt.

The record is the output of
`OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tests/digest.py`. It is
recorded at one BLAS thread because the train-wide line still depends on
the thread count; every other line is the same under a threaded BLAS.
"""
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "digest_one_thread.txt")


def _build(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("blas-build"))


def _digest_and_record(threads: str) -> tuple[list[str], list[str]]:
    """digest.py's lines at threads BLAS threads, and the record's; skips
    when numpy and its BLAS are not the build the record names, since
    under another build the bits may differ."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    run = subprocess.run([sys.executable, os.path.join(HERE, "digest.py")],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    got = run.stdout.splitlines()
    with open(RECORD) as f:
        want = f.read().splitlines()
    if _build(got) != _build(want):
        pytest.skip(f"the record is of {_build(want)!r}, this run of {_build(got)!r}")
    return got, want


def test_digest_matches_the_one_thread_record():
    """At one BLAS thread, digest.py prints the record line for line."""
    got, want = _digest_and_record("1")
    for k, (line, recorded) in enumerate(zip(got, want)):
        assert line == recorded, f"line {k + 1} differs from the record"
    assert len(got) == len(want)


def test_digest_at_two_threads_matches_the_record_but_train_wide():
    """At two BLAS threads, digest.py prints the record's lines but the
    thread setting itself and train-wide, whose d=64 products still take
    their bits from the thread count (ROADMAP item 1)."""
    got, want = _digest_and_record("2")
    for k, (line, recorded) in enumerate(zip(got, want)):
        if not recorded.startswith(("blas-threads", "train-wide")):
            assert line == recorded, f"line {k + 1} differs from the record"
    assert len(got) == len(want)
