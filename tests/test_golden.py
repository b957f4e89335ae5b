"""Byte-identity of the command line against the committed corpus tests/golden.json.

Every argv the corpus lists runs in-process through ``cli.main``; its exit
code, stderr, stdout and output files must match what the generator
(tests/make_golden.py) recorded.  Output hashes depend on the platform's
libm, so on a libc other than the recorded one they are skipped, with a
reason that names both.
"""
import json

import pytest

from make_golden import GOLDEN, libc, run_corpus

CORPUS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reruns():
    return run_corpus([entry["argv"] for entry in CORPUS["entries"]])


def _label(argv):
    return "qturing " + " ".join(a if len(a) < 40 else a[:20] + "..." for a in argv)


def test_exit_codes_and_stderr_match(reruns):
    bad = [
        (_label(want["argv"]), (want["exit"], want["stderr"]), (got["exit"], got["stderr"]))
        for want, got in zip(CORPUS["entries"], reruns)
        if (want["exit"], want["stderr"]) != (got["exit"], got["stderr"])
    ]
    assert not bad, bad


def test_output_hashes_match(reruns):
    if libc() != CORPUS["libc"]:
        pytest.skip(f"golden hashes were recorded on libc {CORPUS['libc']}, this is {libc()}: "
                    "math.sin/cos may round differently, so only exit codes and stderr are compared")
    keys = ("stdout_sha256", "files")
    bad = [
        _label(want["argv"])
        for want, got in zip(CORPUS["entries"], reruns)
        if [want[k] for k in keys] != [got[k] for k in keys]
    ]
    assert not bad, bad
