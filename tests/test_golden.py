"""Byte-identity of the command line against the committed corpus tests/golden.json.

Every argv the corpus lists runs in-process through ``cli.main``; its exit
code, stderr, stdout and output files must match what the generator
(tests/make_golden.py) recorded.  Output hashes depend on how the platform's
libm rounds ``math.sin`` and ``math.cos``, so they are compared wherever the
libm's fingerprint matches the recorded one, whatever the libc, and skipped,
with a reason that names both fingerprints, where it does not.
"""
import json

import pytest

from make_golden import GOLDEN, libm_fingerprint, run_corpus

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
    """The fingerprint samples the libm; one that rounds every sampled
    argument alike but differs on another makes this test fail, never pass:
    a false alarm, not a false pass."""
    recorded, here = CORPUS["libm_sha256"], libm_fingerprint()
    if here != recorded:
        pytest.skip(f"golden hashes were recorded with libm fingerprint {recorded}, this libm "
                    f"gives {here}: math.sin/cos round differently, so only exit codes and "
                    "stderr are compared")
    keys = ("stdout_sha256", "files")
    bad = [
        _label(want["argv"])
        for want, got in zip(CORPUS["entries"], reruns)
        if [want[k] for k in keys] != [got[k] for k in keys]
    ]
    assert not bad, bad
