"""Write tests/golden.json: the exact outputs of a fixed set of command lines.

Usage, from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Every argv in ``ARGVS`` runs in-process through ``qturing.cli.main`` in a
fresh directory.  Its entry records the exit code, the stderr text, the
SHA-256 of stdout and the SHA-256 of each file the run wrote; a manifest is
hashed without its ``version`` key, so a version bump changes no entry.
``test_golden.py`` reruns every argv and compares.  Regenerating the file
is a declared act: each changed entry is listed in CHANGES.md.

``math.sin`` and ``math.cos`` come from the platform's C library, so the
file records the libc it was made with; on another libc only the exit codes
and stderr are compared.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from qturing.cli import main as qturing_main

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: README's command-line examples, exactly as written there
README = [
    ["pattern", "--alpha1", "2/5", "--steps", "10000", "--out", "periodic.csv"],
    ["pattern", "--alpha1", "1.2566370616", "--steps", "10000", "--out", "aperiodic.csv"],
    ["distance", "--alpha1", "2/5", "--delta", "0.001", "--steps", "300", "--subsystem", "head",
     "--out", "fib.csv"],
    ["distance", "--alpha1", "2/5", "--mode", "fixed", "--subsystem", "network", "--out", "fixed.csv"],
    ["distance", "--alpha1", "2/5", "--mode", "arithmetic", "--out", "arith.csv"],
    ["stability", "--alpha1", "2/5", "--m", "20", "--deltas", "1e-4,1e-5,1e-6"],
    ["oracle-check", "--alpha1", "2/5", "--delta", "0.001", "--steps", "2000"],
    ["lyapunov", "--alpha1", "2/5", "--delta", "1e-8", "--steps", "60", "--fit-lo", "5",
     "--fit-hi", "15"],
]

#: the argv of CI's invalid-arguments step, each of which exits 2
INVALID = [
    ["lyapunov", "--alpha1", "2/5", "--steps", "1"],
    ["distance", "--alpha1", "2/5", "--steps", "1", "--out", "x.csv"],
    ["stability", "--alpha1", "1/2", "--m", "60", "--deltas", "1e-4,0.5"],
    ["stability", "--alpha1", "0/1", "--m", "89"],
    ["oracle-check", "--alpha1", "1/1" + "0" * 400, "--steps", "10"],
    ["pattern", "--alpha1", "1/5" + "0" * 307, "--steps", "4000", "--out", "big.csv"],
    ["distance", "--alpha1", "2/5", "--delta", "-1e-3", "--out", "x.csv"],
    ["distance", "--alpha1", "2/5", "--delta", "nan", "--out", "x.csv"],
    ["pattern", "--alpha1", "2/5", "--head-angle", "inf", "--out", "x.csv"],
    ["stability", "--alpha1", "2/5", "--m", "20", "--deltas", "abc"],
    ["pattern", "--alpha1", "nan", "--out", "x.csv"],
    ["pattern", "--alpha1", "1/1" + "0" * 5000, "--out", "x.csv"],
]

#: exact, negative exact and float alpha1
ALPHAS = ["3/7", "-2/5", "1.2566370616"]
MODES = ["fibonacci", "fixed", "arithmetic"]
SUBSYSTEMS = ["head", "tape", "network"]
STEPS = ["61", "60"]
RECORD_EVERY = ["1", "7"]
TAPES = ["minus1", "plus1", "plus", "minus"]


def _grid() -> list[list[str]]:
    argvs = []
    for alpha in ALPHAS:
        for mode in MODES:
            for steps in STEPS:
                for every in RECORD_EVERY:
                    argvs.append(["pattern", "--alpha1", alpha, "--mode", mode, "--steps", steps,
                                  "--record-every", every, "--out", "p.csv"])
                    for sub in SUBSYSTEMS:
                        argvs.append(["distance", "--alpha1", alpha, "--mode", mode,
                                      "--subsystem", sub, "--steps", steps,
                                      "--record-every", every, "--out", "d.csv"])
            for sub in SUBSYSTEMS:
                argvs.append(["lyapunov", "--alpha1", alpha, "--mode", mode, "--subsystem", sub,
                              "--out", "l.json"])
        for delta in ["0", "1e-3", "-1e-3"]:
            for steps in STEPS:
                argvs.append(["oracle-check", "--alpha1", alpha, "--delta", delta,
                              "--steps", steps, "--out", "o.json"])
    for tape in TAPES:
        argvs.append(["pattern", "--alpha1", "3/7", "--tape", tape, "--head-angle", "0.3",
                      "--steps", "2001", "--record-every", "7", "--out", "t.csv"])
    argvs += [
        ["stability", "--alpha1", "3/7", "--m", "48", "--out", "s.json"],
        ["stability", "--alpha1", "0/1", "--m", "2"],
        # off a periodic orbit: the report is written, and the exit is 2
        ["stability", "--alpha1", "2/5", "--m", "19", "--out", "s.json"],
        ["stability", "--alpha1", "2/5", "--m", "19"],
        ["oracle-check", "--alpha1", "123/257", "--delta", "1e-3", "--steps", "2001"],
        ["oracle-check", "--alpha1", "2/5", "--steps", "10", "--tolerance", "0"],
    ]
    return argvs


ARGVS = README + INVALID + _grid()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hash(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        manifest.pop("version")
        data = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
    return _sha256(data)


def run_one(argv: list[str], workdir: Path) -> dict:
    """Exit code, stderr and output hashes of ``qturing <argv>`` run in
    ``workdir``, an empty directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qturing_main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": _sha256(out.getvalue().encode("utf-8")),
        "files": {p.name: _file_hash(p) for p in sorted(workdir.iterdir())},
    }


def run_corpus(argvs: list[list[str]]) -> list[dict]:
    """One entry per argv, each run in its own empty directory."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(argvs):
            workdir = Path(tmp, str(i))
            workdir.mkdir()
            entries.append({"argv": argv, **run_one(argv, workdir)})
    return entries


def libc() -> list[str]:
    return list(platform.libc_ver())


def main() -> None:
    golden = {
        "libc": libc(),
        "python": platform.python_version(),
        "entries": run_corpus(ARGVS),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden['entries'])} entries to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
