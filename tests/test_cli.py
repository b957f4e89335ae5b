import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qturing import analysis, engine
from qturing.cli import main, parse_alpha1
from qturing.schedule import ScheduleMode


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv):
    return main(list(argv))


# --- alpha1 parsing -------------------------------------------------------------

def test_parse_alpha1_exact_fraction():
    cfg = parse_alpha1("2/5", ScheduleMode.FIBONACCI, 0.0)
    assert cfg.exact == (2, 5)
    assert cfg.alpha1 == pytest.approx(2 * math.pi / 5)


def test_parse_alpha1_reduces_fraction():
    assert parse_alpha1("4/10", ScheduleMode.FIBONACCI, 0.0).exact == (2, 5)


def test_parse_alpha1_float_is_inexact():
    cfg = parse_alpha1("1.2566370616", ScheduleMode.FIBONACCI, 0.0)
    assert cfg.exact is None
    assert cfg.alpha1 == pytest.approx(1.2566370616)


def test_parse_alpha1_rejects_garbage():
    with pytest.raises(ValueError):
        parse_alpha1("abc", ScheduleMode.FIBONACCI, 0.0)
    with pytest.raises(ValueError):
        parse_alpha1("1/0", ScheduleMode.FIBONACCI, 0.0)


# --- pattern ---------------------------------------------------------------------

def test_pattern_periodic_point_set(tmp_path):
    out = tmp_path / "pattern.csv"
    assert run_cli("pattern", "--alpha1", "2/5", "--steps", "400", "--out", str(out)) == 0
    rows = read_csv(out)
    assert len(rows) == 400
    pts = {(round(float(r["s2"]), 9), round(float(r["s3"]), 9)) for r in rows}
    assert len(pts) == 14  # periodic orbit visits a finite point set
    for r in rows:
        assert float(r["s1"]) == 0.0


def test_pattern_single_step(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "1", "--out", str(out)) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["n"] == "1"
    assert float(rows[0]["s1"]) == 0.0


def test_pattern_output_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("pattern", "--alpha1", "2/5", "--steps", "100", "--out", str(out1))
    run_cli("pattern", "--alpha1", "2/5", "--steps", "100", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_pattern_manifest_checksum(tmp_path):
    out = tmp_path / "pattern.csv"
    run_cli("pattern", "--alpha1", "2/5", "--steps", "50", "--out", str(out))
    manifest = json.loads((tmp_path / "pattern.csv.manifest.json").read_text())
    assert manifest["command"] == "pattern"
    assert manifest["config"]["schedule"]["exact"] == [2, 5]
    assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_pattern_aperiodic_even_steps_never_collide(tmp_path):
    out = tmp_path / "aperiodic.csv"
    run_cli(
        "pattern", "--alpha1", "1.2566370616", "--steps", "2000", "--out", str(out)
    )
    rows = read_csv(out)
    pts = {
        (round(float(r["s2"]), 9), round(float(r["s3"]), 9))
        for r in rows
        if int(r["n"]) % 2 == 0
    }
    assert len(pts) == 1000


# --- distance ---------------------------------------------------------------------

def test_distance_fixed_mode_network_constant(tmp_path):
    out = tmp_path / "fixed.csv"
    assert run_cli(
        "distance", "--alpha1", "2/5", "--mode", "fixed", "--subsystem", "network",
        "--delta", "0.001", "--steps", "80", "--out", str(out),
    ) == 0
    rows = read_csv(out)
    vals = [float(r["d2"]) for r in rows]
    assert max(vals) - min(vals) < 1e-10


def test_distance_zero_delta_all_zero(tmp_path):
    out = tmp_path / "zero.csv"
    run_cli("distance", "--alpha1", "2/5", "--delta", "0", "--steps", "50",
            "--out", str(out))
    assert all(float(r["d2"]) == 0.0 for r in read_csv(out))


def test_distance_fibonacci_rises_then_saturates(tmp_path):
    out = tmp_path / "fib.csv"
    run_cli("distance", "--alpha1", "2/5", "--delta", "0.001", "--steps", "300",
            "--out", str(out))
    vals = [float(r["d2"]) for r in read_csv(out)]
    assert max(vals) > 1.5
    assert max(vals) <= 2.0 + 1e-10


def test_distance_record_every(tmp_path):
    out = tmp_path / "thin.csv"
    run_cli("distance", "--alpha1", "2/5", "--steps", "100", "--record-every", "20",
            "--out", str(out))
    assert [r["n"] for r in read_csv(out)] == ["0", "20", "40", "60", "80", "100"]


def test_distance_record_every_writes_final_step(tmp_path):
    out = tmp_path / "thin.csv"
    run_cli("distance", "--alpha1", "2/5", "--steps", "105", "--record-every", "10",
            "--out", str(out))
    assert [r["n"] for r in read_csv(out)][-2:] == ["100", "105"]


# --- stability -------------------------------------------------------------------------

def test_stability_report(tmp_path, capsys):
    assert run_cli("stability", "--alpha1", "2/5", "--m", "20",
                   "--deltas", "1e-4,1e-5,1e-6") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["limits"]["m11"] == 4181
    assert report["limits"]["tape"] == pytest.approx(10946.0, abs=1e-6)
    assert report["period"] == 40
    errs = [row["m11_rel_err"] for row in report["results"]]
    assert errs[0] > errs[1] > errs[2]
    m11 = report["results"][-1]["m11"]
    assert m11 == pytest.approx(4181, rel=1e-3)


def test_stability_trivial_orbit_report(capsys):
    # alpha1 = 0 closes every cycle; the tape factor is degenerate there
    assert run_cli("stability", "--alpha1", "0/1", "--m", "2",
                   "--deltas", "1e-6") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["limits"]["m11"] == 1
    assert report["limits"]["tape"] is None
    assert report["results"][0]["m11"] == pytest.approx(1.0, abs=1e-9)


def test_stability_rejects_float_alpha(capsys):
    assert run_cli("stability", "--alpha1", "1.2566", "--m", "20") == 2


def test_stability_off_orbit_structured_error(capsys):
    assert run_cli("stability", "--alpha1", "2/5", "--m", "3") == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "not a periodic orbit"
    assert report["conditions"] == [False, False, False]


# --- oracle-check -----------------------------------------------------------------------

def test_oracle_check_passes(capsys):
    assert run_cli("oracle-check", "--alpha1", "2/5", "--delta", "0",
                   "--steps", "2000") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_deviation"] < 1e-9
    assert report["first_failing_step"] is None


def test_oracle_check_detects_corrupted_pauli(capsys, monkeypatch):
    # negative control: flip the sign of the second Pauli matrix and the
    # very first rotation step must disagree with the closed forms
    s1, s2, s3 = engine.PAULI
    negated_s2 = tuple(tuple(-x for x in row) for row in s2)
    monkeypatch.setattr(engine, "PAULI", (s1, negated_s2, s3))
    assert run_cli("oracle-check", "--alpha1", "0.3", "--delta", "0",
                   "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 1


# --- lyapunov ----------------------------------------------------------------------------

def test_lyapunov_report(capsys):
    assert run_cli("lyapunov", "--alpha1", "2/5", "--delta", "1e-8",
                   "--steps", "60", "--fit-lo", "5", "--fit-hi", "15") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rate_per_cycle"] == pytest.approx(0.4812118, rel=0.05)


def test_lyapunov_saturated_window_is_config_error(capsys):
    assert run_cli("lyapunov", "--alpha1", "2/5", "--delta", "0.01",
                   "--steps", "120", "--fit-lo", "5", "--fit-hi", "40") == 2


@pytest.mark.parametrize("lo,hi,message", [
    ("15", "5", "error: fit window is inverted: first cycle 15 > last cycle 5\n"),
    ("-3", "15", "error: fit window starts at cycle -3, must start at >= 0\n"),
], ids=["inverted", "negative-start"])
def test_lyapunov_rejects_bad_fit_window(tmp_path, capsys, lo, hi, message):
    out = tmp_path / "rate.json"
    assert run_cli("lyapunov", "--alpha1", "2/5", "--steps", "60",
                   "--fit-lo", lo, "--fit-hi", hi, "--out", str(out)) == 2
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


# --- global flag handling ------------------------------------------------------------------

def test_malformed_alpha1_exits_2(tmp_path):
    assert run_cli("pattern", "--alpha1", "abc", "--steps", "5",
                   "--out", str(tmp_path / "x.csv")) == 2


def test_steps_bounds_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("pattern", "--alpha1", "0.3", "--steps", "0",
                "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("oracle-check", "--alpha1", "0.3", "--steps", "2000000")
    assert exc.value.code == 2


def assert_usage_error(capsys, *argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "-1e-9"])
def test_oracle_check_rejects_bad_tolerance(capsys, tolerance):
    assert_usage_error(capsys, "oracle-check", "--alpha1", "0.3", "--steps", "10",
                       "--tolerance", tolerance)


@pytest.mark.parametrize("command", ["pattern", "distance"])
def test_record_every_zero_rejected(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert_usage_error(capsys, command, "--alpha1", "0.3", "--steps", "10",
                       "--record-every", "0", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pattern", "--alpha1", "0.3", "--tape", "plus_one", "--out", "x.csv"],
    ["oracle-check", "--alpha1", "0.3", "--tolerance"],
    ["pattern", "--alpha1", "0.3", "--steps", "0", "--out", "x.csv"],
])
def test_argparse_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one CLI run, SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("code,argv", [
    (0, ["distance", "--alpha1", "-3/7", "--steps", "30", "--out", "{out}"]),
    (0, ["pattern", "--alpha1", "0.3", "--head-angle", "-.7", "--steps", "30", "--out", "{out}"]),
    (0, ["oracle-check", "--alpha1", "-1.2e0", "--delta", "-1e-3", "--steps", "30"]),
    (0, ["lyapunov", "--alpha1", "-2/5", "--steps", "60"]),
    (2, ["oracle-check", "--alpha1", "0.3", "--tolerance", "-1e-9"]),
    (2, ["oracle-check", "--alpha1", "0.3", "--tolerance", "-inf"]),
    (2, ["stability", "--alpha1", "2/5", "--m", "20", "--deltas", "-1e-4"]),
    (2, ["pattern", "--alpha1", "0.3", "--steps", "-5", "--out", "{out}"]),
])
def test_negative_value_as_separate_argument(tmp_path, capsys, code, argv):
    # "--opt -value" behaves exactly like "--opt=-value"
    def run(form):
        out_dir = tmp_path / form
        out_dir.mkdir()
        args = [a.replace("{out}", str(out_dir / "out.csv")) for a in argv]
        if form == "joined":
            i = next(i for i, a in enumerate(args) if a[0] == "-" and a[1] != "-")
            args[i - 1 : i + 1] = [f"{args[i - 1]}={args[i]}"]
        outcome = _outcome(capsys, args)
        return outcome, {f.name: f.read_bytes() for f in out_dir.iterdir()}

    separate, joined = run("separate"), run("joined")
    assert separate == joined
    (rc, _, err), _ = separate
    assert rc == code
    assert "expected one argument" not in err


def test_runtime_needs_no_numpy(tmp_path):
    # every subcommand runs in a fresh interpreter where importing numpy fails
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        from qturing.cli import main
        out = sys.argv[1]
        argvs = [
            ["pattern", "--alpha1", "2/5", "--steps", "50", "--out", out + "/p.csv"],
            ["distance", "--alpha1", "2/5", "--steps", "50", "--out", out + "/d.csv"],
            ["stability", "--alpha1", "2/5", "--m", "20", "--deltas", "1e-4"],
            ["oracle-check", "--alpha1", "2/5", "--delta", "1e-3", "--steps", "200"],
            ["lyapunov", "--alpha1", "2/5", "--steps", "60"],
        ]
        codes = [main(argv) for argv in argvs]
        sys.exit(f"exit codes {codes}" if any(codes) else 0)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "d.csv", "d.csv.manifest.json", "p.csv", "p.csv.manifest.json"]


class _Abort(Exception):
    pass


#: the engine function each streamed command calls once per CSV row
_ROW_CALL = {"pattern": "bloch_vector", "distance": "pair_metrics"}


def _fail_after(monkeypatch, tmp_path, calls, command="pattern"):
    """Make the per-row engine call of ``command`` raise after ``calls``
    rows, once the output has started streaming into its temporary file."""
    name = _ROW_CALL[command]
    real = getattr(engine, name)
    count = [0]

    def flaky(*args):
        count[0] += 1
        if count[0] > calls:
            (tmp,) = tmp_path.glob(f".{command}.csv.*.tmp")
            assert tmp.stat().st_size > 0
            raise _Abort
        return real(*args)

    monkeypatch.setattr(engine, name, flaky)


def _assert_failure_mid_write_leaves_nothing(tmp_path, monkeypatch, command):
    _fail_after(monkeypatch, tmp_path, 9000, command)
    with pytest.raises(_Abort):
        run_cli(command, "--alpha1", "2/5", "--steps", "10000",
                "--out", str(tmp_path / f"{command}.csv"))
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_write_leaves_nothing(tmp_path, monkeypatch):
    _assert_failure_mid_write_leaves_nothing(tmp_path, monkeypatch, "pattern")


def test_failure_mid_distance_write_leaves_nothing(tmp_path, monkeypatch):
    _assert_failure_mid_write_leaves_nothing(tmp_path, monkeypatch, "distance")


def test_failure_mid_write_keeps_earlier_output(tmp_path, monkeypatch):
    out = tmp_path / "pattern.csv"
    manifest = tmp_path / "pattern.csv.manifest.json"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "10", "--out", str(out)) == 0
    before = (out.read_bytes(), manifest.read_bytes())
    _fail_after(monkeypatch, tmp_path, 9000)
    with pytest.raises(_Abort):
        run_cli("pattern", "--alpha1", "2/5", "--steps", "10000", "--out", str(out))
    assert sorted(tmp_path.iterdir()) == [out, manifest]
    assert (out.read_bytes(), manifest.read_bytes()) == before


def test_failed_manifest_move_leaves_neither_file(tmp_path, monkeypatch):
    import os

    out = tmp_path / "pattern.csv"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "10", "--out", str(out)) == 0
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".manifest.json"):
            raise _Abort
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(_Abort):
        run_cli("pattern", "--alpha1", "2/5", "--steps", "10", "--out", str(out))
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "absent" / "pattern.csv"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "10", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out)) in err
    assert list(tmp_path.iterdir()) == []


def test_streamed_pattern_matches_joined_text(tmp_path):
    # more rows than one write chunk: the streamed bytes equal the rows joined at once
    out = tmp_path / "pat.csv"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "9000", "--out", str(out)) == 0
    seq = analysis.AngleSequence(parse_alpha1("0.3", ScheduleMode.FIBONACCI, 0.0))
    recs = analysis.trajectory_bloch(seq, engine.init_state(0.0), 9000)
    lines = ["n,s1,s2,s3,purity"] + [
        f"{n},{h.s1:.17g},{h.s2:.17g},{h.s3:.17g},{h.length_sq():.17g}" for n, h in recs
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    assert out.read_bytes() == data
    manifest = json.loads((tmp_path / "pat.csv.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()


def test_streamed_distance_matches_collected_trace(tmp_path):
    out = tmp_path / "dist.csv"
    assert run_cli("distance", "--alpha1", "2/5", "--steps", "9001",
                   "--subsystem", "network", "--out", str(out)) == 0
    cfg = analysis.ExperimentConfig(
        schedule=parse_alpha1("2/5", ScheduleMode.FIBONACCI, 0.001),
        delta=0.001, steps=9001, subsystem="network")
    trace = analysis.distance_trace(cfg)
    lines = ["n,d2,overlap"] + [
        f"{n},{d2:.17g},{ov:.17g}" for n, d2, ov in zip(trace.steps, trace.d2, trace.overlap)
    ]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_oracle_check_fails_on_nan_deviation(capsys, monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(engine, "bloch_vector", lambda rho: engine.BlochVector(nan, nan, nan))
    assert run_cli("oracle-check", "--alpha1", "0.3", "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 1


def test_nan_in_report_is_error_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "lyapunov_estimate", lambda trace, window: float("nan"))
    assert_usage_error(capsys, "lyapunov", "--alpha1", "2/5", "--steps", "60",
                       "--out", str(tmp_path / "rate.json"))
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_csv_floats_carry_17_significant_digits(tmp_path):
    out = tmp_path / "pat.csv"
    run_cli("pattern", "--alpha1", "2/5", "--steps", "2", "--out", str(out))
    row = read_csv(out)[0]
    assert float(row["s2"]) == pytest.approx(math.sin(2 * math.pi / 5), abs=1e-15)
    # written with %.17g: parsing and re-formatting reproduces the field
    assert row["s2"] == f"{float(row['s2']):.17g}"
    assert len(row["s2"].lstrip("-0.")) >= 16
