import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturing import analysis, cli, engine, oracle, schedule
from qturing.cli import main, parse_alpha1
from qturing.schedule import ScheduleMode, fib


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
    # 4300 digits each, the most --alpha1 reads; the sign is not a digit
    longest = "-" + "9" * 4300 + "/" + "0" * 4299 + "7"
    assert parse_alpha1(longest, ScheduleMode.FIBONACCI, 0.0).exact == (-(10**4300 - 1) % 14, 7)


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


@pytest.mark.parametrize("argv", [
    ["--alpha1", "2/5", "--steps", "300"],
    ["--alpha1", "1.2566370616", "--steps", "300"],
    ["--alpha1", "0.3", "--tape", "plus", "--head-angle", "0.7", "--steps", "300"],
    ["--alpha1", "2/5", "--steps", "300", "--record-every", "7"],
], ids=["exact", "float", "plus-tape-head-angle", "record-every-7"])
def test_pattern_bytes_match_density_matrix_route(tmp_path, argv):
    # the CSV rows from the amplitude route equal rows built from
    # bloch_vector(reduce_spin(...)) over the engine's own states, byte for byte
    out = tmp_path / "pat.csv"
    assert run_cli("pattern", *argv, "--out", str(out)) == 0
    opts = dict(zip(argv[::2], argv[1::2]))
    steps, every = int(opts["--steps"]), int(opts.get("--record-every", "1"))
    seq = analysis.AngleSequence(parse_alpha1(opts["--alpha1"], ScheduleMode.FIBONACCI, 0.0))
    initial = engine.init_state(float(opts.get("--head-angle", "0")),
                                opts.get("--tape", "minus1"))
    lines = ["n,s1,s2,s3,purity"]
    for n, state in engine.iterate(seq, initial, steps):
        if n % every == 0 or n == steps:
            h = engine.bloch_vector(engine.reduce_spin(state, engine.Subsystem.HEAD))
            lines.append(f"{n},{h.s1:.17g},{h.s2:.17g},{h.s3:.17g},{h.length_sq():.17g}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


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


_OFF_ORBIT = ("error: no periodic orbit of period 6 at alpha1 = (2/5)*pi: "
              "closure conditions [False, False, False]\n")


def test_stability_off_orbit_prints_one_error_line(tmp_path, capsys):
    assert run_cli("stability", "--alpha1", "2/5", "--m", "3") == 2
    assert capsys.readouterr().err == _OFF_ORBIT
    out = tmp_path / "st.json"
    assert run_cli("stability", "--alpha1", "2/5", "--m", "3", "--out", str(out)) == 2
    assert capsys.readouterr() == ("", _OFF_ORBIT)
    assert json.loads(out.read_text())["error"] == "not a periodic orbit"


@pytest.mark.parametrize("alpha1,deltas", [("2/5", "0.1"), ("1/2", "1e-4,1e-5")])
def test_stability_mismatch_is_check_failure(tmp_path, capsys, alpha1, deltas):
    # past the float seed term's drift horizon the simulated M11 leaves its
    # closed form by more than 1e-8 relative: exit 1, one line, no output
    out = tmp_path / "st.json"
    argv = ["stability", "--alpha1", alpha1, "--m", "60", "--deltas", deltas]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: M11 simulation/closed-form mismatch: \S+ vs \S+\n",
                        captured.err)
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == captured.err
    assert list(tmp_path.iterdir()) == []


def test_stability_catches_only_the_mismatch(monkeypatch):
    def broken(m, deltas, schedule):
        raise RuntimeError("not a closed-form mismatch")

    monkeypatch.setattr(analysis, "stability_numeric", broken)
    with pytest.raises(RuntimeError, match="not a closed-form mismatch"):
        run_cli("stability", "--alpha1", "2/5", "--m", "20", "--deltas", "1e-4")


def _count_calls(monkeypatch, module, *names):
    """Wrap the functions ``names`` of ``module`` to count their calls, all
    in one counter; return the counter, a one-element list."""
    count = [0]
    for name in names:
        def counted(*args, _real=getattr(module, name)):
            count[0] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return count


def test_stability_runs_each_trajectory_once(monkeypatch, capsys):
    # one unperturbed and one perturbed run per delta, each to step 2m + 2;
    # the analysis checks the orbit closure once, and the tape factor's
    # definition is read once by the analysis and once for the limits
    runs = []
    real_iterate = engine.iterate

    def iterate(seq, state, n_steps):
        runs.append(n_steps)
        return real_iterate(seq, state, n_steps)

    monkeypatch.setattr(engine, "iterate", iterate)
    gates = _count_calls(monkeypatch, engine, "apply_head_rotation", "apply_qcnot")
    orbit_checks = _count_calls(monkeypatch, oracle, "orbit_conditions")
    tape_checks = _count_calls(monkeypatch, oracle, "tape_factor_undefined")
    assert run_cli("stability", "--alpha1", "2/5", "--m", "20",
                   "--deltas", "1e-4,1e-5,1e-6") == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 3
    assert runs == [42, 42, 42, 42]
    assert gates[0] == 168
    assert orbit_checks[0] == 1
    assert tape_checks[0] <= 2


@pytest.mark.parametrize("m", ["-5", "0"])
def test_stability_rejects_m_below_one(capsys, m):
    with pytest.raises(SystemExit) as exc:
        run_cli("stability", "--alpha1", "2/5", "--m", m)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: --m must be >= 1\n")


def test_stability_m_above_the_fibonacci_cap_names_the_flag(capsys):
    # the CLI's bound is the oracle's cap: limits exist up to MAX_CYCLE, not past it
    cap = oracle.MAX_CYCLE
    assert oracle.stability_limits(cap).m11 == fib(cap - 1)
    with pytest.raises(ValueError):
        oracle.stability_limits(cap + 1)
    err = assert_argv_error(capsys, "stability", "--alpha1", "0/1", "--m", str(cap + 1))
    assert err == f"error: --m must be <= {cap}\n"


@pytest.mark.parametrize("deltas", ["1e-4,0.5", "0.5,1e-4", "1e-4,1e-5,nan", "0"])
def test_stability_invalid_delta_stops_before_any_run(monkeypatch, capsys, deltas):
    # at 1/2 and m = 60 the first delta fails its closed form, so a late
    # check would report that mismatch (exit 1) instead of the bad delta
    def no_run(*args):
        raise AssertionError("a trajectory ran before every delta was checked")

    monkeypatch.setattr(engine, "iterate", no_run)
    err = assert_argv_error(capsys, "stability", "--alpha1", "1/2", "--m", "60",
                            "--deltas", deltas)
    assert err.startswith("error: --deltas values must lie in (0, 0.1], got ")


# --- oracle-check -----------------------------------------------------------------------

def test_oracle_check_passes(capsys):
    assert run_cli("oracle-check", "--alpha1", "2/5", "--delta", "0",
                   "--steps", "2000") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["max_deviation"] < 1e-9
    assert report["first_failing_step"] is None


def test_oracle_check_detects_corrupted_pauli(capsys, monkeypatch):
    # negative control: flip the sign of sigma2 in the engine's Bloch vectors
    # and the very first rotation step must disagree with the closed forms
    # (test_engine's test_negated_sigma2_separates_the_bloch_routes keeps a
    # sign error in engine.PAULI itself visible)
    spin_bloch = engine.spin_bloch

    def negated_s2(state, spin):
        s1, s2, s3 = spin_bloch(state, spin)
        return engine.BlochVector(s1, -s2, s3)

    monkeypatch.setattr(engine, "spin_bloch", negated_s2)
    assert run_cli("oracle-check", "--alpha1", "0.3", "--delta", "0",
                   "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 1


@pytest.mark.parametrize("target", ["tape_sigma3", "head_s3"])
def test_oracle_check_fails_on_nan_prediction(capsys, monkeypatch, target):
    # max() keeps a NaN only as its first argument, so a NaN in any deviation
    # but the head's s1 used to vanish from the step's maximum and pass
    nan = float("nan")
    if target == "tape_sigma3":
        monkeypatch.setattr(oracle, "tape_sigma3", lambda seq, n: nan)
    else:
        head = oracle.head_bloch_superposed
        monkeypatch.setattr(oracle, "head_bloch_superposed",
                            lambda seq, weights, n: head(seq, weights, n)._replace(s3=nan))
    assert run_cli("oracle-check", "--alpha1", "2/5", "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out,
                        parse_constant=lambda c: pytest.fail(f"report is not strict JSON: {c}"))
    assert report["pass"] is False
    assert report["first_failing_step"] == 1
    assert report["max_deviation"] < 1e-9


@pytest.mark.parametrize("alpha1", ["2/5", "1.2566370616"])
@pytest.mark.parametrize("delta", ["0", "0.001", "-0.001"])
@pytest.mark.parametrize("steps", [301, 300])
def test_oracle_check_bytes_match_density_matrix_route(tmp_path, alpha1, delta, steps):
    # the report read from the amplitude route equals one built here from
    # bloch_vector(reduce_spin(...)) and the per-step closed forms, byte for byte
    out = tmp_path / "oracle.json"
    assert run_cli("oracle-check", "--alpha1", alpha1, "--delta", delta,
                   "--steps", str(steps), "--out", str(out)) == 0
    seq = analysis.AngleSequence(parse_alpha1(alpha1, ScheduleMode.FIBONACCI, float(delta)))
    weights = oracle.SuperpositionWeights(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    max_dev, first_fail = 0.0, None
    for n, state in engine.iterate(seq, engine.init_state(float(delta)), steps):
        head = engine.bloch_vector(engine.reduce_spin(state, engine.Subsystem.HEAD))
        tape = engine.bloch_vector(engine.reduce_spin(state, engine.Subsystem.TAPE))
        pred = oracle.head_bloch_superposed(seq, weights, n)
        devs = [abs(h - p) for h, p in zip(head, pred)]
        devs += [abs(tape.s1), abs(tape.s2), abs(tape.s3 - oracle.tape_sigma3(seq, n))]
        assert all(math.isfinite(d) for d in devs)
        if max(devs) > 1e-9 and first_fail is None:
            first_fail = n
        max_dev = max(max_dev, *devs)
    report = {
        "steps": steps,
        "delta": float(delta),
        "tolerance": 1e-9,
        "max_deviation": max_dev,
        "first_failing_step": first_fail,
        "pass": first_fail is None,
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert out.read_bytes() == text.encode("utf-8")


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


@pytest.mark.parametrize("lo,hi", [("15", "5"), ("-3", "15")], ids=["inverted", "negative-start"])
def test_lyapunov_checks_fit_window_before_the_trace(monkeypatch, capsys, lo, hi):
    def no_trace(cfg):
        raise AssertionError("distance trace computed for a bad fit window")

    monkeypatch.setattr(analysis, "distance_rows", no_trace)
    assert run_cli("lyapunov", "--alpha1", "2/5", "--steps", "200000",
                   "--fit-lo", lo, "--fit-hi", hi) == 2
    assert capsys.readouterr().err.startswith("error: fit window ")


@pytest.mark.parametrize("argv", [
    ["--alpha1", "2/5", "--delta", "1e-8"],
    ["--alpha1", "0.7", "--mode", "arithmetic", "--subsystem", "network",
     "--delta", "1e-6", "--fit-lo", "3", "--fit-hi", "12"],
], ids=["fibonacci-head", "arithmetic-network"])
def test_lyapunov_traces_only_the_fit_window(tmp_path, monkeypatch, capsys, argv):
    # the fit reads d2 up to step 2 * fit_hi, so a longer --steps adds no
    # gate and leaves the report as it is; the manifest keeps --steps
    fit_hi = int(argv[argv.index("--fit-hi") + 1]) if "--fit-hi" in argv else 15
    assert run_cli("lyapunov", *argv, "--steps", str(2 * fit_hi)) == 0
    short = capsys.readouterr().out
    gates = _count_calls(monkeypatch, engine, "apply_head_rotation", "apply_qcnot")
    out = tmp_path / "rate.json"
    assert run_cli("lyapunov", *argv, "--steps", "1000000", "--out", str(out)) == 0
    assert gates[0] <= 2 * (2 * fit_hi)  # two trajectories, unperturbed and perturbed
    assert out.read_text() == short
    manifest = json.loads((tmp_path / "rate.json.manifest.json").read_text())
    assert manifest["config"]["steps"] == 1000000


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
    """A configuration error: main returns 2, nothing on stdout and one
    error: line on stderr, which is returned."""
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def assert_argv_error(capsys, *argv):
    """An option value out of range: SystemExit(2) from the parser, nothing
    on stdout and one error: line on stderr, which is returned."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "-1e-9"])
def test_oracle_check_rejects_bad_tolerance(capsys, tolerance):
    assert_argv_error(capsys, "oracle-check", "--alpha1", "0.3", "--steps", "10",
                      "--tolerance", tolerance)


@pytest.mark.parametrize("command", ["pattern", "distance"])
def test_record_every_zero_rejected(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert_argv_error(capsys, command, "--alpha1", "0.3", "--steps", "10",
                      "--record-every", "0", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command", ["distance", "lyapunov"])
def test_paired_commands_need_two_steps(tmp_path, capsys, command):
    # a paired trace needs two steps: the line names the flag, before any work
    err = assert_argv_error(capsys, command, "--alpha1", "2/5", "--steps", "1",
                            "--out", str(tmp_path / "x.csv"))
    assert err == "error: --steps must be >= 2\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,line", [
    (["distance", "--delta", "-1e-3"], "error: --delta must be >= 0, got -0.001"),
    (["distance", "--delta", "nan"], "error: --delta must be finite, got nan"),
    (["lyapunov", "--delta", "-1e-8"], "error: --delta must be >= 0, got -1e-08"),
    (["oracle-check", "--delta", "inf"], "error: --delta must be finite, got inf"),
    (["pattern", "--head-angle", "inf"], "error: --head-angle must be finite, got inf"),
    (["stability", "--m", "20", "--deltas", "abc"], "error: argument --deltas: expected "
     "a comma-separated list of numbers, got 'abc'"),
    (["pattern", "--alpha1", "nan"], "error: --alpha1 must be finite, got nan"),
    (["distance", "--alpha1", "inf"], "error: --alpha1 must be finite, got inf"),
    (["oracle-check", "--alpha1", "abc"], "error: --alpha1 must be a float or p/q, got 'abc'"),
    (["lyapunov", "--alpha1", "1/0"], "error: --alpha1 denominator must be >= 1, got '1/0'"),
    (["pattern", "--alpha1", "1/5" + "0" * 307],
     "error: --alpha1 denominator must be <= 2**1020, got 1023 bits"),
    (["pattern", "--alpha1", "1/1" + "0" * 5000],
     "error: --alpha1 p and q must have at most 4300 digits each, got 5001"),
    (["pattern", "--alpha1", "7" * 5000 + "/3"],
     "error: --alpha1 p and q must have at most 4300 digits each, got 5000"),
], ids=["distance-negative-delta", "distance-nan-delta", "lyapunov-negative-delta",
        "oracle-check-inf-delta", "pattern-inf-head-angle", "stability-deltas-abc",
        "pattern-nan-alpha1", "distance-inf-alpha1", "oracle-check-abc-alpha1",
        "lyapunov-zero-denominator", "pattern-denominator-5e307",
        "pattern-denominator-5001-digits", "pattern-numerator-5000-digits"])
def test_bad_value_names_its_flag(tmp_path, capsys, argv, line):
    # checked before any work, under the flag's own name: by main's one pass
    # (SystemExit 2), or for --alpha1 by parse_alpha1 (main returns 2)
    check = assert_usage_error if argv[1] == "--alpha1" else assert_argv_error
    err = check(capsys, argv[0], "--alpha1", "2/5", *argv[1:], "--out", str(tmp_path / "x.csv"))
    assert err == line + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--alpha1", "1/1" + "0" * 400, "--steps", "10"],
    ["pattern", "--alpha1", "1/1" + "0" * 400, "--steps", "10", "--out", "{out}"],
    ["distance", "--alpha1", "1/1" + "0" * 400, "--steps", "10", "--out", "{out}"],
    ["lyapunov", "--alpha1", "1/1" + "0" * 400, "--steps", "60"],
    ["pattern", "--alpha1", "1/5" + "0" * 307, "--steps", "4000", "--out", "{out}"],
], ids=["oracle-check-1e400", "pattern-1e400", "distance-1e400", "lyapunov-1e400",
        "pattern-5e307"])
def test_exact_denominator_beyond_double_range_is_usage_error(tmp_path, capsys, argv):
    # pi * 2q must be a finite double, or the angles overflow or turn NaN
    args = [a.replace("{out}", str(tmp_path / "out.csv")) for a in argv]
    assert_usage_error(capsys, *args)
    assert list(tmp_path.iterdir()) == []


def test_help_states_the_bounds(capsys):
    for command, bounds in [("stability", [f"1 to {oracle.MAX_CYCLE}", "(0, 0.1]"]),
                            ("distance", ["2 to 1e6"]), ("pattern", ["1 to 1e6"])]:
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert all(b in text for b in bounds), (command, text)


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
_ROW_CALL = {"pattern": "spin_bloch", "distance": "pair_metrics"}


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
        steps=9001, subsystem="network")
    trace = analysis.distance_trace(cfg)
    lines = ["n,d2,overlap"] + [
        f"{n},{d2:.17g},{ov:.17g}" for n, d2, ov in zip(trace.steps, trace.d2, trace.overlap)
    ]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_oracle_check_fails_on_nan_deviation(capsys, monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(engine, "spin_bloch", lambda state, spin: engine.BlochVector(nan, nan, nan))
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


def test_each_call_gets_its_own_defaults(tmp_path):
    # main shares one parser across calls: no value given to one call, and no
    # default of one subcommand, may reach a later call
    assert cli.build_parser() is cli.build_parser()

    def run(command, name, *extra):
        assert run_cli(command, "--alpha1", "2/5", *extra, "--out", str(tmp_path / name)) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text(encoding="utf-8"))
        return manifest["config"], (tmp_path / name).read_text(encoding="utf-8")

    run("pattern", "p1.csv", "--steps", "5")
    run("oracle-check", "o1.json", "--steps", "6", "--delta", "0.2")
    run("distance", "d1.csv", "--steps", "7", "--delta", "0.3")
    config, _ = run("pattern", "p2.csv")
    assert config["steps"] == 10000 and config["schedule"]["delta"] == 0.0
    config, report = run("oracle-check", "o2.json")
    assert config["steps"] == 2000 and json.loads(report)["delta"] == 0.0
    config, _ = run("distance", "d2.csv")
    assert config["steps"] == 200 and config["delta"] == 0.001


#: command lines whose exact schedules read each residue index once or one up
#: from the last, which the carried pair serves without a Fibonacci walk
_IN_ORDER = [
    ["oracle-check", "--alpha1", "123/257", "--delta", "1e-3", "--steps", "2001"],
    *(["distance", "--alpha1", "2/5", "--delta", "1e-3", "--steps", "999",
       "--subsystem", sub, "--out", "d.csv"] for sub in ("head", "tape", "network")),
    ["pattern", "--alpha1", "3/7", "--steps", "2001", "--out", "p.csv"],
]


def _count_walks(monkeypatch):
    """Record the n of every schedule.fib_pair_mod call in the returned list."""
    walks, real = [], schedule.fib_pair_mod
    monkeypatch.setattr(schedule, "fib_pair_mod", lambda n, mod: walks.append(n) or real(n, mod))
    return walks


@pytest.mark.parametrize("argv", _IN_ORDER, ids=lambda argv: " ".join(argv[:1] + argv[-3:]))
def test_commands_read_the_schedule_without_walks(tmp_path, monkeypatch, argv):
    walks = _count_walks(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    assert walks == []


def test_stability_walks_at_most_once_per_sequence(monkeypatch):
    # stability_limits reads a fresh sequence far ahead: one walk, and no more
    walks = _count_walks(monkeypatch)
    per_pair, pairs, real = {}, [], schedule._residues

    def residues(pair, m, mod):
        before = len(walks)
        out = real(pair, m, mod)
        pairs.append(pair)  # held, so that no later pair reuses its id
        per_pair[id(pair)] = per_pair.get(id(pair), 0) + len(walks) - before
        return out

    monkeypatch.setattr(schedule, "_residues", residues)
    assert run_cli("stability", "--alpha1", "2/5", "--m", "20") == 0
    assert walks and max(per_pair.values()) == 1


# --- fuzzing ---------------------------------------------------------------------------------

#: awkward numbers, next to ordinary ones, for every numeric option
_AWKWARD = ["nan", "inf", "-inf", "1/0", "-3/7", "2/5", "0/1", "1/2", "1e308", "-1e308",
            "0", "-0.5", "0.3", "1e-3", "abc"]


def _values(*extra):
    return st.sampled_from(_AWKWARD + list(extra))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_MODES = st.sampled_from(["fibonacci", "fixed", "arithmetic", "cubic"])
_SUBSYSTEMS = st.sampled_from(["head", "tape", "network", "both"])
_OUT = st.just("{out}")

#: per subcommand: (option, values, always given); --steps stays <= 200
_OPTIONS = {
    "pattern": [("--alpha1", _values(), True), ("--steps", _ints(-3, 200), True),
                ("--mode", _MODES, False), ("--head-angle", _values(), False),
                ("--tape", st.sampled_from(["minus1", "plus1", "plus", "minus", "up"]), False),
                ("--record-every", _ints(-1, 9), False), ("--out", _OUT, True)],
    "distance": [("--alpha1", _values(), True), ("--steps", _ints(-3, 200), True),
                 ("--delta", _values("1e-8"), False), ("--mode", _MODES, False),
                 ("--subsystem", _SUBSYSTEMS, False), ("--record-every", _ints(-1, 9), False),
                 ("--out", _OUT, True)],
    "stability": [("--alpha1", _values("1/3", "1/4"), True),
                  ("--m", st.sampled_from(["1", "2", "3", "20", "60"]), True),
                  ("--deltas", st.lists(_values("1e-4", "1e-6", "0.1"), min_size=1,
                                        max_size=3).map(",".join), False),
                  ("--out", _OUT, False)],
    "oracle-check": [("--alpha1", _values(), True), ("--steps", _ints(-3, 200), True),
                     ("--delta", _values("1e-8"), False),
                     ("--tolerance", _values("1e-9"), False), ("--out", _OUT, False)],
    "lyapunov": [("--alpha1", _values(), True), ("--steps", _ints(-3, 200), True),
                 ("--delta", _values("1e-8"), False), ("--mode", _MODES, False),
                 ("--subsystem", _SUBSYSTEMS, False), ("--fit-lo", _ints(-3, 40), False),
                 ("--fit-hi", _ints(-3, 40), False), ("--out", _OUT, False)],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values, always in _OPTIONS[command]:
        if always or draw(st.booleans()):
            argv += [option, draw(values)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(argv):
    # any argv: exit 0, 1 or 2, no exception out of main, and a usage error
    # is exactly one "error:" line on stderr
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = [a.replace("{out}", os.path.join(tmp, "out")) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
