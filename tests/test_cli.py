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
            s1, s2, s3 = engine.bloch_vector(engine.reduce_spin(state, engine.Subsystem.HEAD))
            lines.append(f"{n},{s1:.17g},{s2:.17g},{s3:.17g},{s1 * s1 + s2 * s2 + s3 * s3:.17g}")
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the perturbed runs read the float "
                   "delta part of the schedule, which drifts (M11 2331.85706 vs 2331.85724)")
def test_stability_passes_at_m_60_with_the_default_deltas(capsys):
    assert run_cli("stability", "--alpha1", "2/5", "--m", "60") == 0


def test_stability_catches_only_the_mismatch(monkeypatch):
    def broken(m, deltas, schedule):
        raise RuntimeError("not a closed-form mismatch")

    monkeypatch.setattr(analysis, "stability_numeric", broken)
    with pytest.raises(RuntimeError, match="not a closed-form mismatch"):
        run_cli("stability", "--alpha1", "2/5", "--m", "20", "--deltas", "1e-4")


def _count_calls(monkeypatch, module, *names):
    """Wrap the functions ``names`` of ``module`` (or of a class) to count
    their calls, all in one counter; return the counter, a one-element list."""
    count = [0]
    for name in names:
        def counted(*args, _real=getattr(module, name)):
            count[0] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return count


def _count_draws(monkeypatch, *names):
    """Wrap the streams ``names`` of schedule.AngleSequence so that every
    item drawn from them adds one to its name's entry of the returned dict."""
    draws = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, _real=getattr(schedule.AngleSequence, name), _name=name):
            for item in _real(self):
                draws[_name] += 1
                yield item

        monkeypatch.setattr(schedule.AngleSequence, name, counted)
    return draws


#: the point reads of schedule.AngleSequence; no command makes one per step
_POINT_READS = ("angle", "cumulative_plus", "cumulative_minus")


def test_stability_runs_each_trajectory_once(monkeypatch, capsys):
    # one unperturbed and one perturbed run per delta, each to step 2m + 2;
    # the analysis checks the orbit closure once and asks the oracle for the
    # limits once, and the report reuses them
    runs = []
    real_iterate = engine.iterate

    def iterate(seq, state, n_steps):
        runs.append(n_steps)
        return real_iterate(seq, state, n_steps)

    monkeypatch.setattr(engine, "iterate", iterate)
    gates = _count_calls(monkeypatch, engine, "apply_head_rotation", "apply_qcnot")
    orbit_checks = _count_calls(monkeypatch, oracle, "orbit_conditions")
    limit_calls = _count_calls(monkeypatch, oracle, "stability_limits")
    assert run_cli("stability", "--alpha1", "2/5", "--m", "20",
                   "--deltas", "1e-4,1e-5,1e-6") == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 3
    assert runs == [42, 42, 42, 42]
    assert gates[0] == 168
    assert orbit_checks[0] == 1
    assert limit_calls[0] == 1


@pytest.mark.parametrize("m", ["-5", "0"])
def test_stability_rejects_m_below_one(capsys, m):
    with pytest.raises(SystemExit) as exc:
        run_cli("stability", "--alpha1", "2/5", "--m", m)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: --m must be >= 1\n")


def test_stability_m_above_the_fibonacci_cap_names_the_flag(capsys):
    # the CLI's bound is the oracle's cap: limits exist up to MAX_CYCLE, not past it
    cap = oracle.MAX_CYCLE
    config = schedule.ScheduleConfig.exact_pi(0, 1)
    assert oracle.stability_limits(cap, config).m11 == fib(cap - 1)
    with pytest.raises(ValueError):
        oracle.stability_limits(cap + 1, config)
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: wrap_angle reduces delta modulo the "
                   "double 2*pi while init_state rotates by the raw delta (1.17e-9 at step 1)")
def test_oracle_check_passes_at_a_large_delta(capsys):
    assert run_cli("oracle-check", "--alpha1", "2/5", "--steps", "10", "--delta", "3e7") == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_oracle_check_detects_corrupted_pauli(capsys, monkeypatch):
    # negative control: flip the sign of sigma2 in the engine's Bloch vectors
    # and the very first rotation step must disagree with the closed forms
    # (test_engine's test_negated_sigma2_separates_the_bloch_routes keeps a
    # sign error in the reference's PAULI itself visible)
    for name in ("head_bloch", "tape_bloch"):
        def negated_s2(state, bloch=getattr(engine, name)):
            s1, s2, s3 = bloch(state)
            return s1, -s2, s3

        monkeypatch.setattr(engine, name, negated_s2)
    assert run_cli("oracle-check", "--alpha1", "0.3", "--delta", "0",
                   "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 1


@pytest.mark.parametrize("target,at,steps", [
    ("tape_sigma3", 1, 10),
    ("head_s3", 1, 10),
    ("head_s2", 6, 10),     # an even step only
    ("tape_sigma3", 11, 11),  # the odd tail step of an odd --steps
], ids=["tape_sigma3", "head_s3", "head_s2-even-step", "tape_sigma3-odd-tail"])
def test_oracle_check_fails_on_nan_prediction(capsys, monkeypatch, target, at, steps):
    # max() keeps a NaN only as its first argument, so a NaN in any deviation
    # but the head's s1 used to vanish from the step's maximum and pass
    column = ("head_s2", "head_s3", "tape_sigma3").index(target)
    stream = oracle.predictions

    def predictions(seq, weights, count):
        for n, row in enumerate(stream(seq, weights, count), 1):
            yield row[:column] + (math.nan,) + row[column + 1:] if n == at else row

    monkeypatch.setattr(oracle, "predictions", predictions)
    assert run_cli("oracle-check", "--alpha1", "2/5", "--steps", str(steps)) == 1
    report = json.loads(capsys.readouterr().out,
                        parse_constant=lambda c: pytest.fail(f"report is not strict JSON: {c}"))
    assert report["pass"] is False
    assert report["first_failing_step"] == at
    assert report["max_deviation"] < 1e-9


def test_oracle_check_fails_past_the_tolerance(capsys, monkeypatch):
    # head s3 predicted 5e-9 off at step 7: past a tolerance of 1e-9, within ten of it
    stream = oracle.predictions

    def predictions(seq, weights, count):
        for n, (p2, p3, p_t3) in enumerate(stream(seq, weights, count), 1):
            yield (p2, p3 + 5e-9, p_t3) if n == 7 else (p2, p3, p_t3)

    monkeypatch.setattr(oracle, "predictions", predictions)
    assert run_cli("oracle-check", "--alpha1", "2/5", "--steps", "10",
                   "--tolerance", "1e-9") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 7
    assert 4e-9 < report["max_deviation"] < 6e-9


@pytest.mark.parametrize("change", [-1, 1], ids=["one-short", "one-long"])
def test_oracle_check_rejects_a_prediction_stream_of_another_length(
        capsys, monkeypatch, tmp_path, change):
    # zip() would stop at the shorter stream and pass on the steps it compared
    stream = oracle.predictions

    def predictions(seq, weights, count):
        rows = list(stream(seq, weights, count))
        yield from rows[:change] if change < 0 else rows + rows[-change:]

    monkeypatch.setattr(oracle, "predictions", predictions)
    err = assert_usage_error(capsys, "oracle-check", "--alpha1", "2/5", "--steps", "10")
    assert "argument 2" in err
    out = tmp_path / "oracle.json"
    assert_usage_error(capsys, "oracle-check", "--alpha1", "2/5", "--steps", "10",
                       "--out", str(out))
    assert list(tmp_path.iterdir()) == []


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
        t1, t2, t3 = tape
        devs += [abs(t1), abs(t2), abs(t3 - oracle.tape_sigma3(seq, n))]
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
    # the fit checks its window before it draws a row, so no cycle runs
    draws = _count_draws(monkeypatch, "angles")
    assert run_cli("lyapunov", "--alpha1", "2/5", "--steps", "200000",
                   "--fit-lo", lo, "--fit-hi", hi) == 2
    assert capsys.readouterr().err.startswith("error: fit window ")
    assert draws["angles"] == 0


@pytest.mark.parametrize("argv", [
    ["--alpha1", "2/5", "--delta", "1e-8"],
    ["--alpha1", "0.7", "--mode", "arithmetic", "--subsystem", "network",
     "--delta", "1e-6", "--fit-lo", "3", "--fit-hi", "12"],
], ids=["fibonacci-head", "arithmetic-network"])
def test_lyapunov_traces_only_the_fit_window(tmp_path, monkeypatch, capsys, argv):
    # the fit reads d2 up to step 2 * fit_hi, so a longer --steps adds no
    # cycle and leaves the report as it is; the manifest keeps --steps
    fit_hi = int(argv[argv.index("--fit-hi") + 1]) if "--fit-hi" in argv else 15
    assert run_cli("lyapunov", *argv, "--steps", str(2 * fit_hi)) == 0
    short = capsys.readouterr().out
    # the distance kernel draws one angle per trajectory per cycle
    draws = _count_draws(monkeypatch, "angles")
    out = tmp_path / "rate.json"
    assert run_cli("lyapunov", *argv, "--steps", "1000000", "--out", str(out)) == 0
    assert draws["angles"] == 2 * fit_hi  # two trajectories, unperturbed and perturbed
    assert out.read_text() == short
    manifest = json.loads((tmp_path / "rate.json.manifest.json").read_text())
    assert manifest["config"]["steps"] == 1000000


def test_lyapunov_fit_time_follows_the_trace_not_fit_hi(capsys):
    # the trace of the default 200 steps holds 201 rows; a fit that visited
    # every cycle up to --fit-hi 10^12 would run for days, so the command
    # runs in a fresh interpreter that is stopped after 10 s
    argv = ["lyapunov", "--alpha1", "2/5", "--mode", "fixed"]
    assert run_cli(*argv, "--fit-hi", "100") == 0
    short = json.loads(capsys.readouterr().out)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qturing.cli", *argv, "--fit-hi", "1000000000000"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rate_per_cycle"] == short["rate_per_cycle"]


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
    # every rule in README's "Command line" list, in the help of each command it binds
    alpha1 = "1 <= q <= 2**1020"
    out = "not a directory"
    for command, bounds in [
        ("pattern", ["1 to 1e6", "k >= 1", "head preparation angle, finite", alpha1,
                     "a finite float", out]),
        ("distance", ["2 to 1e6", "k >= 1", "perturbation, finite and >= 0", alpha1, out]),
        ("lyapunov", ["2 to 1e6", "perturbation, finite and >= 0", "first fit cycle, >= 0",
                      "last fit cycle, >= --fit-lo", alpha1, out]),
        ("oracle-check", ["1 to 1e6", "perturbation, finite (default", "finite and >= 0 (default",
                          alpha1, out]),
        ("stability", [f"1 to {oracle.MAX_CYCLE}", "(0, 0.1]", alpha1, out]),
    ]:
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        missing = [b for b in bounds if b not in text]
        assert not missing, (command, missing, text)


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


#: draws from the ``angles`` streams after which each streamed command's
#: output fails, about 9000 of its 10000 rows in: ``pattern`` draws one
#: angle per cycle of two rows, and ``distance``'s kernel one per twin per
#: cycle, which is two per cycle of two rows
_ABORT_DRAWS = {"pattern": 4500, "distance": 9000}


def _fail_after(monkeypatch, tmp_path, command="pattern"):
    """Make the ``angles`` streams raise after ``_ABORT_DRAWS[command]``
    draws, once the output of ``command`` has started streaming into its
    temporary file."""
    real = schedule.AngleSequence.angles
    count = [0]

    def flaky_stream(self):
        for item in real(self):
            count[0] += 1
            if count[0] > _ABORT_DRAWS[command]:
                (tmp,) = tmp_path.glob(f".{command}.csv.*.tmp")
                assert tmp.stat().st_size > 0
                raise _Abort
            yield item

    monkeypatch.setattr(schedule.AngleSequence, "angles", flaky_stream)


def _assert_failure_mid_write_leaves_nothing(tmp_path, monkeypatch, command):
    _fail_after(monkeypatch, tmp_path, command)
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
    _fail_after(monkeypatch, tmp_path)
    with pytest.raises(_Abort):
        run_cli("pattern", "--alpha1", "2/5", "--steps", "10000", "--out", str(out))
    assert sorted(tmp_path.iterdir()) == [out, manifest]
    assert (out.read_bytes(), manifest.read_bytes()) == before


@pytest.mark.parametrize("alpha1", ["2/5", "0.3"], ids=["exact", "float"])
@pytest.mark.parametrize("steps", [2000, 2001])
def test_pattern_draws_one_angle_per_rotation(tmp_path, monkeypatch, alpha1, steps):
    # ceil(steps / 2) angles: one per cycle and one for an odd step count's
    # tail rotation, none drawn ahead
    real = schedule.AngleSequence.angles
    draws = [0]

    def counted(self):
        for item in real(self):
            draws[0] += 1
            yield item

    monkeypatch.setattr(schedule.AngleSequence, "angles", counted)
    assert run_cli("pattern", "--alpha1", alpha1, "--steps", str(steps),
                   "--out", str(tmp_path / "pattern.csv")) == 0
    assert draws[0] == (steps + 1) // 2


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


@pytest.mark.parametrize("command", [
    ["pattern", "--alpha1", "2/5", "--steps", "10"],
    ["oracle-check", "--alpha1", "2/5", "--steps", "10"],
    ["stability", "--alpha1", "2/5", "--m", "20"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["dir", "..", "", ".", "/", "x/"],
                         ids=["existing-dir", "dotdot", "empty", "dot", "root", "trailing-slash"])
def test_out_that_names_no_file_is_usage_error(tmp_path, monkeypatch, capsys, command, out):
    # an existing directory fails at the move into place, the rest before any
    # work; either way the one error line names the path as given
    run = tmp_path / "run"
    (run / "dir").mkdir(parents=True)
    monkeypatch.chdir(run)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = _outcome(capsys, [*command, "--out", out])
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(out) in err and ".tmp" not in err and "PosixPath" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_manifest_move_names_the_manifest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "pattern.csv"
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(".manifest.json"):
            raise PermissionError(13, "Permission denied", str(src), None, str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert run_cli("pattern", "--alpha1", "2/5", "--steps", "10", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 13] Permission denied: {str(out) + '.manifest.json'!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_streamed_pattern_matches_joined_text(tmp_path):
    # more rows than one write chunk: the streamed bytes equal the rows joined at once
    out = tmp_path / "pat.csv"
    assert run_cli("pattern", "--alpha1", "0.3", "--steps", "9000", "--out", str(out)) == 0
    seq = analysis.AngleSequence(parse_alpha1("0.3", ScheduleMode.FIBONACCI, 0.0))
    recs = analysis.trajectory_bloch(seq, engine.init_state(0.0), 9000)
    lines = ["n,s1,s2,s3,purity"] + [
        f"{n},{s1:.17g},{s2:.17g},{s3:.17g},{purity:.17g}" for n, s1, s2, s3, purity in recs
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    assert out.read_bytes() == data
    manifest = json.loads((tmp_path / "pat.csv.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("csv_format", [cli._PATTERN_CSV, cli._DISTANCE_CSV],
                         ids=["pattern", "distance"])
def test_csv_chunks_equal_rows_formatted_one_at_a_time(csv_format):
    # two full chunks and a one-row remainder: each chunk boundary falls
    # between two rows, and every row reads as if formatted on its own
    header, fmt = csv_format
    width = fmt.count("%")
    values = [0.0, -0.0, 1.0, 2.0 / 3.0, -1e-300, 5e-324, 1.7976931348623157e308]
    rows = [(n, *(values[(n + k) % len(values)] * (n + 1) ** 0.5 for k in range(1, width)))
            for n in range(2 * cli._CHUNK_ROWS + 1)]
    chunks = list(cli._csv_chunks(header, fmt, rows))
    assert len(chunks) == 4  # the header, then 2 * _CHUNK_ROWS + 1 rows
    text = "\n".join([header, *(fmt % row for row in rows)]) + "\n"
    assert b"".join(chunks) == text.encode("utf-8")


def test_streamed_distance_matches_collected_trace(tmp_path):
    out = tmp_path / "dist.csv"
    assert run_cli("distance", "--alpha1", "2/5", "--steps", "9001",
                   "--subsystem", "network", "--out", str(out)) == 0
    rows = analysis.distance_trace(parse_alpha1("2/5", ScheduleMode.FIBONACCI, 0.001), 9001,
                                   "network")
    lines = ["n,d2,overlap"] + [f"{n},{d2:.17g},{ov:.17g}" for n, d2, ov in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_oracle_check_fails_on_nan_deviation(capsys, monkeypatch):
    nan = float("nan")
    for name in ("head_bloch", "tape_bloch"):
        monkeypatch.setattr(engine, name, lambda state: (nan, nan, nan))
    assert run_cli("oracle-check", "--alpha1", "0.3", "--steps", "10") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["first_failing_step"] == 1


def test_nan_in_report_is_error_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "lyapunov_estimate", lambda rows, window: float("nan"))
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


#: command lines whose exact schedules are read in order: each loop draws
#: from the ``angles`` and ``cumulatives`` streams, which advance their
#: residues by one addition per index, so no Fibonacci walk is needed
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
    point_reads = _count_calls(monkeypatch, schedule.AngleSequence, *_POINT_READS)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    assert walks == []
    assert point_reads[0] == 0


@pytest.mark.parametrize("alpha1", ["123/257", "1.2566370616"])
@pytest.mark.parametrize("steps", [2000, 2001])
def test_oracle_check_reads_the_schedule_four_times_per_cycle(monkeypatch, capsys, alpha1, steps):
    # four values per cycle, all drawn from streams: one angle for the
    # engine, and a (C+, minus cumulative) pair and one angle for the
    # oracle, plus a_1 once before the oracle's first cycle
    draws = _count_draws(monkeypatch, "angles", "cumulatives")
    point_reads = _count_calls(monkeypatch, schedule.AngleSequence, *_POINT_READS)
    assert run_cli("oracle-check", "--alpha1", alpha1, "--delta", "1e-3", "--steps", str(steps)) == 0
    cycles = (steps + 1) // 2
    assert draws["cumulatives"] == cycles
    assert 0 < draws["angles"] <= 2 * cycles + 1
    assert point_reads[0] == 0


@pytest.mark.parametrize("argv", [
    ["pattern", "--alpha1", "1.2566370616", "--steps", "2001", "--out", "p.csv"],
    ["distance", "--alpha1", "0.3", "--mode", "arithmetic", "--steps", "999", "--out", "d.csv"],
    ["lyapunov", "--alpha1", "2/5", "--steps", "61"],
    ["stability", "--alpha1", "2/5", "--m", "20"],
], ids=lambda argv: argv[0])
def test_commands_make_no_point_read_per_step(tmp_path, monkeypatch, argv):
    # oracle-check and the exact backend are covered above; stability's one
    # point read is stability_limits' angle a_{m+2}, outside every loop
    point_reads = _count_calls(monkeypatch, schedule.AngleSequence, *_POINT_READS)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    assert point_reads[0] == (1 if argv[0] == "stability" else 0)


def test_stability_walks_at_most_once_per_sequence(monkeypatch):
    # the orbit runs draw their angles from streams, which make no walk; the
    # one walk is stability_limits' point read of a_{m+2} on a fresh sequence
    walks = _count_walks(monkeypatch)
    assert run_cli("stability", "--alpha1", "2/5", "--m", "20") == 0
    assert walks == [20]  # (F_m, F_{m+1}) mod 2q, one addition short of F_{m+2}


# --- README and CI ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The ``qturing ...`` lines of README's ``sh`` code blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("qturing ")]


def ci_runtime_only_runs():
    """The one-line ``- run:`` steps of the workflow's ``runtime-only`` job."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    job = re.search(r"^  runtime-only:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S).group(1)
    return re.findall(r"^\s+- run: (.+)$", job, re.M)


def test_readme_commands_run_in_ci_exactly_as_written():
    commands = readme_commands()
    assert len(commands) >= 8
    runs = ci_runtime_only_runs()
    assert [c for c in commands if c not in runs] == []


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
