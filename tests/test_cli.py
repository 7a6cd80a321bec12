import csv
import io
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qspir.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------
# rates
# ---------------------------------------------------------

def test_rates_anchor_row(capsys):
    code, out, _ = run_cli(capsys, "rates", "--model", "xeutspir", "--N", "8",
                           "--X", "3", "--T", "2", "--E", "1", "--U", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    r = rows[0]
    assert r["regime"] == "1"
    assert (r["rate_num"], r["rate_den"]) == ("1", "2")


def test_rates_grid_and_all_models(capsys):
    code, out, _ = run_cli(capsys, "rates", "--model", "all", "--N", "4,5",
                           "--X", "0,1", "--T", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 * 2 * 2
    assert {r["model"] for r in rows} == {
        "xeutspir", "xbeutspir-static", "xbeutspir-dynamic"}


def test_rates_csv_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "rates", "--model", "all", "--N",
                             "2,3,4,5,6", "--X", "0,1", "--T", "0,1,2",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r\n" in a.read_bytes()  # RFC-4180 line endings


def test_infeasible_combination_row_shape(capsys):
    code, out, _ = run_cli(capsys, "rates", "--model", "xeutspir", "--N", "4",
                           "--X", "2", "--T", "2")
    assert code == 0
    r = next(csv.DictReader(io.StringIO(out)))
    assert r["regime"] == "0"  # infeasible combinations keep the row shape
    assert (r["rate_num"], r["rate_den"]) == ("0", "1")
    assert (r["L1"], r["L2"]) == ("0", "0")


# ---------------------------------------------------------
# simulate
# ---------------------------------------------------------

def test_simulate_reports_measured_rate(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "xeutspir", "--N",
                           "8", "--X", "3", "--T", "2", "--E", "1", "--U",
                           "1", "--trials", "10", "--seed", "5")
    assert code == 0
    r = next(csv.DictReader(io.StringIO(out)))
    assert r["trials"] == "10" and r["failures"] == "0"
    assert (r["measured_rate_num"], r["measured_rate_den"]) == ("1", "2")


def test_simulate_byzantine_histogram(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "xbeutspir-static",
                           "--N", "10", "--X", "2", "--T", "2", "--U", "1",
                           "--B", "1", "--trials", "8", "--seed", "3",
                           "--strategy", "storage-leak")
    assert code == 0
    r = next(csv.DictReader(io.StringIO(out)))
    assert r["failures"] == "0"
    assert r["accepted_byzantine_sets_histogram"]  # non-empty label:count list


def test_simulate_over_threat_placement_fails(capsys):
    # two Byzantine servers against a B=1 design: decode failures expected
    code, out, _ = run_cli(capsys, "simulate", "--model", "xbeutspir-static",
                           "--N", "10", "--X", "2", "--T", "2", "--U", "0",
                           "--B", "1", "--trials", "4", "--seed", "1",
                           "--strategy", "additive-random",
                           "--byzantine", "0,5")
    assert code == 1
    r = next(csv.DictReader(io.StringIO(out)))
    assert int(r["failures"]) > 0


def test_simulate_workers_match_serial(tmp_path, capsys):
    outs = []
    for workers in ("1", "3"):
        path = tmp_path / f"w{workers}.csv"
        code, _, _ = run_cli(capsys, "simulate", "--model", "xeutspir", "--N",
                             "6", "--X", "1", "--T", "1", "--U", "1",
                             "--trials", "12", "--seed", "11", "--workers",
                             workers, "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_explicit_sets_and_determinism(capsys):
    args = ("simulate", "--model", "xbeutspir-dynamic", "--N", "7", "--X",
            "1", "--T", "1", "--E", "1", "--B", "1", "--q", "11", "--trials",
            "6", "--seed", "9", "--strategy", "query-relay", "--eaves-up",
            "0", "--eaves-down", "6", "--byzantine", "6")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------
# audit
# ---------------------------------------------------------

def test_audit_default_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "audit", "--default-suite")
    assert code == 0
    assert out.count("pass") >= 6


def test_audit_break_flag_fails_only_that_lemma(capsys):
    code, out, _ = run_cli(capsys, "audit", "--default-suite",
                           "--break-query")
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith("query-privacy")]
    assert lines and "fail" in lines[0]
    assert out.count("fail") == 1


def test_audit_csv_rows_have_no_wall_time(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "audit", "--default-suite", "--out",
                             str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.DictReader(io.StringIO(a.read_text())))
    assert [r["lemma"] for r in rows] == [
        "storage-security", "query-privacy", "masking-vs-byzantine",
        "masking-vs-user", "symmetric-privacy", "eavesdropper"]
    assert all(r["status"] == "pass" for r in rows)


def test_audit_single_config_runs_each_lemma(capsys):
    code, out, _ = run_cli(capsys, "audit", "--model", "xeutspir", "--N", "3",
                           "--X", "0", "--T", "1", "--E", "1", "--U", "1",
                           "--q", "5")
    assert code == 0
    assert "eavesdropper" in out


def test_audit_vacuous_lemmas_print_na(capsys):
    """With no communicating, Byzantine or tapping servers the coalition
    views are empty: those lemmas print n/a, not a pass over zero states.
    Symmetric privacy is over the enumeration budget at this shape, so the
    run exits 2."""
    code, out, _ = run_cli(capsys, "audit", "--model", "xeutspir", "--N", "3",
                           "--X", "0", "--T", "1", "--E", "0", "--U", "0",
                           "--q", "5")
    assert code == 2
    status = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    for lemma in ("storage-security", "masking-vs-byzantine",
                  "masking-vs-user", "eavesdropper"):
        assert status[lemma] == "n/a", lemma
    assert status["query-privacy"] == "pass"
    assert status["symmetric-privacy"] == "budget-exceeded"


def test_audit_reports_inapplicable_lemma_and_goes_on(tmp_path, capsys):
    """masking-vs-user does not apply to a classical Byzantine plan, and
    with T = E = 0 query privacy and the eavesdropper lemma have empty
    views; the audit says n/a there and still runs the lemmas after them."""
    out_path = tmp_path / "audit.csv"
    code, _, _ = run_cli(capsys, "audit", "--model", "xbeutspir-static",
                         "--N", "6", "--X", "1", "--T", "0", "--U", "1",
                         "--B", "1", "--q", "7", "--out", str(out_path))
    rows = csv.DictReader(io.StringIO(out_path.read_text()))
    status = {r["lemma"]: r["status"] for r in rows}
    assert code == 0
    assert status == {
        "storage-security": "pass", "query-privacy": "n/a",
        "masking-vs-byzantine": "pass", "masking-vs-user": "n/a",
        "symmetric-privacy": "pass", "eavesdropper": "n/a"}


def test_audit_budget_exceeded_exits_2_unless_a_lemma_failed(
        tmp_path, monkeypatch, capsys):
    """A lemma left unchecked over the budget makes the run exit 2, with a
    message; a failed lemma still makes it exit 1. The CSV rows are the
    same either way."""
    monkeypatch.setenv("QSPIR_BUDGET", "2000")
    out_path = tmp_path / "audit.csv"
    code, out, err = run_cli(capsys, "audit", "--default-suite", "--out",
                             str(out_path))
    assert code == 2
    assert "budget" in err
    status = {r["lemma"]: r["status"]
              for r in csv.DictReader(io.StringIO(out_path.read_text()))}
    assert status["storage-security"] == "budget-exceeded"
    assert status["query-privacy"] == "pass"
    code, out, _ = run_cli(capsys, "audit", "--default-suite",
                           "--break-query")
    assert code == 1
    assert "budget-exceeded" in out


def test_audit_query_privacy_at_paper_scale_fits_in_3_gb():
    """N = 10, q = 13: query privacy enumerates 9.65 M states. Streaming
    each coalition's view through the block test keeps it far below the
    3 GB address-space limit that stitching every server's rows exceeded."""
    limit = 3_000_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "qspir.cli", "audit", "--model",
         "xbeutspir-static", "--N", "10", "--X", "1", "--T", "1", "--U", "2",
         "--B", "1", "--q", "13"],
        capture_output=True, text=True, preexec_fn=cap, timeout=300)
    status = {line.split()[0]: line.split()[1]
              for line in proc.stdout.splitlines()}
    assert status["query-privacy"] == "pass", proc.stderr
    assert status["symmetric-privacy"] == "budget-exceeded"
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------
# config file, exit codes, selftest
# ---------------------------------------------------------

def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = xeutspir\nN = 8\nX = 3\nT = 2\nE = 1\nU = 1\n")
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg))
    r = next(csv.DictReader(io.StringIO(out)))
    assert (code, r["N"], r["rate_num"]) == (0, "8", "1")
    # explicit flag beats the file
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--X", "0")
    r = next(csv.DictReader(io.StringIO(out)))
    assert r["X"] == "0"


def test_config_file_unknown_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("NN = 8\n")
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "rates", "--N", "four")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_invalid_scheme_reports_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "xeutspir", "--N",
                           "4", "--X", "1", "--T", "1", "--q", "6",
                           "--trials", "1")
    assert code == 2
    assert err.strip()


def test_field_too_small_is_a_config_error_not_a_trial_failure(tmp_path,
                                                                capsys):
    out = tmp_path / "sim.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--model", "xeutspir",
                                "--N", "4", "--X", "1", "--T", "1", "--q", "3",
                                "--trials", "3", "--out", str(out))
    assert code == 2
    assert "distinct points" in err
    assert not out.exists() and stdout == ""


def test_negative_trial_count_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--trials", "-3",
                                "--out", str(out))
    assert code == 2
    assert "--trials" in err
    assert not out.exists() and stdout == ""


def test_too_many_unresponsive_servers_is_a_config_error(tmp_path, capsys):
    # U = 0 reserves no erasure slot, so three unresponsive servers cannot
    # be placed; that is the config's fault, not a failed round
    out = tmp_path / "sim.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--model",
                                "xbeutspir-static", "--N", "10", "--B", "1",
                                "--unresponsive", "1,2,3", "--trials", "2",
                                "--out", str(out))
    assert code == 2
    assert "--unresponsive" in err
    assert not out.exists() and stdout == ""


_COUNT_FLAGS = {"--N": (3, 12), "--K": (1, 3), "--X": (0, 2), "--T": (0, 2),
                "--E": (0, 2), "--U": (0, 2), "--B": (0, 2)}


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from(["xeutspir", "xbeutspir-static",
                              "xbeutspir-dynamic"]),
       counts=st.fixed_dictionaries(
           {flag: st.integers(lo, hi)
            for flag, (lo, hi) in _COUNT_FLAGS.items()}),
       # one count, when drawn, takes any value from -1 to 12; the others
       # stay in ranges where feasible configs are common
       wild=st.one_of(st.none(), st.tuples(st.sampled_from(list(_COUNT_FLAGS)),
                                           st.integers(-1, 12))),
       trials=st.one_of(st.integers(0, 3), st.integers(-2, 3)),
       q=st.one_of(st.sampled_from([13, 257]),
                   st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 15])),
       seed=st.integers(0, 3))
def test_simulate_cli_contract(capsys, model, counts, wild, trials, q, seed):
    """Every simulate input with random placements either runs, with a
    CSV that reports the requested trial count, or is refused with exit 2
    and a message; never exit 1 and never a traceback."""
    if wild is not None:
        counts = {**counts, wild[0]: wild[1]}
    argv = ["simulate", "--model", model, "--trials", str(trials),
            "--q", str(q), "--seed", str(seed)]
    for flag, value in counts.items():
        argv += [flag, str(value)]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), (argv, out, err)
    assert "Traceback" not in out + err
    if code == 0:
        assert trials >= 0
        assert next(csv.DictReader(io.StringIO(out)))["trials"] == str(trials)
    else:
        assert err.strip() and out == ""


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qspir.cli", "rates", "--model", "xeutspir",
         "--N", "8", "--X", "3", "--T", "2", "--E", "1", "--U", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1,2" in proc.stdout.replace("\r", "")
