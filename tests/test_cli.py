"""Command-line behavior: exit codes, formats, determinism, round-trips."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import cli, framework, options, verifier
from collatzlab.cli import main
from test_verifier import no_width_check, sweep_scalar

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === verify ===

def test_verify_small_range_json(capsys):
    code, out, _ = run_cli(["verify", "--max", "50", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["pairs_checked"] == 2500
    assert doc["violations_total"] == 0
    assert doc["elapsed_ms"] is None


def test_verify_rejects_empty_range(capsys):
    code, _, err = run_cli(["verify", "--max", "0"], capsys)
    assert code == 2
    assert "--max" in err


def test_verify_cross_mode(capsys):
    code, out, _ = run_cli(["verify", "--max", "100", "--mode", "cross",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["violations_total"] == 0


def test_verify_desk_scale_gate(capsys):
    # verify reads whole cell regions and takes any side; conditions and
    # search-lambda walk every pair and keep the gate
    code, out, _ = run_cli(["verify", "--max", "20000", "--format", "json"],
                           capsys)
    assert code == 0 and json.loads(out)["pairs_checked"] == 20000**2
    for argv in (["conditions", "--lambda", "0", "--A", "1/2"],
                 ["search-lambda", "--A", "1/2"]):
        code, _, err = run_cli(argv + ["--max", "20000"], capsys)
        assert code == 2 and "--allow-large" in err, argv


def test_verify_desk_scale_gate_reads_the_side(capsys):
    # 100 rows far out: the guard counts the side, not the magnitude of --max
    lo = 10**15
    code, out, _ = run_cli(["verify", "--min", str(lo), "--max", str(lo + 99),
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["pairs_checked"] == 10**4


@pytest.mark.parametrize("mode", ["direct", "bounds", "simplified", "cross",
                                  "mbound"])
def test_every_verify_mode_passes_the_desk_scale_gate_unasked(mode, capsys):
    # each mode costs O(cells x period) plus the rows it walks, whatever the
    # side; --allow-large stays accepted and changes no byte
    argv = ["verify", "--mode", mode, "--M", "1", "--max", "20000",
            "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == (1 if mode == "mbound" else 0)
    doc = json.loads(out)
    assert doc["pairs_checked"] == 20000**2
    assert doc["violations_shown"] == (100 if mode == "mbound" else 0)
    assert run_cli(argv + ["--allow-large"], capsys) == (code, out, "")


def test_verify_mbound_violations_exit_one(capsys):
    code, out, _ = run_cli(["verify", "--max", "30", "--mode", "mbound",
                            "--M", "1", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["violations_total"] > 0
    assert doc["violations_shown"] <= 100


def test_verify_violations_cap_bounds_what_is_recorded(capsys):
    code, out, _ = run_cli(["verify", "--max", "300", "--mode", "mbound",
                            "--M", "1", "--violations-cap", "20000",
                            "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["violations_total"] == 67050
    assert doc["violations_shown"] == len(doc["violations"]) == 20000


def test_verify_engines_agree_beyond_int64(capsys, monkeypatch):
    # the interval engine against the per-pair reference substituted for it
    args = ["verify", "--min", "1000000000", "--max", "1000000040",
            "--mode", "mbound", "--M", "1", "--allow-large", "--format",
            "json"]
    docs = {}
    for engine in ("vector", "scalar"):
        if engine == "scalar":
            monkeypatch.setattr(verifier, "_sweep_vector", sweep_scalar)
        for jobs in ("1", "2"):
            code, out, _ = run_cli(args + ["--jobs", jobs], capsys)
            assert code == 1
            docs[engine, jobs] = json.loads(out)
    assert docs["vector", "1"]["violations_total"] > 0
    assert docs["vector", "1"]["engine"] == "vector"
    assert all(doc == docs["scalar", "1"] for doc in docs.values())


# Runs the command line with the per-pair reference in place of the interval
# engine.
ORACLE_CLI = (f"import sys; sys.path.insert(0, {str(TESTS)!r}); "
              "from collatzlab import cli, verifier; "
              "from test_verifier import sweep_scalar; "
              "verifier._sweep_vector = sweep_scalar; "
              "sys.exit(cli.main(sys.argv[1:]))")


VERIFY_MODES = ("direct", "bounds", "simplified", "cross", "mbound")


@pytest.mark.parametrize("engine", ["auto", "scalar"])
def test_verify_overflow_policy_beyond_127_bits(engine, capsys):
    # auto is the sweep as shipped, scalar the per-pair reference with its
    # width checks (framework.check_width) made the identity: no verify
    # mode has a width check, so each reports past 127 bits, and the
    # reference writes the same bytes
    child = ["-m", "collatzlab.cli"]
    if engine == "scalar":
        child = ["-c", "from collatzlab import framework; "
                 "framework.check_width = lambda value, what='': value; "
                 + ORACLE_CLI]
    lo = 2**126
    for mode in VERIFY_MODES:
        args = ["verify", "--min", str(lo), "--max", str(lo + 3),
                "--allow-large", "--mode", mode, "--format", "json"]
        code, out, err = run_cli(args + ["--jobs", "1"], capsys)
        assert (code, err) == (0, ""), mode
        doc = json.loads(out)
        assert doc["pairs_checked"] == 16 and doc["violations_total"] == 0
        if engine == "scalar":
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verifier, "_sweep_vector", sweep_scalar)
                patch.setattr(framework, "check_width", no_width_check)
                assert run_cli(args + ["--jobs", "1"], capsys) == (0, out, "")
        # in a child process with a deadline, so that a sweep that never
        # returns fails the test instead of hanging the suite
        proc = subprocess.run([sys.executable, *child, *args, "--jobs", "2"],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), mode


@pytest.mark.parametrize("digits", [4300, 640])
def test_verify_refuses_a_max_the_writers_cannot_print(digits, capsys):
    # report values grow like max^2, and str() prints at most
    # sys.get_int_max_str_digits() digits: verify refuses a --max whose
    # values could pass that (exit 2, no traceback) and writes every
    # format at the largest --max it accepts; 0 means no limit. 4300 is
    # Python's default limit
    huge = [str(10**3000), str(10**3000 + 5)]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(digits)
        top = 10 ** ((digits - 2) // 2) - 1  # the largest --max accepted
        for mode in VERIFY_MODES:
            if digits == 4300:
                code, out, err = run_cli(["verify", "--mode", mode, "--min",
                                          huge[0], "--max", huge[1]], capsys)
                assert (code, out) == (2, ""), mode
                assert err.startswith("error: --max has 3001 digits"), mode
            code, out, err = run_cli(["verify", "--mode", mode, "--max",
                                      str(top + 1)], capsys)
            assert (code, out) == (2, ""), mode
            assert err.startswith(f"error: --max has {len(str(top)) + 1} "
                                  "digits"), mode
            for fmt in ("json", "csv", "text"):
                code, out, err = run_cli(
                    ["verify", "--mode", mode, "--min", str(top - 11),
                     "--max", str(top), "--format", fmt], capsys)
                assert (code, err) == (0, ""), (mode, fmt)
                if fmt == "json":
                    assert json.loads(out)["pairs_checked"] == 144
                elif fmt == "csv":
                    assert "\ntally," in out, mode
                else:
                    assert str(top) in out, mode
        # without a limit the same argv reports
        sys.set_int_max_str_digits(0)
        code, _, err = run_cli(["verify", "--min", huge[0], "--max", huge[1]],
                               capsys)
        assert (code, err) == (0, "")
    finally:
        sys.set_int_max_str_digits(saved)


def test_verify_has_no_engine_option(capsys):
    # every verify mode has one production path
    with pytest.raises(SystemExit) as exit_help:
        main(["verify", "--help"])
    assert exit_help.value.code == 0
    assert "--engine" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_usage:
        main(["verify", "--max", "5", "--engine", "scalar"])
    assert exit_usage.value.code == 2


def test_verify_case_filter_and_csv(capsys):
    code, out, _ = run_cli(["verify", "--max", "60", "--case", "even-even",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("record,")
    assert any(line.startswith("tally,") and ",even-even," in line
               for line in lines[1:])
    assert not any(",odd-odd" in line for line in lines)


def test_verify_unknown_case_is_usage_error(capsys):
    code, _, err = run_cli(["verify", "--max", "10", "--case", "strange"],
                           capsys)
    assert code == 2
    assert "strange" in err


def test_json_is_deterministic_across_jobs(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--max", "200", "--mode", "bounds",
                 "--format", "json", "--jobs", "1", "--output", str(out1)]) == 0
    assert main(["verify", "--max", "200", "--mode", "bounds",
                 "--format", "json", "--jobs", "2", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_round_trips_byte_identically(capsys):
    _, out, _ = run_cli(["verify", "--max", "80", "--format", "json"], capsys)
    doc = json.loads(out)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_timings_flag_restores_elapsed(capsys):
    _, out, _ = run_cli(["verify", "--max", "20", "--format", "json",
                         "--timings"], capsys)
    assert isinstance(json.loads(out)["elapsed_ms"], int)


# === conditions ===

def test_conditions_flat_lambda_report(capsys):
    code, out, _ = run_cli([
        "conditions", "--lambda", "0", "--A", "1/2", "--B", "2", "--M", "2",
        "--theorem", "3", "--condition", "5", "--max", "99",
        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    cells = {c["cell"]: c for c in doc["cells"]}
    assert cells["odd-odd:x>=y"]["fails"] == 0
    assert cells["odd-odd:x<y"]["example_fail"] == [3, 5]
    assert cells["odd-odd:x>=y"]["b_sums"] == ["2", "3", "4", "6"]
    assert doc["params"]["A"] == "1/2"


def test_conditions_rejects_a_out_of_range(capsys):
    code, _, err = run_cli(["conditions", "--A", "2/1", "--max", "20"], capsys)
    assert code == 2
    assert "A must lie in (0, 1)" in err


def test_conditions_rejects_malformed_rational(capsys):
    code, _, err = run_cli(["conditions", "--A", "0.5", "--max", "20"], capsys)
    assert code == 2
    assert "exact rational" in err


def test_conditions_lambda_table_spec(capsys):
    code, out, _ = run_cli([
        "conditions", "--lambda", "even-even:1/2,*:0", "--A", "1/2",
        "--max", "30", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["lambda"].startswith("1-1:0")


def test_conditions_lambda_table_missing_cases(capsys):
    code, _, err = run_cli([
        "conditions", "--lambda", "even-even:1/2", "--A", "1/2",
        "--max", "30"], capsys)
    assert code == 2
    assert "unset" in err


def test_conditions_exit_zero_despite_failures(capsys):
    # coverage gaps are findings, not errors
    code, out, _ = run_cli(["conditions", "--A", "1/2", "--max", "30",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["fails_total"] > 0


# === orbit ===

def test_orbit_seed_one_under_plain_map(capsys):
    code, out, _ = run_cli(["orbit", "--seed", "1", "--map", "C",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 3 and doc["peak"] == 4


def test_orbit_seed_three_accelerated(capsys):
    code, out, _ = run_cli(["orbit", "--seed", "3", "--map", "T", "--path",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 5
    assert doc["path"] == [3, 5, 8, 4, 2, 1]


def test_orbit_cap_exceeded_exits_one(capsys):
    code, out, _ = run_cli(["orbit", "--seed", "27", "--map", "C",
                            "--cap", "10", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["steps"] is None and doc["reached_one"] is False


def test_orbit_overflow_exits_three(capsys):
    huge = str(2**127 - 1)
    code, _, err = run_cli(["orbit", "--seed", huge, "--map", "T"], capsys)
    assert code == 3
    assert "overflow" in err


def test_orbit_big_integers_encode_as_strings(capsys):
    seed = 2**60 + 1  # odd, peak exceeds 53-bit magnitude
    code, out, _ = run_cli(["orbit", "--seed", str(seed), "--map", "T",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["seed"], str)
    assert isinstance(doc["peak"], str)
    assert int(doc["seed"]) == seed


# === search-lambda ===

def test_search_lambda_partial_coverage(capsys):
    code, out, _ = run_cli(["search-lambda", "--q", "1", "--A", "1/2",
                            "--max", "99", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["covered"] < doc["total"]
    assert "odd-odd" in doc["irreducible_cells"]


def test_search_lambda_full_coverage_on_filtered_case(capsys):
    code, out, _ = run_cli(["search-lambda", "--q", "0", "--A", "1/2",
                            "--case", "even-even", "--max", "200",
                            "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["coverage"] == "1"


def test_search_lambda_requires_a_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search-lambda", "--max", "50"])
    assert exc.value.code == 2


def test_search_lambda_blank_a_grid_is_usage_error(capsys):
    code, _, err = run_cli(["search-lambda", "--A", ",", "--max", "50"], capsys)
    assert code == 2
    assert "A grid" in err


# === decay ===

def test_decay_sweep_cli(capsys):
    code, out, _ = run_cli(["decay", "--seed-max", "400", "--A", "1/2",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["violations_total"] == 0
    cells = {c["case"] for c in doc["per_case"]}
    assert {"decay-steps", "premise-held", "premise-failed"} <= cells


@pytest.mark.parametrize("option", [["--theorem", "2"], ["--condition", "3"],
                                    ["--B", "7"], ["--M", "1/9"],
                                    ["--corrected-c4"]])
def test_decay_rejects_condition_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--seed-max", "30", "--A", "1/2"] + option)
    assert exc.value.code == 2


def test_decay_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["decay", "--seed-max", "300", "--A", "1/2", "--format", "json"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_decay_rejects_cap_below_one(cap, capsys):
    # a cap below 1 would walk no step and pass vacuously
    code, out, err = run_cli(["decay", "--seed-max", "5", "--A", "1/2",
                              "--cap", cap, "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert "--cap" in err


# === one writer: every command's bytes, options and stderr ===

VERIFY_MODES = ("direct", "simplified", "cross", "bounds", "mbound")

# each request runs in all three formats; its digest covers exit codes,
# stdout and stderr, with the text reports' elapsed line masked
CHARACTERIZED = [
    *(["verify", "--max", "30", "--mode", mode] + extra
      for mode in VERIFY_MODES
      for extra in ([], ["--M", "1", "--violations-cap", "7"],
                    ["--case", "odd-odd"])),
    ["conditions", "--lambda", "even-even:1/2,*:0", "--A", "1/2",
     "--max", "20"],
    ["conditions", "--A", "1/2", "--theorem", "2", "--condition", "4",
     "--corrected-c4", "--max", "20"],
    ["conditions", "--lambda", "1", "--A", "1/2", "--m-lambda",
     "--max", "20"],
    ["search-lambda", "--q", "2", "--A", "1/2", "--max", "12"],
    # exhausts the budget, so stderr carries the note
    ["search-lambda", "--q", "3", "--A", "1/4,1/2", "--max", "12"],
    ["decay", "--seed-max", "200", "--A", "1/2"],
    ["decay", "--seed-max", "100", "--lambda", "1", "--A", "1/2",
     "--full-orbits", "--no-telescoped"],
    ["orbit", "--seed", "27", "--path"],
    # cut short: exit 1
    ["orbit", "--seed", "27", "--map", "C", "--cap", "10"],
]

CHARACTER_DIGESTS = {
    'verify --max 30 --mode direct': '15cccb7f4d1d1bc6',
    'verify --max 30 --mode direct --M 1 --violations-cap 7': '15cccb7f4d1d1bc6',
    'verify --max 30 --mode direct --case odd-odd': '28bb763afb1909b1',
    'verify --max 30 --mode simplified': '68da46ff8d1b7b33',
    'verify --max 30 --mode simplified --M 1 --violations-cap 7': '68da46ff8d1b7b33',
    'verify --max 30 --mode simplified --case odd-odd': '9d3b0c12627d47fc',
    'verify --max 30 --mode cross': 'd728eb88dbd1d506',
    'verify --max 30 --mode cross --M 1 --violations-cap 7': 'd728eb88dbd1d506',
    'verify --max 30 --mode cross --case odd-odd': 'd939b785f64979d0',
    'verify --max 30 --mode bounds': '5bcd00e488dc5b05',
    'verify --max 30 --mode bounds --M 1 --violations-cap 7': '5bcd00e488dc5b05',
    'verify --max 30 --mode bounds --case odd-odd': 'b2778746e9fa89e2',
    'verify --max 30 --mode mbound': '530910d9963a3d18',
    'verify --max 30 --mode mbound --M 1 --violations-cap 7': '433d46db120028e4',
    'verify --max 30 --mode mbound --case odd-odd': '4121768489c16dc9',
    'conditions --lambda even-even:1/2,*:0 --A 1/2 --max 20': '8bfc53fc79f3d3b1',
    'conditions --A 1/2 --theorem 2 --condition 4 --corrected-c4 --max 20': '5ffae22baf288c32',
    'conditions --lambda 1 --A 1/2 --m-lambda --max 20': '2c63bc3c26dffcde',
    'search-lambda --q 2 --A 1/2 --max 12': 'ec2322b54cad26b0',
    'search-lambda --q 3 --A 1/4,1/2 --max 12': '930fc1f5fa2d48db',
    'decay --seed-max 200 --A 1/2': '9a55c3759b87ebeb',
    'decay --seed-max 100 --lambda 1 --A 1/2 --full-orbits --no-telescoped': '619aa977f65d01da',
    'orbit --seed 27 --path': 'cb47d92d398d6bf3',
    'orbit --seed 27 --map C --cap 10': '020185070a19d883',
}


def _masked(text: str) -> str:
    return re.sub(r"elapsed: \d+ ms", "elapsed: N ms", text)


def _characterize(argv) -> str:
    """First 16 hex digits of the sha256 of the exit code, stdout and stderr
    of `argv` in the text, JSON and CSV formats, in that order."""
    digest = hashlib.sha256()
    for fmt in ("text", "json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", fmt])
        digest.update(
            f"{code}\0{_masked(out.getvalue())}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("argv", CHARACTERIZED, ids=" ".join)
def test_reports_keep_their_bytes(argv, monkeypatch):
    monkeypatch.delenv("COLLATZLAB_OUTPUT", raising=False)
    assert _characterize(argv) == CHARACTER_DIGESTS[" ".join(argv)]


@pytest.mark.parametrize("mode", VERIFY_MODES)
def test_verify_rejects_a_malformed_m_in_every_mode(mode, capsys):
    # only mbound reads --M, but a malformed or negative number is a usage
    # error in all
    for m, message in ((["--M", "abc"], "not an exact rational"),
                       (["--M", "-1"], "--M must be >= 0, got -1"),
                       (["--M=-1/2"], "--M must be >= 0, got -1/2")):
        code, out, err = run_cli(["verify", "--max", "5", "--mode", mode]
                                 + m, capsys)
        assert (code, out) == (2, "")
        assert message in err


# command lines that a check in cli refuses as a usage error, each with
# its message
USAGE_ERRORS = [
    (["conditions", "--A", "1/2", "--max", "5", "--lambda", spec], message)
    for spec, message in (
        ("1/0", "bad lambda spec: zero denominator"),
        ("even-even:1/2,odd", "bad lambda entry 'odd'"),
        ("even-even:x,*:0", "bad lambda value in 'even-even:x'"),
        ("*:0,*:1", "duplicate '*' entry"),
        ("even-two:1,*:0", "unknown parity case 'even-two'"),
        ("1-1:0,1-1:1,*:0", "duplicate case '1-1'"),
        ("*:2", "lambda[1-1] = 2 is outside [0, 1]"))
] + [
    (["verify", "--min", "0", "--max", "5"], "need 1 <= --min <= --max"),
    (["verify", "--min", "6", "--max", "5"], "need 1 <= --min <= --max"),
    (["verify", "--max", "5", "--M", "1/0"], "zero denominator"),
    (["orbit", "--seed", "0"], "--seed must be >= 1, got 0"),
    (["orbit", "--seed", "5", "--cap", "0"], "--cap must be >= 1, got 0"),
    (["decay", "--seed-min", "5", "--seed-max", "4", "--A", "1/2"],
     "need 1 <= --seed-min <= --seed-max"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv))
    for argv, message in USAGE_ERRORS])
def test_usage_errors_exit_2_with_their_message(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


ONE_PER_COMMAND = [
    ["verify", "--max", "30", "--mode", "mbound", "--M", "1"],
    ["conditions", "--A", "1/2", "--max", "20"],
    ["orbit", "--seed", "27", "--path"],
    ["search-lambda", "--q", "3", "--A", "1/2", "--max", "12"],
    ["decay", "--seed-max", "200", "--A", "1/2"],
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda a: a[0])
def test_output_file_holds_the_stdout_bytes(argv, fmt, tmp_path, capsys):
    argv = argv + ["--format", fmt]
    code, out, err = run_cli(argv, capsys)
    target = tmp_path / "report"
    assert run_cli(argv + ["--output", str(target)], capsys) == (code, "", err)
    # text reports end with their elapsed time, which differs between runs
    assert _masked(target.read_bytes().decode()) == _masked(out)


@pytest.mark.parametrize("option", ["--timings", "--progress"])
def test_orbit_rejects_options_it_would_ignore(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--seed", "27", option])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_verify_takes_no_progress(capsys):
    # a region sweep ends in milliseconds at any side, so verify has no
    # progress to report
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "5", "--progress"])
    assert exc.value.code == 2
    assert "--progress" in capsys.readouterr().err


def test_progress_goes_to_stderr_only(capsys):
    argv = ["decay", "--seed-max", "20000", "--A", "1/2", "--format", "json"]
    _, plain, _ = run_cli(argv, capsys)
    code, out, err = run_cli(argv + ["--progress"], capsys)
    assert code == 0
    assert out == plain
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(re.fullmatch(r"  \.\.\.\d+ checks", line) for line in lines)


# === environment defaults ===

def test_output_env_var(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    monkeypatch.setenv("COLLATZLAB_OUTPUT", str(target))
    code, out, _ = run_cli(["verify", "--max", "20", "--format", "json"],
                           capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pairs_checked"] == 400


def test_jobs_env_var(monkeypatch, capsys):
    # verify reports are byte-identical whatever --jobs says, and
    # COLLATZLAB_JOBS, which nothing reads, changes nothing either
    for mode, want in (("direct", 0), ("mbound", 1)):
        for fmt in ("json", "csv"):
            argv = ["verify", "--max", "60", "--mode", mode, "--M", "1",
                    "--violations-cap", "700", "--format", fmt]
            one = run_cli(argv + ["--jobs", "1"], capsys)
            assert one[0] == want and one[1]
            assert run_cli(argv + ["--jobs", "2"], capsys) == one
            monkeypatch.setenv("COLLATZLAB_JOBS", "2")
            assert run_cli(argv, capsys) == one
            monkeypatch.delenv("COLLATZLAB_JOBS")


def test_environment_is_read_on_every_call(tmp_path, monkeypatch, capsys):
    # argv read off the option table build no parser, and one parser serves
    # every declined argv in the process; each call reads the environment
    # defaults afresh and explicit options still win
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()
    args = ["verify", "--max", "20", "--format", "json"]
    try:
        for name in ("a.json", "b.json"):
            monkeypatch.setenv("COLLATZLAB_OUTPUT", str(tmp_path / name))
            assert main(args) == 0
        assert main(args + ["--output", str(tmp_path / "c.json")]) == 0
        monkeypatch.delenv("COLLATZLAB_OUTPUT")
        assert main(args) == 0
        assert builds == []
        # "--max=20" is argparse's form alone: declined, parsed by argparse
        declined = ["verify", "--max=20", "--format", "json", "--output",
                    str(tmp_path / "d.json")]
        for _ in range(2):
            assert main(declined) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    for name in ("a.json", "b.json", "c.json"):
        assert json.loads((tmp_path / name).read_text())["pairs_checked"] == 400
    assert json.loads(capsys.readouterr().out)["pairs_checked"] == 400


# help, usage errors (no, an unknown or a half subcommand, an unknown option
# or argument, an option after "--", an option orbit does not take, a value
# its choices reject, an option with no value), argparse's prefix and "="
# forms, and values argparse reads its own way (ACCEPTED_USAGE_ARGV)
ACCEPTED_USAGE_ARGV = (
    ["verify", "--ma", "5", "--form", "json"], ["verify", "--max=5"],
    ["verify", "--max", "5", "--max", "6"],
    ["verify", "--max", "5", "--case", "odd-odd", "--case", "1-1"],
    ["verify", "--min", "-3", "--max", "5"], ["verify", "--M", "", "--max", "5"],
    ["verify", "--max", " 7"], ["verify", "--max", "1_000"],
)
USAGE_ARGV = (
    [], ["-h"], ["frob"], ["verify"], ["verify", "--max", "5", "--bogus"],
    ["verify", "--max", "5", "extra"], ["verify", "-h"], ["verify", "--he"],
    ["verify", "--max", "5", "--", "x"], ["orbit", "--seed", "27", "--timings"],
    ["orbit", "--timings", "--seed", "27"],
    ["verify", "--max", "5", "--format", "JSON"], ["verify", "--max"],
) + ACCEPTED_USAGE_ARGV


def _parsed(parse, argv):
    """vars() of parse(argv)'s namespace, or else its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


def _pooled_argv() -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [list(req.argv) for name in workloads.WORKLOADS
            for stratum in workloads.pool(name) for req in stratum]


def test_subcommand_parse_matches_the_full_parser():
    # main's argparse path reads every pooled benchmark request and every
    # usage argv as a fresh full parser reads it
    pooled = _pooled_argv()
    assert len(pooled) > 1000
    exits = []
    for argv in pooled + list(USAGE_ARGV):
        want = _parsed(lambda a: cli.build_parser().parse_args(a), argv)
        assert _parsed(cli._parse_args, argv) == want, argv
        if isinstance(want, tuple):
            exits.append(argv)
    # all but the accepted forms exit
    assert exits == [argv for argv in USAGE_ARGV
                     if argv not in ACCEPTED_USAGE_ARGV]


def _decodes_as_the_full_parser(parser, argv) -> bool:
    """Whether the table reader takes argv, which it may only do where it
    reads argv as the full parser does."""
    got = options.decode(argv, cli.COMMANDS)
    if got is not None:
        assert vars(got) == _parsed(parser.parse_args, argv), argv
    return got is not None


def test_table_reader_reads_every_pooled_request_as_the_full_parser():
    # the benchmark measures the table reader: it takes every pooled
    # request, each as argparse reads it; it declines every argv argparse
    # reports on or reads its own way, except options given twice and
    # values that int() reads past their text
    parser = cli.build_parser()
    pooled = _pooled_argv()
    assert all(_decodes_as_the_full_parser(parser, argv) for argv in pooled)
    taken = [argv for argv in USAGE_ARGV
             if _decodes_as_the_full_parser(parser, argv)]
    assert taken == [
        ["verify", "--max", "5", "--max", "6"],
        ["verify", "--max", "5", "--case", "odd-odd", "--case", "1-1"],
        ["verify", "--max", " 7"], ["verify", "--max", "1_000"]]


OPTIONS = sorted({opt for _, opts in options.SUBCOMMANDS.values()
                  for opt in opts}, key=repr)
FLAGS = sorted({opt.flag for opt in OPTIONS})
VALUES = ("5", "12", "1", "0", "", " 7", "1_000", "x", "1/2", "2", "json",
          "JSON", "csv", "text", "odd-odd", "1-1", "mbound", "3", "T", "C",
          "-3", "-1/2", "-x", "-", "--", "--max", "--ma", "-h", "--help")


def _valid(opt) -> st.SearchStrategy:
    """opt's option string, and a value its type and choices accept."""
    if opt.kind == options.FLAG:
        return st.just([opt.flag])
    values = (opt.choices or (("5", "12", "1") if opt.type is int
                              else ("1/2", "2", "odd-odd", "1-1")))
    return st.sampled_from(values).map(lambda v: [opt.flag, str(v)])


# tokens that may turn a valid argv into one the table reader declines
OTHER = st.one_of(
    st.sampled_from(FLAGS).map(lambda flag: [flag]),
    st.sampled_from(VALUES).map(lambda value: [value]),
    st.sampled_from(FLAGS).flatmap(
        lambda flag: st.integers(2, len(flag) - 1).map(lambda k: [flag[:k]])),
    st.builds(lambda flag, value: [f"{flag}={value}"],
              st.sampled_from(FLAGS), st.sampled_from(VALUES)),
)


@st.composite
def argvs(draw) -> list:
    """A subcommand, mostly its required options, valid options mostly of
    its own, at times its options with any value, and at times up to two
    other tokens put in anywhere."""
    command = draw(st.sampled_from([*options.SUBCOMMANDS, "frob"]))
    own = options.SUBCOMMANDS.get(command, (None, OPTIONS))[1]
    argv = [command]
    if draw(st.integers(0, 3)):
        for opt in own:
            if opt.required:
                argv += [opt.flag, "5"]
    pairs = st.sampled_from([*own * 4, *OPTIONS]).flatmap(_valid)
    if draw(st.booleans()):
        pairs = st.one_of(pairs, st.tuples(
            st.sampled_from([opt.flag for opt in own]),
            st.sampled_from(VALUES)).map(list))
    for tokens in draw(st.lists(pairs, max_size=6)):
        argv += tokens
    others = st.lists(st.tuples(st.integers(0, 20), OTHER), max_size=2)
    for at, tokens in draw(others) if draw(st.booleans()) else ():
        at = min(at, len(argv))
        argv[at:at] = tokens
    return argv


PARSER = cli.build_parser()


@settings(max_examples=1000, deadline=None)
@given(argvs())
def test_table_reader_declines_or_reads_as_the_full_parser(argv):
    _decodes_as_the_full_parser(PARSER, argv)


FRESH_MAIN = """
import contextlib, io, json, sys
from collatzlab.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue(),
                  [m for m in ("argparse", "collatzlab.writers")
                   if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["verify", "--max", "2", "--format", "json"], []),
    (["verify", "--ma", "2", "--format", "json"], ["argparse"]),
])
def test_a_fresh_verify_loads_argparse_only_for_a_declined_argv(argv, loaded):
    # a verify start loads neither argparse nor the other commands'
    # writers; the prefix form, which the table reader declines, is read
    # by argparse as a fresh full parser reads it
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, json.dumps(argv)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, err, modules = json.loads(proc.stdout)
    assert modules == loaded
    args = cli.build_parser().parse_args(argv)
    assert [code, out, err] == [*args.fn(args), ""]


# === entry point ===

def test_console_script_runs():
    exe = shutil.which("collatzlab")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "orbit", "--seed", "6", "--map", "T",
                           "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["steps"] == 6


STDLIB_REQUESTS = [
    ["verify", "--max", "30", "--mode", "cross"],
    ["conditions", "--lambda", "0", "--A", "1/2", "--max", "20"],
    ["orbit", "--seed", "27", "--path"],
    ["search-lambda", "--q", "1", "--A", "1/2", "--max", "12"],
    ["decay", "--seed-max", "300", "--A", "1/2"],
]

STDLIB_ONLY = """
import contextlib, importlib.abc, io, json, sys

def outside(names):
    return {n.partition(".")[0] for n in names} - {"collatzlab"} \
        - sys.stdlib_module_names

class StdlibOnly(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if outside([name]):
            raise ImportError(f"{name} is outside the standard library")
        return None

before = set(sys.modules)
sys.meta_path.insert(0, StdlibOnly())
from collatzlab import cli, verifier
from collatzlab.verifier import RangeSpec, verify_lemmas
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([cli.main(argv + ["--format", "json"]), out.getvalue()])
report = verify_lemmas(RangeSpec.square(40), [-1], [])
results.append([report.violations_total, report.pairs_checked,
                sorted(outside(set(sys.modules) - before))])
print(json.dumps(results))
"""


def test_runs_on_the_standard_library_alone(capsys):
    # every import outside the standard library fails in the child, so no
    # third-party module can come back onto the import path of the package
    proc = subprocess.run([sys.executable, "-c", STDLIB_ONLY,
                           json.dumps(STDLIB_REQUESTS)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results[-1] == [0, 40**3, []]
    for argv, got in zip(STDLIB_REQUESTS, results):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert got == [code, out], argv


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", sorted(
    path.stem for path in (SRC / "collatzlab").glob("*.py")))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # no import cycle leaves a module half made when it is the first one
    # a program imports
    name = "collatzlab" if module == "__init__" else f"collatzlab.{module}"
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_invocation_matches_entry_point():
    proc = subprocess.run([sys.executable, "-m", "collatzlab.cli", "orbit",
                           "--seed", "6", "--map", "T", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["steps"] == 6


# === per-layer counts under the benchmark's tracer ===

TRACED_REQUESTS = (
    ["verify", "--mode", "mbound", "--M", "1", "--max", "30",
     "--violations-cap", "5", "--format", "json"],
    ["verify", "--mode", "cross", "--max", "40", "--format", "csv"],
    ["conditions", "--lambda", "1/2", "--A", "1/2", "--max", "12",
     "--format", "csv"],
    ["search-lambda", "--q", "1", "--A", "1/2", "--max", "6", "--format",
     "json"],
    ["decay", "--seed-max", "60", "--A", "1/2", "--lambda", "1/2", "--format",
     "json"],
    ["orbit", "--seed", "27", "--format", "csv"],
)


def test_tracer_counts_every_layer(capsys):
    # perfbench/tracing.py wraps the names through which one module calls
    # into another (cli.<sweep>, verifier.<callee>, ...) by name; the sweep
    # modules must still call through them, or a layer's counts read 0.
    # These counts are those of the tracer on one request of each command.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main = tracer.request(cli.main)
        codes = [main(argv) for argv in TRACED_REQUESTS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [1, 0, 0, 0, 0, 0]
    items = 900 + 1600 + 144 + 36 + 292
    metrics = tracer.metrics()
    assert {k: v for k, v in metrics.items() if not k.endswith("_s")} == {
        "verifier.items": items,
        "verifier.vector_share": 2500 / items,
        "verifier.violations_total": 630,
        "verifier.violations_recorded": 5,
        "framework.lhs.calls": 0,
        "framework.check_condition.calls": 53,
        "framework.check_condition_per_item": 53 / items,
        "framework.lambda.calls": 106,
        "weights.weight_vector.calls": 890,
        "weights.classify.calls": 0,
        "weights.simplified_lhs.calls": 0,
        "weights.calls_per_item": 890 / items,
        "collatz.accel_T.calls": 352,
        "collatz.stopping_time.calls": 1,
        "arith.check_width.calls": 226,
        "trace.uncounted_items": 0,
    }
    assert dict(tracer.calls) == {
        "cli.main": 6, "verifier.m_bound_sweep": 1,
        "verifier.cross_check_simplified": 1, "verifier.condition_coverage": 1,
        "verifier.search_lambda": 1, "verifier.orbit_decay_sweep": 1,
        "collatz.stopping_time": 1, "arith.parse_rational": 11,
        "arith.format_rational": 23, "framework.lambda": 106,
        "framework.check_condition": 53, "weights.weight_vector": 890,
        "collatz.accel_T": 352, "arith.check_width": 226,
    }
