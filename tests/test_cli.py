import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qmvote
from qmvote.core import Profile
from qmvote.cli import ballots_text, read_ballots_text

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qmvote", *args], capture_output=True, text=True, **kwargs
    )


def write_ballot_file(tmp_path, choices, name="ballots.csv"):
    lines = ["voter,choice"] + [f"v{i+1},{c}" for i, c in enumerate(choices)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_decide_matches_golden(tmp_path):
    path = write_ballot_file(tmp_path, ["X", "X", "TIE"])
    proc = run_cli("decide", "--ballots", str(path), "--q", "2", "--reform", "X")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "decide_xxtie.json").read_text()


def test_decide_status_quo_branch(tmp_path):
    path = write_ballot_file(tmp_path, ["X", "TIE", "Y"])
    proc = run_cli("decide", "--ballots", str(path), "--q", "2", "--reform", "X")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["winner"] == "Y"
    assert doc["tally"] == {"x": 1, "y": 1, "indifferent": 1}


def test_decide_rejects_unqualified_quota(tmp_path):
    path = write_ballot_file(tmp_path, ["X"] * 9)
    proc = run_cli("decide", "--ballots", str(path), "--q", "4", "--reform", "X")
    assert proc.returncode == 3
    assert "q > n/2" in proc.stderr
    assert proc.stdout == ""


def test_decide_is_byte_stable(tmp_path):
    path = write_ballot_file(tmp_path, ["X", "X", "TIE"])
    args = ("decide", "--ballots", str(path), "--q", "2", "--reform", "X")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_decide_choice_tokens_case_insensitive(tmp_path):
    path = write_ballot_file(tmp_path, ["x", "tie", "Y"])
    proc = run_cli("decide", "--ballots", str(path), "--q", "2", "--reform", "x")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tally"] == {"x": 1, "y": 1, "indifferent": 1}


@pytest.mark.parametrize(
    "text",
    [
        "voter,choice\nv1,X\nv1,Y\nv2,TIE\n",  # duplicate voter
        "voter,choice\nv1,X\nv2,MAYBE\n",  # unknown token
        "voter,choice\nv1,X\n",  # below two voters
        "who,what\nv1,X\nv2,Y\n",  # wrong header
        "",
    ],
)
def test_decide_rejects_malformed_ballots(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    proc = run_cli("decide", "--ballots", str(path), "--q", "2", "--reform", "X")
    assert proc.returncode == 2


def test_decide_missing_file_is_bad_input(tmp_path):
    proc = run_cli("decide", "--ballots", str(tmp_path / "nope.csv"), "--q", "2", "--reform", "X")
    assert proc.returncode == 2


def test_tally_subcommand(tmp_path):
    path = write_ballot_file(tmp_path, ["X", "Y", "TIE", "Y"])
    proc = run_cli("tally", "--ballots", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "n": 4,
        "tally": {"x": 1, "y": 2, "indifferent": 1},
    }


def test_ballot_round_trip():
    profile = Profile.from_string("XYIIX")
    assert read_ballots_text(ballots_text(profile)) == profile


def test_check_builtin_quota_rule_passes(tmp_path):
    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "2")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_builtin_pass.json").read_text()


def test_check_builtin_fails_at_quota_zero():
    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "0")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    assert [r["axiom"] for r in reports] == ["anonymity", "responsiveness", "q-neutrality"]
    assert [r["passed"] for r in reports] == [True, True, False]
    assert reports[2]["witness"]["profile"] != reports[2]["witness"]["counterpart"]


def test_check_constant_rule_table(tmp_path):
    path = tmp_path / "const_y.rule"
    path.write_text("Y" * 9 + "\n")
    proc = run_cli("check", "--rule", str(path), "--n", "2", "--q", "2")
    assert proc.returncode == 1
    assert proc.stdout == (GOLDEN / "check_constant_y.json").read_text()
    reports = json.loads(proc.stdout)
    assert [r["passed"] for r in reports] == [True, True, False]


def test_check_anonymous_table(tmp_path):
    path = tmp_path / "anon.rule"
    path.write_text("XXYXXX\n")  # the n=2 quota-2 rule with reform Y, as a tally table
    proc = run_cli("check", "--rule", str(path), "--n", "2", "--q", "2", "--anonymous")
    assert proc.returncode == 0


def test_check_rejects_malformed_rule_files(tmp_path):
    short = tmp_path / "short.rule"
    short.write_text("XY\n")
    assert run_cli("check", "--rule", str(short), "--n", "2", "--q", "2").returncode == 2
    junk = tmp_path / "junk.rule"
    junk.write_text("XYZXYZXYZ\n")
    assert run_cli("check", "--rule", str(junk), "--n", "2", "--q", "2").returncode == 2
    assert run_cli("check", "--rule", "builtin:qm:two:X", "--n", "3", "--q", "2").returncode == 2


NOT_UTF8_BALLOTS = b"voter,choice\nv1,X\nv2,\xff\n"


@pytest.mark.parametrize(
    "command, data",
    [
        (["decide", "--ballots", "{path}", "--q", "2", "--reform", "X"], NOT_UTF8_BALLOTS),
        (["tally", "--ballots", "{path}"], NOT_UTF8_BALLOTS),
        (
            ["check", "--rule", "{path}", "--n", "2", "--q", "2"],
            b"\xff\xfe" + "XYYYYYYYY".encode("utf-16-le"),
        ),
    ],
    ids=["decide", "tally", "check"],
)
def test_non_utf8_input_files_are_bad_input(tmp_path, command, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    proc = run_cli(*(arg.format(path=path) for arg in command))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["decide", "--ballots", "{path}", "--q", "2", "--reform", "X"],
        ["tally", "--ballots", "{path}"],
    ],
    ids=["decide", "tally"],
)
def test_ballot_field_past_the_csv_size_limit_is_bad_input(tmp_path, command):
    # csv refuses a field longer than 131,072 characters
    path = tmp_path / "ballots.csv"
    path.write_text(f"voter,choice\n{'v' * 200_000},X\nv2,Y\n")
    proc = run_cli(*(arg.format(path=path) for arg in command))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 2: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "command, text",
    [
        (["tally", "--ballots", "{path}"], "voter,choice\nv1,X\nv2,TIE\nv3,Y\n"),
        # the table of builtin:qm:2:X at n=2, which passes every check
        (["check", "--rule", "{path}", "--n", "2", "--q", "2"], "XYYYYYYYY\n"),
    ],
    ids=["tally", "check"],
)
def test_utf8_byte_order_mark_is_skipped(tmp_path, command, text):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = (run_cli(*(arg.format(path=p) for arg in command)) for p in (plain, marked))
    assert want.returncode == 0, want.stderr
    assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, "")


def test_check_unqualified_builtin_is_a_precondition_error():
    proc = run_cli("check", "--rule", "builtin:qm:1:X", "--n", "3", "--q", "1")
    assert proc.returncode == 3


def test_check_quota_out_of_range_is_a_precondition_error():
    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "4")
    assert proc.returncode == 3


def test_check_refuses_large_n_before_walking_profiles():
    # one past the cap: without the guard, n=16 would build bitsets of 43
    # million bits; the timeout turns a missing guard into a failure
    # instead of a long run
    proc = run_cli("check", "--rule", "builtin:qm:16:X", "--n", "16", "--q", "16", timeout=10)
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: check at n=16 would walk all 3^16 = 43,046,721 profiles; the limit is n=15\n"
    )


def test_verify_full_n2_matches_golden():
    proc = run_cli("verify", "--n", "2", "--all-q", "--space", "full", "--no-timing")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_n2_full.json").read_text()


def test_verify_single_quota():
    proc = run_cli("verify", "--n", "3", "--q", "2", "--space", "anonymous", "--no-timing")
    assert proc.returncode == 0
    (doc,) = json.loads(proc.stdout)
    assert doc["matches_theorem"] is True
    assert doc["rules_examined"] == 1024


def test_verify_guard_violation_exits_3():
    # full n=9 has 19,683 cells, past the 14,000-cell cap
    proc = run_cli("verify", "--n", "9", "--q", "5", "--space", "full")
    assert proc.returncode == 3
    assert "anonymous" in proc.stderr


def test_verify_refuses_a_huge_n_at_once():
    # 3^n is neither computed nor printed, so the message names the cap
    # rather than Python's limit on printing long integers
    for n in ("20000", "30000000"):
        start = time.perf_counter()
        proc = run_cli("verify", "--n", n, "--q", "1")
        assert time.perf_counter() - start < 1.0, n
        assert proc.returncode == 3, n
        assert f"full space at n={n} past the 14,000-cell limit" in proc.stderr
        assert "digits" not in proc.stderr


def test_check_refuses_a_huge_n_without_printing_3_to_the_n():
    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "20000", "--q", "1")
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: check at n=20000 would walk all 3^20000 profiles; the limit is n=15\n"
    )


def test_verify_all_q_needs_two_voters():
    # with no voters there are no quotas either; the run must not pass on none
    for n in ("-1", "0", "1"):
        proc = run_cli("verify", "--n", n, "--all-q")
        assert proc.returncode == 3, n
        assert proc.stdout == ""
        assert "needs at least two voters" in proc.stderr


def test_verify_needs_exactly_one_quota_option():
    assert run_cli("verify", "--n", "2").returncode == 2
    assert run_cli("verify", "--n", "2", "--q", "1", "--all-q").returncode == 2


def test_verify_timing_only_in_untimed_reports():
    untimed = json.loads(
        run_cli("verify", "--n", "2", "--q", "2", "--no-timing").stdout
    )
    timed = json.loads(run_cli("verify", "--n", "2", "--q", "2").stdout)
    assert "elapsed_ms" not in untimed[0]
    assert "elapsed_ms" in timed[0]


def test_enumerate_includes_tables():
    proc = run_cli(
        "enumerate", "--n", "2", "--q", "2", "--space", "anonymous", "--no-timing"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    tables = {s["pretty"]: s["table"] for s in doc["survivors"]}
    assert tables == {"sigma_2^Y": "XXYXXX", "sigma_2^X": "YYYYYX"}


def test_enumerate_guard_violation():
    # anonymous n=167 has 14,196 cells, past the 14,000-cell cap
    args = ("enumerate", "--n", "167", "--q", "84", "--space", "anonymous")
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert "has 14,196 cells, past the 14,000-cell limit" in proc.stderr
    # no option lifts the cap; the former --long-run is a usage error
    proc = run_cli(*args, "--long-run")
    assert proc.returncode == 2
    assert "unrecognized arguments: --long-run" in proc.stderr


def loaded_modules(call, modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``call``."""
    code = (
        "import sys\n"
        f"{call}\n"
        f"print(*set({sorted(modules)!r}) & set(sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def cli_call(*args):
    return (
        "from qmvote.cli import main\n"
        "try:\n"
        f"    main({list(args)!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # numpy serves only the tests' sweep oracle, so no CLI call pays its
    # import, and no CLI call starts threads or worker processes.
    # Each subcommand imports only the modules it runs, out of every module
    # of the package: verify needs no axioms, decide no verifier, and
    # --help none of the library.
    library = {f"qmvote.{m.name}" for m in pkgutil.iter_modules(qmvote.__path__)}
    library -= {"qmvote.cli", "qmvote.__main__"}
    # click, dataclasses and inspect cost more start-up than most calls
    # compute, so no call loads them either
    heavy = {"numpy", "concurrent.futures", "multiprocessing", "click", "dataclasses", "inspect"}
    assert loaded_modules("import qmvote.cli", library | heavy) == set()
    verify = cli_call("verify", "--n", "5", "--all-q", "--space", "anonymous")
    want = {"qmvote.core", "qmvote.rules", "qmvote.verifier"}
    assert loaded_modules(verify, library | heavy) == want
    # check decides the axioms on the rule's bitset and builds its own
    # reports: no profile-level checkers, no verifier, no search
    check = cli_call("check", "--rule", "builtin:qm:3:X", "--n", "4", "--q", "3")
    want = {"qmvote.core", "qmvote.rules", "qmvote._tablecheck"}
    assert loaded_modules(check, library | heavy) == want
    path = write_ballot_file(tmp_path, ["X", "X", "TIE"])
    decide = cli_call("decide", "--ballots", str(path), "--q", "2", "--reform", "X")
    assert loaded_modules(decide, library | heavy) == {"qmvote.core", "qmvote.rules"}


def test_cli_space_names_are_the_verifier_spaces():
    # cli restates the space names so that parsing --space needs no verifier
    from qmvote import cli, verifier

    assert (cli.SPACE_FULL, cli.SPACE_ANONYMOUS) == (verifier.SPACE_FULL, verifier.SPACE_ANONYMOUS)


SUBCOMMANDS = ("decide", "tally", "check", "verify", "enumerate")


def test_help_lists_all_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("Usage:")
    for name in SUBCOMMANDS:
        assert name in proc.stdout
        sub = run_cli(name, "--help")
        assert sub.returncode == 0, name
        assert sub.stdout.startswith(f"Usage: qmvote {name} "), name
    # only the long form asks for help; -h is a usage error
    assert run_cli("-h").returncode == 2
    assert run_cli("verify", "-h").returncode == 2


def test_options_are_not_abbreviated():
    proc = run_cli("verify", "--n", "2", "--all", "--no-timing")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_option_values_may_start_with_a_dash(tmp_path):
    # a value option takes the next word whatever it looks like, and a
    # closing "--" ends the options
    (tmp_path / "-r.rule").write_text("XYYYYYYYY\n")
    args = ("check", "--rule", "-r.rule", "--n", "2", "--q", "2")
    want = run_cli("check", "--rule", str(tmp_path / "-r.rule"), "--n", "2", "--q", "2")
    assert want.returncode == 0, want.stderr
    env = dict(os.environ, PYTHONPATH=str(Path(qmvote.__file__).parents[1]))
    for argv in (args, args + ("--",)):
        proc = run_cli(*argv, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stdout) == (0, want.stdout), argv
    assert run_cli(*args, "--", "--anonymous", cwd=tmp_path, env=env).returncode == 2


BIG_REPORT = ("-m", "qmvote", "verify", "--n", "100", "--all-q", "--space", "anonymous")


def test_reader_closing_stdout_early_gets_no_traceback():
    # the report is far larger than a pipe's buffer, so the call is still
    # writing it when the reader leaves after 10 bytes
    proc = subprocess.Popen(
        [sys.executable, *BIG_REPORT], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    head = os.read(proc.stdout.fileno(), 10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (0, b"")
    assert head == b"[\n  {\n    "
    # a reader gone before the report begins gives exit code 1, quietly
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, *BIG_REPORT], stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    os.close(read_end)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


def test_click_runner_drives_main():
    # perfbench/tracing.py invokes the CLI through click's CliRunner
    testing = pytest.importorskip("click.testing")
    from qmvote import cli

    args = ["verify", "--n", "2", "--all-q", "--no-timing"]
    result = testing.CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == (GOLDEN / "verify_n2_full.json").read_text()
    failing = ["check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "0"]
    assert testing.CliRunner().invoke(cli.main, failing).exit_code == 1


def test_console_script_entry_point(tmp_path):
    import shutil

    exe = shutil.which("qmvote")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = write_ballot_file(tmp_path, ["X", "X", "Y"])
    proc = subprocess.run(
        [exe, "decide", "--ballots", str(path), "--q", "2", "--reform", "X"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["winner"] == "X"
