import hashlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qmvote
from qmvote.core import Alternative, Profile, qualified_quotas
from qmvote.cli import main, read_ballots_text
from qmvote.rules import AnonymousTableRule, QualifiedMajorityRule, num_tally_classes
from ballots import ballots_text

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
    assert proc.stderr == "error: quota 4 is not qualified for n=9: need 0 <= q <= n and 2q > n\n"
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


def test_check_anonymous_table_fails_as_its_lift_does(tmp_path, capsys):
    # each quota rule's tally table at n=4 with one class flipped: the
    # anonymous check fails and reports what the check of its lift reports
    anonymous, full = tmp_path / "anonymous.rule", tmp_path / "full.rule"
    for q in qualified_quotas(4):
        for reform in (Alternative.X, Alternative.Y):
            quota_rule = AnonymousTableRule.from_rule(QualifiedMajorityRule(4, q, reform), 4)
            for k in range(num_tally_classes(4)):
                table = AnonymousTableRule(4, quota_rule.bits ^ 1 << k)
                anonymous.write_text(table.to_line() + "\n")
                full.write_text(table.lift().to_line() + "\n")
                args = ["check", "--n", "4", "--q", str(q), "--rule"]
                assert main([*args, str(anonymous), "--anonymous"]) == 1, (q, reform, k)
                out = capsys.readouterr().out
                assert main([*args, str(full)]) == 1, (q, reform, k)
                assert capsys.readouterr().out == out, (q, reform, k)


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
    "command",
    [
        ["decide", "--ballots", "{path}", "--q", "2", "--reform", "X"],
        ["tally", "--ballots", "{path}"],
    ],
    ids=["decide", "tally"],
)
@pytest.mark.parametrize(
    "text, error",
    [
        ("voter,choice\nv1,X\n\nv2,Q\n", "line 4: choice must be X, Y or TIE, got 'Q'"),
        ("voter,choice\nv1,X\n\n\nv1,Y\n", "line 5: duplicate voter id 'v1'"),
        # a quoted field may span lines; its record is named by its last
        ('voter,choice\n"v\n1",X\nv2,MAYBE\n', "line 4: choice must be X, Y or TIE, got 'MAYBE'"),
    ],
    ids=["blank-line", "two-blank-lines", "multi-line-record"],
)
def test_ballot_errors_name_the_physical_line(tmp_path, command, text, error):
    path = tmp_path / "ballots.csv"
    path.write_text(text)
    proc = run_cli(*(arg.format(path=path) for arg in command))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


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


@pytest.mark.parametrize(
    "space, n, size, digest",
    [
        ("full", 8, 33_841, "fb914e749033c72cc6a3a2cb113750009c079066680b5be942d50a1d10e06fb1"),
        (
            "anonymous",
            165,
            1_189_433,
            "07488f393ed0141d3e568206d473a90f3270c50466f5e87fe7db1959f0f1c19e",
        ),
    ],
    ids=["full-n8", "anonymous-n165"],
)
def test_verify_all_q_report_is_pinned_at_the_ci_smoke_sizes(capsys, space, n, size, digest):
    # the goldens stop at n=2 and n=5; these are the largest sizes the CI
    # smoke steps run in each space, full n=8 and anonymous n=165
    assert main(["verify", "--n", str(n), "--all-q", "--space", space, "--no-timing"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


# (length, sha256) of the stdout of `verify --all-q --no-timing` at
# (space, n) and of `enumerate --no-timing` at (space, n, q)
PINNED_REPORTS = {
    ("full", 2): (540, "7a72d58f3b00cb85f963049cf5ab5d4e3a726a8ecb53ed9538a2c2dc29b8c11e"),
    ("full", 3): (860, "b35605bf682fbfdb9c8ed77004cedcdff3a206d3cc414137110989e13cea1ba8"),
    ("full", 4): (1_131, "fd82a6ebc6e6a41b6be87caf8d8ff9b74abd8eabc1c99681824c93ae0456cd24"),
    ("full", 5): (2_024, "07bf681910060ea09523f13844d04904c20e6e73ff931554a2dc3a39d6d9933a"),
    ("full", 6): (4_019, "734c3d764d243199989f4037147ad8c4e1ef68544bdb921d202e4fb5e5039a5e"),
    ("full", 7): (11_643, "163af156a7cc1a520202296699a1d4e6ce9f8398942a43595fb06cc800d8c14e"),
    ("anonymous", 2): (550, "281d381b52ca45e34b3aecd98960b1aab1560842873a52e9604b7c9acf94f2f0"),
    ("anonymous", 3): (840, "4b29205d9d51e00338c11e5d195842bc5ecdb3b24a2f90b3f0fd33b74d7b7d6c"),
    ("anonymous", 4): (986, "ad2a16279322e63dc1827d22e1490fc2d16cc751dacf9a6acceba4d9bc88e74b"),
    ("anonymous", 5): (1_292, "23045a99e0a1ae86f2d8fd3ae5cf78c282803e222c8e00afe88bc2ebaacd1e42"),
    ("anonymous", 6): (1_452, "ffbd56ac508730dc10f4804d8da3610fc1034aa32b0aa3d37ec4a25399cbea9a"),
    ("anonymous", 7): (1_777, "cc2b514f63fa9b55fd6e2e95d2b2609ce33b4c8ff551d4d258c9beabb9190040"),
    ("anonymous", 8): (1_959, "a056ac6af115c949f61dd554308e72717b244842532d760a180f78754391d9f5"),
    ("anonymous", 9): (2_317, "27f47e566fff441a69061402f7ecb877df70016d0de6737c9f6b3b7b61b07ea3"),
    ("anonymous", 10): (2_536, "f932ab647f50f72813ad7259fc69618177da814f30fca37fcfb6beaa2e7ce98e"),
    ("anonymous", 11): (2_938, "7b2178c00927592858d9eae85cfd3f22b5bb0854075d486d4d1706748345db49"),
    ("anonymous", 12): (3_181, "2355a1ce3f103f1b564ceae609338ff60ce4d1e64b0b86da0c4e302b411e9063"),
    ("anonymous", 13): (3_620, "88fc3e50c2d91857113280007ef44cab7a8d1a6cc29cb372220d652efb84c09c"),
    ("anonymous", 14): (3_904, "65c20764c2466a584109fd6451bec841c67ede6bf49d5fd9b0c340f187ebfe43"),
    ("anonymous", 15): (4_388, "f7f6da090c7f18543ed1468adecdee13d4531f61c3fea4f0a1b332606270a774"),
    ("anonymous", 16): (4_718, "3cc0029cb24db90a696ca73f2cde33f1195ac40f32fb9e79cdf8eea452222012"),
    ("anonymous", 17): (5_263, "4a226e7dd020fc8b1093d657a9521fc2083475b9c8c91a861a51c1683bbb1a5d"),
    ("anonymous", 18): (5_629, "6bd57c9ff1c0a0bf02671961dd43cc5a8181e1d72bca8b6319057b1b4741e434"),
    ("anonymous", 19): (6_246, "15058b286015ae7e35314b569c3c11eb9ab21c578fdf0d2044211c5b42894017"),
    ("anonymous", 20): (6_652, "6d384855b128e807e6b401a2cc3683d98d7e3d2522a1e728ab136619e5812e45"),
    ("anonymous", 64): (
        82_871,
        "ab8f5c2f31d8ffbf11cff38856ec7dd47f35f847df98cb3594d15da81a3d06b8",
    ),
    ("anonymous", 160): (
        1_084_314,
        "1402704916b10119f39f5a6d14b8876935438d4643d9148d0f28df37c0408ab6",
    ),
    ("full", 3, 0): (119, "1fd3ecc8ee4698f22d4104ad6b9dc5ba64a7df90f6307bfb019fa29980a778bc"),
    ("full", 3, 1): (119, "1daf04d4fa20919ca62ae99638da90f17217e837848a2b862cf36f7cce7ca76d"),
    ("full", 3, 2): (351, "f99ffe2bd50186620ea729092f2a89fc0c5946ca694206c5d1c637b0e9b8499c"),
    ("full", 3, 3): (348, "b02b96af85dc0432f1875e563e431b465500c87e659c55df1a8cbb74164d8dd3"),
    ("anonymous", 4, 0): (120, "8dd3f6f14f4a112fc19614ed916a4fed931b26094c864b3fd8584754fb1bdd66"),
    ("anonymous", 4, 1): (120, "2ba75bfbca3b6e3a970972fb52c9f094565aff76df7a3b05bb99d7310d3c3720"),
    ("anonymous", 4, 2): (120, "7d661d753fa4fe53eec362b8a3cf21aff93e77a6a55d668aed4df07ec34b4f8b"),
    ("anonymous", 4, 3): (319, "1c683f8195cfc99890c00b5f3624c815b9dd5b7738efee87913266f67ad5e69b"),
    ("anonymous", 4, 4): (319, "81dbf8e279167a4df757bd2930c7c9211b67cfe5687c4875ff845427a7da8fb1"),
}


@pytest.mark.parametrize("key", PINNED_REPORTS, ids=lambda key: "-".join(map(str, key)))
def test_verify_and_enumerate_reports_are_pinned(capsys, key):
    space, n, *q = map(str, key)
    command = ["enumerate", "--q", *q] if q else ["verify", "--all-q"]
    assert main([*command, "--n", n, "--space", space, "--no-timing"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == PINNED_REPORTS[key]


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


def test_verify_all_q_builds_one_layout(monkeypatch, capsys):
    # every quota is set on one layout of the space at n
    from qmvote import verifier

    built = []
    init = verifier._AnonymousSpace.__init__  # _LiftedSpace's too

    def counting(self, *args):
        built.append(self.name)
        init(self, *args)

    monkeypatch.setattr(verifier._AnonymousSpace, "__init__", counting)
    for space, n in (("anonymous", 12), ("full", 4)):
        del built[:]
        assert main(["verify", "--n", str(n), "--all-q", "--space", space, "--no-timing"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == n + 1
        assert built == [space], (space, n)


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
    # No CLI call imports numpy, which no part of the project uses, and
    # no CLI call starts threads or worker processes.
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
    tally = cli_call("tally", "--ballots", str(path))
    assert loaded_modules(tally, library | heavy) == {"qmvote.core"}
    enumerate_ = cli_call("enumerate", "--n", "4", "--q", "3", "--space", "anonymous")
    want = {"qmvote.core", "qmvote.rules", "qmvote.verifier"}
    assert loaded_modules(enumerate_, library | heavy) == want
    table = tmp_path / "anonymous.rule"
    table.write_text("XXYXXX\n")  # the n=2 quota-2 rule with reform Y
    check = cli_call("check", "--rule", str(table), "--n", "2", "--q", "2", "--anonymous")
    want = {"qmvote.core", "qmvote.rules", "qmvote._tablecheck"}
    assert loaded_modules(check, library | heavy) == want


def test_no_subcommand_imports_typing(tmp_path):
    # typing costs start-up and the package needs it only for annotations;
    # comparing with the modules loaded before the call keeps the test
    # valid where site imports typing itself
    path = write_ballot_file(tmp_path, ["X", "X", "TIE"])
    table = tmp_path / "anonymous.rule"
    table.write_text("XXYXXX\n")  # the n=2 quota-2 rule with reform Y
    calls = [
        ("verify", "--n", "5", "--all-q", "--space", "anonymous"),
        ("verify", "--n", "2", "--all-q", "--space", "full"),
        ("check", "--rule", "builtin:qm:3:X", "--n", "4", "--q", "3"),
        ("check", "--rule", str(table), "--n", "2", "--q", "2", "--anonymous"),
        ("decide", "--ballots", str(path), "--q", "2", "--reform", "X"),
        ("tally", "--ballots", str(path)),
        ("enumerate", "--n", "3", "--q", "2", "--space", "full"),
    ]
    for args in calls:
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{cli_call(*args)}\n"
            "print('typing' in set(sys.modules) - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", args


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
