"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Time budgets are asserted inside the tests; the warmup
fixture keeps first-call costs out of the timed sections.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qmvote.core import (
    Alternative,
    all_profiles,
    dual,
    meets_quota,
    permute,
    qualified_quotas,
    tally,
)
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
    qualified_majority_rules,
    rules_equal,
    threshold_table_rule,
)
from qmvote.axioms import (
    check_anonymity,
    check_anonymity_all_permutations,
    check_q_neutrality,
    check_responsiveness,
    replay_witness,
    run_all_checks,
    unqualified_quota_contradiction,
)
from qmvote._tablecheck import run_table_checks
from qmvote.verifier import (
    SPACE_ANONYMOUS,
    enumerate_anonymous,
    enumerate_full,
    survivors_anonymous,
)
from sweep_oracle import sweep_survivors

X, Y = Alternative.X, Alternative.Y
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module", autouse=True)
def warm_jit():
    # search each space once at n=2 so that timed sections measure warm code
    survivors_anonymous(2, 0)
    enumerate_full(2, 0)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qmvote", *args], capture_output=True, text=True
    )


def test_full_space_n2_exactly_the_two_quota_rules():
    """Full space, n=2: no survivors for q in {0,1}; the two quota-2 rules for q=2."""
    start = time.perf_counter()
    for q in (0, 1):
        result = enumerate_full(2, q)
        assert result.rules_examined == 512
        assert result.survivors == ()
        assert result.matches_theorem
    result = enumerate_full(2, 2)
    elapsed = time.perf_counter() - start
    assert result.rules_examined == 512
    assert len(result.survivors) == 2
    assert result.matches_theorem
    decoded = [TableRule(2, s.encoding) for s in result.survivors]
    for reform in (X, Y):
        want = QualifiedMajorityRule(2, 2, reform)
        assert sum(rules_equal(d, want, 2) for d in decoded) == 1
    assert elapsed < 1.0, f"full n=2 sweep took {elapsed:.2f}s"


def test_anonymous_spaces_n2_to_n5_match_expected_rule_sets():
    """Anonymous space, n in 2..5, every q: survivors equal the quota rule set."""
    for n in (2, 3, 4):
        for q in range(n + 1):
            result = enumerate_anonymous(n, q)
            assert result.rules_examined == 2 ** num_tally_classes(n)
            _assert_survivors_are_exactly_the_quota_rules(result, n, q)
    start = time.perf_counter()
    for q in range(6):
        result = enumerate_anonymous(5, q)
        assert result.rules_examined == 2097152
        _assert_survivors_are_exactly_the_quota_rules(result, 5, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"anonymous n=5 search took {elapsed:.1f}s"


def _assert_survivors_are_exactly_the_quota_rules(result, n, q):
    expected = qualified_majority_rules(n, q)
    assert result.matches_theorem
    assert len(result.survivors) == len(expected)
    decoded = [AnonymousTableRule(n, s.encoding) for s in result.survivors]
    for want in expected:
        assert sum(rules_equal(d, want, n) for d in decoded) == 1


def test_quota_rules_pass_all_three_axioms_up_to_n6():
    """Every quota rule at n in 2..6 passes all three checks with zero witnesses."""
    start = time.perf_counter()
    for n in range(2, 7):
        for q in qualified_quotas(n):
            for reform in (X, Y):
                rule = QualifiedMajorityRule(n, q, reform)
                for report in run_all_checks(rule, n, q):
                    assert report.passed, (n, q, reform, report)
                    assert report.witness is None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"axiom suite took {elapsed:.1f}s"


def test_balanced_contradiction_and_the_rule_of_four():
    """The balanced profile refutes every unqualified quota at n in 2..9, and the
    court-style rule of four is q-neutral for no quota at all."""
    start = time.perf_counter()
    for n in range(2, 10):
        for q in range(n // 2 + 1):
            witness = unqualified_quota_contradiction(threshold_table_rule(n, q, X), n, q)
            t = tally(witness.profile)
            assert (t.n_x, t.n_y, t.n_ind) == (q, q, n - 2 * q)
            assert witness.dual_profile == dual(witness.profile)
            assert permute(witness.profile, witness.permutation) == witness.dual_profile
            assert witness.anonymity_requires is witness.neutrality_requires.other
            assert witness.observed in (witness.anonymity_requires, witness.neutrality_requires)

    rule_of_four = threshold_table_rule(9, 4, X)
    profiles = all_profiles(9)
    assert len(profiles) == 19683
    for q in range(10):
        report = check_q_neutrality(rule_of_four, 9, q)
        assert not report.passed
        assert replay_witness(report, rule_of_four, 9)
        # exhaustive recount over every profile is its own oracle
        violations = 0
        for p in profiles:
            value = rule_of_four.evaluate(p)
            required = value.other if meets_quota(p, q) else value
            if rule_of_four.evaluate(dual(p)) is not required:
                violations += 1
        assert violations > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"contradiction suite took {elapsed:.1f}s"


def test_duality_conjugation_exhaustive_up_to_n6():
    """sigma_q^X on the reversed profile equals the swapped sigma_q^Y everywhere."""
    for n in range(2, 7):
        for q in qualified_quotas(n):
            rule_x = QualifiedMajorityRule(n, q, X)
            rule_y = QualifiedMajorityRule(n, q, Y)
            for p in all_profiles(n):
                assert rule_x.evaluate(dual(p)) is rule_y.evaluate(p).other


def test_checker_cross_validation():
    """Adjacent-transposition anonymity matches the all-permutation quantifier,
    and tally-level responsiveness / q-neutrality match the profile-level checks."""
    # every n=2 rule, both anonymity quantifiers
    for bits in range(512):
        rule = TableRule(2, bits)
        assert (
            check_anonymity(rule, 2).passed
            == check_anonymity_all_permutations(rule, 2).passed
        )

    # 10,000 seeded random n=4 tables against a vectorized all-permutation oracle
    rng = np.random.default_rng(20251120)
    table_bits = rng.integers(0, 2, size=(10000, 81), dtype=np.uint8)
    import itertools

    profiles = all_profiles(4)
    perm_maps = []
    for perm in itertools.permutations(range(4)):
        if perm == (0, 1, 2, 3):
            continue
        perm_maps.append(np.array([permute(p, perm).index for p in profiles]))
    full_anonymous = np.ones(len(table_bits), dtype=bool)
    for pmap in perm_maps:
        full_anonymous &= ~(table_bits != table_bits[:, pmap]).any(axis=1)
    for row, oracle_verdict in zip(table_bits, full_anonymous):
        bits = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        assert check_anonymity(TableRule(4, bits), 4).passed == bool(oracle_verdict)

    # tally-level kernel filters against profile-level checks, all anonymous rules
    for n in (2, 3, 4):
        space_size = 2 ** num_tally_classes(n)
        resp_tally = set(survivors_anonymous(n, 0, use_neutrality=False))
        resp_profile = {
            bits
            for bits in range(space_size)
            if check_responsiveness(AnonymousTableRule(n, bits), n).passed
        }
        assert resp_tally == resp_profile
        for q in range(n + 1):
            neutral_tally = set(survivors_anonymous(n, q, use_responsiveness=False))
            neutral_profile = {
                bits
                for bits in range(space_size)
                if check_q_neutrality(AnonymousTableRule(n, bits), n, q).passed
            }
            assert neutral_tally == neutral_profile, (n, q)


def assert_same_reports(rule, n, q):
    """The bitset checks behind ``qmvote check`` emit the JSON of
    run_all_checks byte for byte, witnesses included."""
    want = json.dumps([r.to_json_dict() for r in run_all_checks(rule, n, q)], indent=2)
    got = json.dumps([r.to_json_dict() for r in run_table_checks(rule, n, q)], indent=2)
    assert got == want, (rule, q)


def test_table_level_check_matches_the_profile_level_checkers():
    """On seeded rules up to n=6: random full and anonymous tables, every
    quota rule, and quota rules with a few cells flipped."""
    rng = random.Random(20261018)
    for n in range(1, 7):
        cells = 3**n
        for _ in range(4):
            q = rng.randrange(n + 1)
            assert_same_reports(TableRule(n, rng.getrandbits(cells)), n, q)
            assert_same_reports(AnonymousTableRule(n, rng.getrandbits(num_tally_classes(n))), n, q)
        for q in qualified_quotas(n):
            for reform in (X, Y):
                rule = QualifiedMajorityRule(n, q, reform)
                assert_same_reports(rule, n, q)
                assert_same_reports(rule, n, n // 2)  # an unqualified quota
                bits = TableRule.from_rule(rule, n).bits
                for low in (0, 2 * cells // 3):
                    # flip one to three cells anywhere, then late in canonical order
                    flips = rng.sample(range(low, cells), min(rng.randint(1, 3), cells - low))
                    assert_same_reports(TableRule(n, bits ^ sum(1 << k for k in flips)), n, q)


def test_table_level_check_matches_on_every_full_n2_table():
    for bits in range(512):
        for q in range(3):
            assert_same_reports(TableRule(2, bits), 2, q)


def test_table_level_check_matches_on_perturbed_n7_quota_rules():
    """As the check-axioms benchmark draws them: each qualified quota and
    reform, with one cell flipped among the last 3^(n-3) profiles."""
    n, cells = 7, 3**7
    rng = random.Random(7)
    for q in qualified_quotas(n):
        for reform in (X, Y):
            bits = TableRule.from_rule(QualifiedMajorityRule(n, q, reform), n).bits
            flipped = rng.randrange(cells - 3 ** (n - 3), cells)
            assert_same_reports(TableRule(n, bits ^ 1 << flipped), n, q)


def test_verify_reports_identical_across_worker_counts():
    """verify reports, per quota, the survivors the sweep oracle finds."""
    out = run_cli("verify", "--n", "4", "--all-q", "--space", "anonymous", "--no-timing")
    assert out.returncode == 0
    docs = json.loads(out.stdout)
    assert docs[2]["matches_theorem"] is True
    for q, doc in enumerate(docs):
        reported = [s["encoding"] for s in doc["survivors"]]
        assert reported == sweep_survivors(SPACE_ANONYMOUS, 4, q), q


def test_cli_golden_files(tmp_path):
    """The decide / check / verify examples reproduce exactly, exit codes included."""
    ballots = tmp_path
    b3 = ballots / "b3.csv"
    b3.write_text("voter,choice\nv1,X\nv2,X\nv3,TIE\n")
    proc = run_cli("decide", "--ballots", str(b3), "--q", "2", "--reform", "X")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "decide_xxtie.json").read_text()

    b3b = ballots / "b3b.csv"
    b3b.write_text("voter,choice\nv1,X\nv2,TIE\nv3,Y\n")
    proc = run_cli("decide", "--ballots", str(b3b), "--q", "2", "--reform", "X")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["winner"] == "Y"

    b9 = ballots / "b9.csv"
    b9.write_text("voter,choice\n" + "".join(f"v{i},X\n" for i in range(1, 10)))
    proc = run_cli("decide", "--ballots", str(b9), "--q", "4", "--reform", "X")
    assert proc.returncode == 3

    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "2")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_builtin_pass.json").read_text()

    proc = run_cli("check", "--rule", "builtin:qm:2:X", "--n", "3", "--q", "0")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)[2]["passed"] is False

    const_y = ballots / "const_y.rule"
    const_y.write_text("Y" * 9 + "\n")
    proc = run_cli("check", "--rule", str(const_y), "--n", "2", "--q", "2")
    assert proc.returncode == 1
    assert proc.stdout == (GOLDEN / "check_constant_y.json").read_text()

    proc = run_cli("verify", "--n", "2", "--all-q", "--space", "full", "--no-timing")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_n2_full.json").read_text()

    proc = run_cli("verify", "--n", "5", "--all-q", "--space", "anonymous", "--no-timing")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_n5_anonymous.json").read_text()

    proc = run_cli("verify", "--n", "9", "--q", "5", "--space", "full")
    assert proc.returncode == 3
