import pytest

from qmvote.core import Alternative, Profile, _lift, all_profiles, dual, qualified_quotas, tally
from qmvote.rules import (
    AnonymousTableRule,
    QualifiedMajorityRule,
    TableRule,
    num_tally_classes,
    qualified_majority_rules,
    rules_equal,
    tally_class_index,
    tally_classes,
    threshold_table_rule,
)

X, Y = Alternative.X, Alternative.Y
P = Profile.from_string


def test_tally_class_machinery():
    assert num_tally_classes(3) == 10
    classes = tally_classes(3)
    assert len(classes) == 10
    assert classes[0] == (0, 0) and classes[-1] == (3, 0)
    assert list(classes) == sorted(classes)  # lexicographic
    for k, (nx, ny) in enumerate(classes):
        assert tally_class_index(3, nx, ny) == k
    with pytest.raises(ValueError):
        tally_class_index(3, 2, 2)


def test_quota_must_be_qualified_at_construction():
    QualifiedMajorityRule(3, 2, X)
    with pytest.raises(ValueError):
        QualifiedMajorityRule(9, 4, X)  # the court's rule of four is not qualified
    with pytest.raises(ValueError):
        QualifiedMajorityRule(2, 1, Y)
    with pytest.raises(ValueError):
        QualifiedMajorityRule(3, 4, X)


def test_qualified_majority_evaluation():
    rule = QualifiedMajorityRule(3, 2, X)
    assert rule.evaluate(P("XXY")) is X
    assert rule.evaluate(P("XIY")) is Y  # 1 < q, so the status quo prevails
    assert rule.evaluate(P("III")) is Y


def test_evaluate_rejects_wrong_voter_count():
    rule = QualifiedMajorityRule(3, 2, X)
    with pytest.raises(ValueError):
        rule.evaluate(P("XX"))
    with pytest.raises(ValueError):
        TableRule(2, 0).evaluate(P("XXX"))
    with pytest.raises(ValueError):
        AnonymousTableRule(2, 0).evaluate(P("XXX"))


def test_rule_set_for_quota():
    rules = qualified_majority_rules(3, 2)
    assert rules == {QualifiedMajorityRule(3, 2, X), QualifiedMajorityRule(3, 2, Y)}
    assert qualified_majority_rules(9, 4) == frozenset()
    assert qualified_majority_rules(2, 0) == frozenset()
    with pytest.raises(ValueError):
        qualified_majority_rules(3, 5)


def test_table_encoding_of_quota_rule_agrees_everywhere():
    rule = QualifiedMajorityRule(2, 2, X)
    table = TableRule.from_rule(rule, 2)
    for p in all_profiles(2):
        assert table.evaluate(p) is rule.evaluate(p)
    # only the all-X profile (index 0) elects X, so every other bit is set
    assert table.bits == 510
    # the rule on tallies, lifted, is the table of the rule on profiles
    for n in range(1, 7):
        for q in qualified_quotas(n):
            for reform in (X, Y):
                rule = QualifiedMajorityRule(n, q, reform)
                assert _lift(n, rule.y_wins) == TableRule.from_rule(rule, n).bits, (n, q, reform)


def test_table_rule_bits_range():
    TableRule(2, 511)
    with pytest.raises(ValueError):
        TableRule(2, 512)
    with pytest.raises(ValueError):
        TableRule(2, -1)
    AnonymousTableRule(2, 63)
    with pytest.raises(ValueError):
        AnonymousTableRule(2, 64)


def test_constant_anonymous_rule_is_constant_on_profiles():
    const_y = AnonymousTableRule(2, (1 << num_tally_classes(2)) - 1)
    assert all(const_y.evaluate(p) is Y for p in all_profiles(2))


def test_lift_preserves_the_function():
    rule = AnonymousTableRule(3, 0b0101101001)
    lifted = rule.lift()
    assert rules_equal(rule, lifted, 3)
    # every anonymous table at n=1, 2 and a spread at n=3, 4, against the
    # table of its own evaluation on every profile, and on every class
    tables = [
        AnonymousTableRule(n, bits) for n in (1, 2) for bits in range(2 ** num_tally_classes(n))
    ]
    tables += [AnonymousTableRule(3, bits) for bits in range(0, 2**10, 37)]
    tables += [AnonymousTableRule(4, bits) for bits in range(0, 2**15, 1021)]
    for table in tables:
        assert table.lift() == TableRule.from_rule(table, table.n), table
        assert AnonymousTableRule.from_rule(table, table.n) == table, table


def test_rules_equal():
    sx = QualifiedMajorityRule(2, 2, X)
    assert rules_equal(sx, TableRule.from_rule(sx, 2), 2)
    assert not rules_equal(sx, QualifiedMajorityRule(2, 2, Y), 2)
    assert not rules_equal(
        QualifiedMajorityRule(3, 3, X), QualifiedMajorityRule(3, 2, X), 3
    )
    with pytest.raises(ValueError):
        rules_equal(sx, QualifiedMajorityRule(3, 2, X), 3)


def test_distinct_quotas_give_distinct_rules():
    for n in range(2, 7):
        quotas = [q for q in range(n + 1) if 2 * q > n]
        for a in (X, Y):
            for i, q1 in enumerate(quotas):
                for q2 in quotas[i + 1 :]:
                    r1 = QualifiedMajorityRule(n, q1, a)
                    r2 = QualifiedMajorityRule(n, q2, a)
                    assert not rules_equal(r1, r2, n)
                    # any profile with reform support between the quotas separates them
                    witness = Profile.from_counts(
                        q1 if a is X else 0, q1 if a is Y else 0, n - q1
                    )
                    assert r1.evaluate(witness) is not r2.evaluate(witness)


def test_rule_depends_only_on_tally():
    rule = QualifiedMajorityRule(4, 3, Y)
    outputs = {}
    for p in all_profiles(4):
        key = tally(p)
        outputs.setdefault(key, rule.evaluate(p))
        assert outputs[key] is rule.evaluate(p)
    # and the reform branch is a plain threshold on its strict count
    for key, value in outputs.items():
        assert (value is Y) == (key.n_y >= 3)


def test_duality_conjugation_spot_check():
    sx = QualifiedMajorityRule(3, 2, X)
    sy = QualifiedMajorityRule(3, 2, Y)
    for p in all_profiles(3):
        assert sx.evaluate(dual(p)) is sy.evaluate(p).other


def test_full_table_line_round_trip():
    rule = TableRule(2, 0b101100110)
    assert TableRule.from_line(2, rule.to_line()) == rule
    assert len(rule.to_line()) == 9
    line = TableRule.from_rule(QualifiedMajorityRule(2, 2, X), 2).to_line()
    assert line == "XYYYYYYYY"


def test_anonymous_table_line_round_trip():
    rule = AnonymousTableRule(3, 0b1010011010)
    assert AnonymousTableRule.from_line(3, rule.to_line()) == rule
    assert len(rule.to_line()) == 10


def test_table_line_validation():
    with pytest.raises(ValueError):
        TableRule.from_line(2, "XY")
    with pytest.raises(ValueError):
        TableRule.from_line(2, "XYZXYZXYZ")
    with pytest.raises(ValueError):
        AnonymousTableRule.from_line(2, "XXXXXXX")


def test_table_lines_round_trip_at_n10():
    line = ("XYYXXXYXYY" * 3**10)[: 3**10]
    rule = TableRule.from_line(10, line + "\n")
    assert rule.to_line() == line
    assert all((rule.bits >> p) & 1 == (line[p] == "Y") for p in range(0, 3**10, 97))
    assert rule.bits >> (3**10 - 1) == (line[-1] == "Y")
    anonymous = AnonymousTableRule.from_line(10, line[:66])
    assert anonymous.to_line() == line[:66]
    assert anonymous.bits & 0b111 == 0b110


def test_table_line_error_messages_name_the_first_bad_character():
    with pytest.raises(ValueError, match=r"^full rule table for n=2 needs 9 characters, got 2$"):
        TableRule.from_line(2, "XY")
    with pytest.raises(ValueError, match=r"^anonymous rule table for n=2 needs 6 characters, got 7$"):
        AnonymousTableRule.from_line(2, "XXXXXXX")
    # positions count from the first character after leading whitespace
    for line, bad, position in (
        ("XYZXYZXYZ", "Z", 2),
        ("  XYXXXXXXq\n", "q", 8),
        ("XY_XXXXXX", "_", 2),
        ("XX1XXXXXX", "1", 2),
        ("X\u0661XXXXXXX", "\u0661", 1),
    ):
        message = f"^rule tables use only X and Y: {bad!r} at position {position}$"
        with pytest.raises(ValueError, match=message):
            TableRule.from_line(2, line)
    with pytest.raises(ValueError, match=r"^rule tables use only X and Y: 'x' at position 5$"):
        AnonymousTableRule.from_line(2, "XYXXXx")


def test_threshold_rule_tables_match_their_definition():
    # class by class: Y wins iff the reform's strict supporters reach the
    # threshold, at every threshold from 0 (always) to n + 1 (never)
    for n in range(1, 11):
        for m in range(n + 2):
            for reform in (X, Y):
                want = sum(
                    1 << tally_class_index(n, nx, ny)
                    for nx, ny in tally_classes(n)
                    if (ny >= m if reform is Y else nx < m)
                )
                assert threshold_table_rule(n, m, reform).bits == want, (n, m, reform)


def test_anonymous_table_answers_only_on_tally_classes():
    table = AnonymousTableRule(2, 0b101101)
    assert [table.y_wins(nx, ny) for nx, ny in tally_classes(2)] == [
        True, False, True, True, False, True
    ]
    for nx, ny in [(-1, 0), (0, -1), (3, 0), (0, 3), (2, 1), (1, 2)]:
        with pytest.raises(ValueError, match="is not a tally class for n=2"):
            table.y_wins(nx, ny)


def test_threshold_rule_expresses_the_court_rule_of_four():
    hears = threshold_table_rule(9, 4, X)
    assert hears.evaluate(Profile.from_counts(4, 5, 0)) is X
    assert hears.evaluate(Profile.from_counts(3, 6, 0)) is Y
    assert hears.evaluate(Profile.from_counts(0, 0, 9)) is Y
    # with a qualified threshold it coincides with the quota rule
    assert rules_equal(
        threshold_table_rule(3, 2, Y), QualifiedMajorityRule(3, 2, Y), 3
    )
