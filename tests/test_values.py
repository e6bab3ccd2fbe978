"""The package's value types: immutable, compared by value and exact class."""

import copy
import inspect
import pickle

import pytest

from qmvote.axioms import (
    AxiomReport,
    ContradictionWitness,
    Witness,
    replay_witness,
    run_all_checks,
    unqualified_quota_contradiction,
)
from qmvote.core import Alternative, FrozenValue, Profile, Tally
from qmvote.rules import AnonymousTableRule, QualifiedMajorityRule, TableRule
from qmvote.verifier import SurvivorInfo, VerificationResult

X, Y = Alternative.X, Alternative.Y
P = Profile.from_string
WITNESS = Witness(P("XY"), P("YX"), X, Y)
SURVIVOR = SurvivorInfo(3, "sigma_2^X")

# one value of each type, and its repr
REPRS = [
    (P("XYI"), "Profile('XYI')"),
    (Tally(1, 1, 0), "Tally(n_x=1, n_y=1, n_ind=0)"),
    (
        QualifiedMajorityRule(3, 2, X),
        "QualifiedMajorityRule(n=3, q=2, reform=<Alternative.X: 'X'>)",
    ),
    (TableRule(1, 5), "TableRule(n=1, bits=5)"),
    (AnonymousTableRule(1, 5), "AnonymousTableRule(n=1, bits=5)"),
    (
        WITNESS,
        "Witness(profile=Profile('XY'), counterpart=Profile('YX'), "
        "expected=<Alternative.X: 'X'>, observed=<Alternative.Y: 'Y'>)",
    ),
    (
        AxiomReport("anonymity", False, WITNESS),
        "AxiomReport(axiom='anonymity', passed=False, witness=Witness(profile=Profile('XY'), "
        "counterpart=Profile('YX'), expected=<Alternative.X: 'X'>, "
        "observed=<Alternative.Y: 'Y'>), q=None)",
    ),
    (
        AxiomReport("q-neutrality", True, q=2),
        "AxiomReport(axiom='q-neutrality', passed=True, witness=None, q=2)",
    ),
    (SURVIVOR, "SurvivorInfo(encoding=3, pretty='sigma_2^X')"),
    (
        VerificationResult(2, 2, "full", 512, (SURVIVOR,), True, 1.5),
        "VerificationResult(n=2, q=2, space='full', rules_examined=512, "
        "survivors=(SurvivorInfo(encoding=3, pretty='sigma_2^X'),), matches_theorem=True, "
        "elapsed_ms=1.5)",
    ),
    (
        unqualified_quota_contradiction(QualifiedMajorityRule(2, 2, X), 2, 1),
        "ContradictionWitness(profile=Profile('XY'), dual_profile=Profile('YX'), "
        "permutation=(1, 0), anonymity_requires=<Alternative.Y: 'Y'>, "
        "neutrality_requires=<Alternative.X: 'X'>, observed=<Alternative.Y: 'Y'>, "
        "violated_axiom='q-neutrality')",
    ),
]
VALUES = [value for value, _ in REPRS]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v in VALUES])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v in VALUES])
def test_values_are_immutable_and_compare_by_value(value, text):
    twin = copy.copy(value)
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
    # the first field, as the repr names it
    name = "voters" if isinstance(value, Profile) else text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert {value, twin} == {value}


def test_equality_is_type_strict():
    assert TableRule(2, 5) != AnonymousTableRule(2, 5)
    assert Tally(1, 1, 0) != (1, 1, 0)
    assert P("XY") != (0, 1)
    assert Tally(1, 1, 0) != Tally(1, 0, 1)
    assert AxiomReport("anonymity", True) == AxiomReport(axiom="anonymity", passed=True)
    assert QualifiedMajorityRule(3, 2, X) == QualifiedMajorityRule(n=3, q=2, reform=X)
    assert len({QualifiedMajorityRule(3, 2, X), QualifiedMajorityRule(3, 2, Y)}) == 2


def test_profile_index_is_not_a_field():
    profile = Profile([0, 1, 2])
    assert profile.voters == P("XYI").voters and profile.index == 0 + 1 * 3 + 2 * 9
    assert copy.deepcopy(profile).index == profile.index


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Profile(()), "a profile needs at least one voter"),
        (lambda: Profile((5,)), "5 is not a valid Preference"),
        (lambda: QualifiedMajorityRule(0, 1, X), "rule needs at least one voter"),
        (
            lambda: QualifiedMajorityRule(3, 1, X),
            "quota 1 is not qualified for n=3: need 0 <= q <= n and 2q > n",
        ),
        (lambda: TableRule(0, 1), "rule needs at least one voter"),
        (lambda: TableRule(1, 8), "bits out of range for n=1"),
        (lambda: TableRule(1, -1), "bits out of range for n=1"),
        (lambda: AnonymousTableRule(0, 1), "rule needs at least one voter"),
        (lambda: AnonymousTableRule(1, 8), "bits out of range for n=1"),
        (lambda: AnonymousTableRule(1, -1), "bits out of range for n=1"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# the types whose constructor FrozenValue generates from their fields
GENERATED = [Tally, Witness, AxiomReport, SurvivorInfo, VerificationResult, ContradictionWitness]


@pytest.mark.parametrize("cls", GENERATED, ids=[cls.__name__ for cls in GENERATED])
def test_generated_constructors_take_the_fields_in_order(cls):
    assert "__init__" in cls.__dict__ and cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == ({"witness": None, "q": None} if cls is AxiomReport else {})
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1, 2), {}, "missing 1 required positional argument: 'n_ind'"),
        ((1, 2, 3, 4), {}, "takes 4 positional arguments but 5 were given"),
        ((1, 2), {"n_x": 3}, "got multiple values for argument 'n_x'"),
        ((1, 2, 3), {"extra": 0}, "got an unexpected keyword argument 'extra'"),
    ],
)
def test_generated_constructors_raise_the_interpreters_errors(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        Tally(*args, **kwargs)
    assert str(info.value) == f"Tally.__init__() {message}"


def test_constructors_keep_their_signatures():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'reform'"):
        QualifiedMajorityRule(3, 2)
    report = AxiomReport("q-neutrality", True, None, 2)
    assert (report.witness, report.q) == (None, 2)
    assert isinstance(unqualified_quota_contradiction(lambda p: X, 4, 2), ContradictionWitness)


def test_failed_reports_rebuild_positionally_from_their_json():
    # the benchmark's correctness gate rebuilds each failed report this way
    rule = AnonymousTableRule.from_line(3, "XXYXYXYYXY").lift()
    failed = [r for r in run_all_checks(rule, 3, 2) if not r.passed]
    assert failed
    for report in failed:
        doc = report.to_json_dict()
        w = doc["witness"]
        expected, observed = Alternative(w["expected"]), Alternative(w["observed"])
        witness = Witness(P(w["profile"]), P(w["counterpart"]), expected, observed)
        rebuilt = AxiomReport(doc["axiom"], False, witness, doc.get("q"))
        assert rebuilt == report and replay_witness(rebuilt, rule, 3)


def test_a_subclass_that_writes_its_own_constructor_keeps_it():
    class Pair(FrozenValue):
        __slots__ = _fields = ("low", "high")

        def __init__(self, a, b):
            self._set(min(a, b), max(a, b))

    assert tuple(inspect.signature(Pair).parameters) == ("a", "b")
    assert (Pair(3, 1).low, Pair(3, 1).high) == (1, 3) and Pair(3, 1) == Pair(1, 3)


def test_a_subclass_inherits_a_validating_constructor():
    class Sub(QualifiedMajorityRule):
        __slots__ = ()

    with pytest.raises(ValueError, match="quota 0 is not qualified for n=1"):
        Sub(1, 0, X)
    assert tuple(inspect.signature(Sub).parameters) == Sub._fields == ("n", "q", "reform")
    assert Sub(1, 1, X) != QualifiedMajorityRule(1, 1, X)


def test_generated_defaults_are_the_declared_objects():
    unit = object()  # no repr reads back to it

    class Scaled(FrozenValue):
        __slots__ = _fields = ("value", "scale")
        _defaults = {"scale": unit}

    assert tuple(inspect.signature(Scaled).parameters) == ("value", "scale")
    assert Scaled(2).scale is unit and Scaled(2) == Scaled(value=2, scale=unit) != Scaled(2, 3)
