"""The package's lazy exports behave like the eager imports they replace."""

import importlib
import subprocess
import sys

import pytest

import qmvote

# Every public name of the package, by the submodule that defines it.
EXPORTS = {
    "core": [
        "Alternative", "Preference", "Profile", "Tally", "adjacent_transpositions",
        "all_profiles", "dual", "is_qualified", "meets_quota", "permute",
        "qualified_quotas", "responsive_neighbors", "supporters", "tally",
    ],
    "rules": [
        "AnonymousTableRule", "QualifiedMajorityRule", "TableRule", "num_tally_classes",
        "qualified_majority_rules", "rules_equal", "tally_class_index", "tally_classes",
        "threshold_table_rule",
    ],
    "axioms": [
        "AxiomReport", "ContradictionWitness", "Witness", "check_anonymity",
        "check_anonymity_all_permutations", "check_neutrality", "check_q_neutrality",
        "check_responsiveness", "merge_profile", "replay_witness", "run_all_checks",
        "unqualified_quota_contradiction",
    ],
    "verifier": [
        "GuardError", "SPACE_ANONYMOUS", "SPACE_FULL", "SurvivorInfo", "VerificationResult",
        "enumerate_anonymous", "enumerate_full", "survivors_anonymous", "survivors_full",
        "verify_characterization",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_45_public_names():
    assert len(NAMES) == 45
    assert sorted(qmvote.__all__) == NAMES
    assert qmvote.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_submodule_object(module):
    source = importlib.import_module(f"qmvote.{module}")
    for name in EXPORTS[module]:
        assert getattr(qmvote, name) is getattr(source, name), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from qmvote import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(qmvote))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        getattr(qmvote, "nope")


def test_bare_import_loads_no_submodule_and_needs_no_click():
    code = (
        "import sys\n"
        "sys.modules['click'] = None\n"
        "import qmvote\n"
        "print(sorted(m for m in sys.modules if m.startswith('qmvote.')))\n"
        "print(qmvote.core.__name__)\n"
        "print(qmvote.enumerate_anonymous(6, 4).matches_theorem)\n"
        "from qmvote import axioms\n"
        "print(axioms.run_all_checks is qmvote.run_all_checks)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "qmvote.core", "True", "True"]


def test_library_runs_without_numpy():
    # the library and its tests need no numpy; this guards against its return
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qmvote import GuardError, enumerate_anonymous, enumerate_full, survivors_anonymous\n"
        "for result in (enumerate_full(3, 2), enumerate_anonymous(6, 4)):\n"
        "    print(result.matches_theorem, len(result.survivors))\n"
        "no_axioms = dict(use_responsiveness=False, use_neutrality=False)\n"
        "print(survivors_anonymous(4, 2, **no_axioms) == list(range(2**15)))\n"
        "try:\n"
        "    survivors_anonymous(5, 3, **no_axioms)\n"
        "except GuardError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True 2",
        "True 2",
        "True",
        "more than 65,536 rules of the anonymous space at n=5 pass the selected axioms; "
        "select more axioms",
    ]
