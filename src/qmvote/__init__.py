"""Qualified majority voting over two alternatives.

Ballot decisions under quota rules, executable anonymity /
responsiveness / q-neutrality checks with replayable witnesses, and
exhaustive verification that those three axioms pin down exactly the
qualified majority rules on small voter counts.

The names below are loaded on first access (PEP 562): ``import qmvote``
imports no submodule, and ``qmvote.verify_characterization`` imports
``qmvote.verifier`` and what it needs. The submodules themselves
(``qmvote.core``, ``qmvote.rules``, ``qmvote.axioms``,
``qmvote.verifier``) resolve the same way. So a caller, the command line
included, pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Alternative",
        "Preference",
        "Profile",
        "Tally",
        "adjacent_transpositions",
        "all_profiles",
        "dual",
        "is_qualified",
        "meets_quota",
        "permute",
        "qualified_quotas",
        "responsive_neighbors",
        "supporters",
        "tally",
    ),
    "rules": (
        "AnonymousTableRule",
        "QualifiedMajorityRule",
        "TableRule",
        "num_tally_classes",
        "qualified_majority_rules",
        "rules_equal",
        "tally_class_index",
        "tally_classes",
        "threshold_table_rule",
    ),
    "axioms": (
        "AxiomReport",
        "ContradictionWitness",
        "Witness",
        "check_anonymity",
        "check_anonymity_all_permutations",
        "check_neutrality",
        "check_q_neutrality",
        "check_responsiveness",
        "merge_profile",
        "replay_witness",
        "run_all_checks",
        "unqualified_quota_contradiction",
    ),
    "verifier": (
        "GuardError",
        "SPACE_ANONYMOUS",
        "SPACE_FULL",
        "SurvivorInfo",
        "VerificationResult",
        "enumerate_anonymous",
        "enumerate_full",
        "survivors_anonymous",
        "survivors_full",
        "verify_characterization",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
