"""Command line front end.

All reports are single JSON documents on standard output; diagnostics go
to standard error. Exit codes: 0 success / all checks pass, 1 an axiom or
verification failed, 2 malformed input, 3 precondition or guard
violation.

Start-up is most of a call's wall time at small n, so this module
imports only ``sys`` and click, and each subcommand imports the library
modules it runs: ``--help`` loads none, ``decide`` and ``tally`` no
``verifier``, ``verify`` and ``enumerate`` no ``axioms``, and ``check``
only ``core``, ``rules``, ``axioms`` (for the report types) and
``_tablecheck``, with no ``verifier`` and no ``_twosat``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import click

if TYPE_CHECKING:
    from .core import Profile

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3

# check works on bitsets of one bit per profile, so each further voter
# roughly triples its time and memory. The cap keeps a fresh call within
# 1 s and 256 MB peak RSS on 2 vCPUs (Intel Xeon, Python 3.11.7): at n=15
# a quota rule took 0.37-0.55 s and 63 MB, a table file with one flipped
# cell 0.55-0.69 s and 71 MB, an anonymous table 0.43-0.62 s and 61 MB;
# at n=16 a quota rule alone took 1.2-1.7 s and 155 MB.
_CHECK_MAX_N = 15

# Ballot choices, indexed by the value of their ``core.Preference``.
_CHOICES = ("X", "Y", "TIE")

# verifier.SPACE_FULL and SPACE_ANONYMOUS, restated so that parsing
# --space does not import the verifier; a test pins them to the originals.
SPACE_FULL = "full"
SPACE_ANONYMOUS = "anonymous"


class BallotError(ValueError):
    """Malformed ballot file."""


def read_ballots_text(text: str) -> Profile:
    """Parse ballot CSV: header ``voter,choice``, one row per voter.

    Choices are X, Y or TIE (case-insensitive); voter ids must be unique;
    at least two rows are required. Row order defines voter index order.
    """
    import csv
    import io

    from .core import Preference, Profile

    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise BallotError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise BallotError("empty ballot file")
    header = [c.strip().lower() for c in rows[0]]
    if header != ["voter", "choice"]:
        raise BallotError('ballot files start with the header "voter,choice"')
    prefs = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise BallotError(f"line {lineno}: expected two columns, got {len(row)}")
        voter, choice = row[0].strip(), row[1].strip().upper()
        if not voter:
            raise BallotError(f"line {lineno}: empty voter id")
        if voter in seen:
            raise BallotError(f"line {lineno}: duplicate voter id {voter!r}")
        seen.add(voter)
        if choice not in _CHOICES:
            raise BallotError(f"line {lineno}: choice must be X, Y or TIE, got {row[1]!r}")
        prefs.append(Preference(_CHOICES.index(choice)))
    if len(prefs) < 2:
        raise BallotError("a ballot file needs at least two voters")
    return Profile(tuple(prefs))


def read_ballots(path: str) -> Profile:
    with open(path, "r", encoding="utf-8-sig", newline="") as fp:
        try:
            text = fp.read()
        except UnicodeDecodeError as exc:
            raise BallotError(f"{path} is not UTF-8 text: {exc}") from None
    return read_ballots_text(text)


def ballots_text(profile: Profile) -> str:
    """Render a profile as a ballot file; re-ingesting yields the profile back.

    Voter ids are v1..vn (1-based, matching CLI-facing numbering)."""
    lines = ["voter,choice"]
    for i, pref in enumerate(profile, start=1):
        lines.append(f"v{i},{_CHOICES[pref]}")
    return "\n".join(lines) + "\n"


def _emit(doc) -> None:
    import json

    click.echo(json.dumps(doc, indent=2))


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_rule(spec: str, n: int, anonymous: bool):
    """A rule from ``builtin:qm:Q:A`` or from a table file path."""
    from .core import Alternative
    from .rules import AnonymousTableRule, QualifiedMajorityRule, TableRule

    if spec.startswith("builtin:"):
        parts = spec.split(":")
        if len(parts) != 4 or parts[1] != "qm":
            _die(EXIT_BAD_INPUT, f"unknown builtin rule {spec!r}; expected builtin:qm:Q:{{X,Y}}")
        try:
            quota = int(parts[2])
            reform = Alternative(parts[3].upper())
        except ValueError:
            _die(EXIT_BAD_INPUT, f"unknown builtin rule {spec!r}; expected builtin:qm:Q:{{X,Y}}")
        try:
            return QualifiedMajorityRule(n, quota, reform)
        except ValueError as exc:
            _die(EXIT_GUARD, str(exc))
    try:
        with open(spec, "r", encoding="utf-8-sig") as fp:
            line = fp.read()
    except OSError as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    except UnicodeDecodeError as exc:
        _die(EXIT_BAD_INPUT, f"{spec} is not UTF-8 text: {exc}")
    try:
        if anonymous:
            return AnonymousTableRule.from_line(n, line)
        return TableRule.from_line(n, line)
    except ValueError as exc:
        _die(EXIT_BAD_INPUT, str(exc))


@click.group()
def main() -> None:
    """Qualified majority voting over two alternatives X and Y."""


@main.command()
@click.option("--ballots", "ballots_path", required=True, help="CSV ballot file.")
@click.option("--q", "quota", required=True, type=int, help="Strict supporters the reform needs.")
@click.option("--reform", required=True, type=click.Choice(["X", "Y"], case_sensitive=False))
def decide(ballots_path: str, quota: int, reform: str) -> None:
    """Decide a ballot file under a qualified majority rule."""
    from .core import Alternative, is_qualified, tally
    from .rules import QualifiedMajorityRule

    try:
        profile = read_ballots(ballots_path)
    except (OSError, BallotError) as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    n = profile.n
    if not is_qualified(quota, n):
        _die(
            EXIT_GUARD,
            f"quota {quota} is not qualified for {n} voters: need 0 <= q <= n and q > n/2",
        )
    alt = Alternative(reform.upper())
    rule = QualifiedMajorityRule(n, quota, alt)
    t = tally(profile)
    _emit(
        {
            "n": n,
            "tally": {"x": t.n_x, "y": t.n_y, "indifferent": t.n_ind},
            "q": quota,
            "reform": alt.value,
            "winner": rule.evaluate(profile).value,
        }
    )


@main.command("tally")
@click.option("--ballots", "ballots_path", required=True, help="CSV ballot file.")
def tally_cmd(ballots_path: str) -> None:
    """Tally a ballot file without deciding it."""
    from .core import tally

    try:
        profile = read_ballots(ballots_path)
    except (OSError, BallotError) as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    t = tally(profile)
    _emit({"n": profile.n, "tally": {"x": t.n_x, "y": t.n_y, "indifferent": t.n_ind}})


@main.command()
@click.option("--rule", "rule_spec", required=True, help="Table file path or builtin:qm:Q:{X,Y}.")
@click.option("--n", "n", required=True, type=int, help="Number of voters.")
@click.option("--q", "quota", required=True, type=int, help="Quota for the q-neutrality check.")
@click.option("--anonymous", is_flag=True, help="Read the file as an anonymous tally table.")
def check(rule_spec: str, n: int, quota: int, anonymous: bool) -> None:
    """Check a rule for anonymity, responsiveness and q-neutrality."""
    if n < 1:
        _die(EXIT_GUARD, "need at least one voter")
    if n > _CHECK_MAX_N:
        count = f" = {3 ** n:,}" if n <= 40 else ""  # 3^n is slow to print for huge n
        _die(
            EXIT_GUARD,
            f"check at n={n} would walk all 3^{n}{count} profiles; the limit is n={_CHECK_MAX_N}",
        )
    rule = _load_rule(rule_spec, n, anonymous)
    if not 0 <= quota <= n:
        _die(EXIT_GUARD, f"quota must lie in 0..{n}, got {quota}")
    from ._tablecheck import run_table_checks

    reports = run_table_checks(rule, n, quota)
    _emit([r.to_json_dict() for r in reports])
    sys.exit(EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED)


def _run_enumerations(n, quotas, space):
    from .verifier import enumerate_anonymous, enumerate_full

    runner = enumerate_full if space == SPACE_FULL else enumerate_anonymous
    results = []
    for q in quotas:
        try:
            results.append(runner(n, q))
        except ValueError as exc:  # GuardError included
            _die(EXIT_GUARD, str(exc))
    return results


@main.command()
@click.option("--n", "n", required=True, type=int, help="Number of voters.")
@click.option("--q", "quota", type=int, default=None, help="Single quota to verify.")
@click.option("--all-q", "all_q", is_flag=True, help="Verify every quota 0..n.")
@click.option(
    "--space",
    type=click.Choice([SPACE_FULL, SPACE_ANONYMOUS]),
    default=SPACE_FULL,
    show_default=True,
)
@click.option("--no-timing", "no_timing", is_flag=True, help="Omit elapsed_ms from reports.")
def verify(n, quota, all_q, space, no_timing) -> None:
    """Enumerate a rule space and compare survivors against the quota rules."""
    from .verifier import GuardError, _guard_voters

    if (quota is None) and not all_q:
        _die(EXIT_BAD_INPUT, "provide --q or --all-q")
    if (quota is not None) and all_q:
        _die(EXIT_BAD_INPUT, "--q and --all-q are mutually exclusive")
    try:
        _guard_voters(n)
    except GuardError as exc:
        _die(EXIT_GUARD, str(exc))
    quotas = range(n + 1) if all_q else [quota]
    results = _run_enumerations(n, quotas, space)
    _emit([r.to_json_dict(include_timing=not no_timing) for r in results])
    sys.exit(EXIT_OK if all(r.matches_theorem for r in results) else EXIT_FAILED)


@main.command("enumerate")
@click.option("--n", "n", required=True, type=int, help="Number of voters.")
@click.option("--q", "quota", required=True, type=int, help="Quota to enumerate at.")
@click.option(
    "--space",
    type=click.Choice([SPACE_FULL, SPACE_ANONYMOUS]),
    default=SPACE_FULL,
    show_default=True,
)
@click.option("--no-timing", "no_timing", is_flag=True, help="Omit elapsed_ms from the report.")
def enumerate_cmd(n, quota, space, no_timing) -> None:
    """Like verify for one quota, but include each survivor's full table."""
    from .verifier import decode_rule

    result = _run_enumerations(n, [quota], space)[0]
    doc = result.to_json_dict(include_timing=not no_timing)
    for entry in doc["survivors"]:
        entry["table"] = decode_rule(space, n, entry["encoding"]).to_line()
    _emit(doc)
    sys.exit(EXIT_OK if result.matches_theorem else EXIT_FAILED)


if __name__ == "__main__":
    main()
