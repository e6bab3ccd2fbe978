"""Command line front end.

All reports are single JSON documents on standard output; diagnostics go
to standard error. Exit codes: 0 success / all checks pass, 1 an axiom or
verification failed, 2 malformed input or a usage error, 3 precondition or
guard violation.

Start-up is most of a call's wall time at small n, so this module imports
only ``sys``, ``functools`` and ``argparse`` from the standard library, and
each subcommand imports the library modules it runs: ``--help`` loads
none, ``decide`` and ``tally`` no ``verifier``, ``verify`` and
``enumerate`` only ``core``, ``rules`` and ``verifier``, and ``check``
only ``core``, ``rules`` and ``_tablecheck``, which defines the report
types itself, with no ``axioms`` and no ``verifier``.

Every input file is read by ``_read_text``, and ``decide`` and ``tally``
share one ballot path, ``_read_ballot_file``.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
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
        # each record with the line it ends on, blank lines skipped
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise BallotError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise BallotError("empty ballot file")
    header = [c.strip().lower() for c in rows[0][1]]
    if header != ["voter", "choice"]:
        raise BallotError('ballot files start with the header "voter,choice"')
    prefs = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
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


def _emit(doc) -> None:
    import json

    text = json.dumps(doc, indent=2) + "\n"
    try:
        # one write: a reader who leaves part-way through it ends the call
        # quietly, and one who left before it gets exit code 1
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        # no traceback from the interpreter's final flush either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FAILED)


def _die(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read_text(path: str, newline: str | None = None) -> str:
    """The text of UTF-8 file ``path``, less any byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fp:
            return fp.read()
    except OSError as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    except UnicodeDecodeError as exc:
        _die(EXIT_BAD_INPUT, f"{path} is not UTF-8 text: {exc}")


def _read_ballot_file(path: str) -> tuple[Profile, dict]:
    """The profile in ballot file ``path`` and its report ``{"n", "tally"}``."""
    from .core import tally

    try:
        profile = read_ballots_text(_read_text(path, newline=""))  # csv reads line ends
    except BallotError as exc:
        _die(EXIT_BAD_INPUT, str(exc))
    t = tally(profile)
    return profile, {"n": profile.n, "tally": {"x": t.n_x, "y": t.n_y, "indifferent": t.n_ind}}


def _load_rule(spec: str, n: int, anonymous: bool):
    """A rule from ``builtin:qm:Q:A`` or from a table file path."""
    from .core import Alternative
    from .rules import AnonymousTableRule, QualifiedMajorityRule, TableRule

    if spec.startswith("builtin:"):
        try:
            _, kind, quota, reform = spec.split(":")
            if kind != "qm":
                raise ValueError(kind)
            quota, reform = int(quota), Alternative(reform.upper())
        except ValueError:
            _die(EXIT_BAD_INPUT, f"unknown builtin rule {spec!r}; expected builtin:qm:Q:{{X,Y}}")
        try:
            return QualifiedMajorityRule(n, quota, reform)
        except ValueError as exc:
            _die(EXIT_GUARD, str(exc))
    line = _read_text(spec)
    try:
        return (AnonymousTableRule if anonymous else TableRule).from_line(n, line)
    except ValueError as exc:
        _die(EXIT_BAD_INPUT, str(exc))


def decide(args) -> int:
    """Decide a ballot file under a qualified majority rule."""
    from .core import Alternative
    from .rules import QualifiedMajorityRule

    profile, report = _read_ballot_file(args.ballots)
    alt = Alternative(args.reform)
    try:
        rule = QualifiedMajorityRule(profile.n, args.q, alt)
    except ValueError as exc:
        _die(EXIT_GUARD, str(exc))
    _emit({**report, "q": args.q, "reform": alt.value, "winner": rule.evaluate(profile).value})
    return EXIT_OK


def tally_cmd(args) -> int:
    """Tally a ballot file without deciding it."""
    _emit(_read_ballot_file(args.ballots)[1])
    return EXIT_OK


def check(args) -> int:
    """Check a rule for anonymity, responsiveness and q-neutrality."""
    n, quota = args.n, args.q
    if n < 1:
        _die(EXIT_GUARD, "need at least one voter")
    if n > _CHECK_MAX_N:
        count = f" = {3 ** n:,}" if n <= 40 else ""  # 3^n is slow to print for huge n
        _die(
            EXIT_GUARD,
            f"check at n={n} would walk all 3^{n}{count} profiles; the limit is n={_CHECK_MAX_N}",
        )
    rule = _load_rule(args.rule, n, args.anonymous)
    if not 0 <= quota <= n:
        _die(EXIT_GUARD, f"quota must lie in 0..{n}, got {quota}")
    from ._tablecheck import run_table_checks

    reports = run_table_checks(rule, n, quota)
    _emit([r.to_json_dict() for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def _run_enumerations(n, quotas, space):
    from .verifier import _SPACES, _enumerate

    try:
        return _enumerate(_SPACES[space], n, quotas)
    except ValueError as exc:  # GuardError included
        _die(EXIT_GUARD, str(exc))


def verify(args) -> int:
    """Enumerate a rule space and compare survivors against the quota rules."""
    if (args.q is None) and not args.all_q:
        _die(EXIT_BAD_INPUT, "provide --q or --all-q")
    if (args.q is not None) and args.all_q:
        _die(EXIT_BAD_INPUT, "--q and --all-q are mutually exclusive")
    quotas = range(args.n + 1) if args.all_q else [args.q]
    results = _run_enumerations(args.n, quotas, args.space)
    _emit([r.to_json_dict(include_timing=not args.no_timing) for r in results])
    return EXIT_OK if all(r.matches_theorem for r in results) else EXIT_FAILED


def enumerate_cmd(args) -> int:
    """Like verify for one quota, but include each survivor's full table."""
    from .rules import AnonymousTableRule, TableRule

    result = _run_enumerations(args.n, [args.q], args.space)[0]
    doc = result.to_json_dict(include_timing=not args.no_timing)
    table = TableRule if args.space == SPACE_FULL else AnonymousTableRule
    for entry in doc["survivors"]:
        entry["table"] = table(args.n, entry["encoding"]).to_line()
    _emit(doc)
    return EXIT_OK if result.matches_theorem else EXIT_FAILED


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout under a ``Usage:`` heading."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


# built once per process: building it costs more than a small call computes
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. Only ``--help`` prints help (there
    is no ``-h``), no option may be abbreviated, and usage errors exit 2."""
    style = dict(formatter_class=_HelpFormatter, add_help=False, allow_abbrev=False)

    def with_help(parser):
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        return parser

    parser = with_help(
        argparse.ArgumentParser(
            prog="qmvote",
            description="Qualified majority voting over two alternatives X and Y.",
            **style,
        )
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run, name):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, **style)
        sub.set_defaults(run=run)
        return with_help(sub)

    spaces = (SPACE_FULL, SPACE_ANONYMOUS)
    space_help = f"Rule space. [default: {SPACE_FULL}]"

    sub = command(decide, "decide")
    sub.add_argument("--ballots", required=True, help="CSV ballot file.")
    sub.add_argument("--q", type=int, required=True, help="Strict supporters the reform needs.")
    sub.add_argument(
        "--reform", type=str.upper, choices=("X", "Y"), required=True, help="X or Y, either case."
    )

    sub = command(tally_cmd, "tally")
    sub.add_argument("--ballots", required=True, help="CSV ballot file.")

    sub = command(check, "check")
    sub.add_argument("--rule", required=True, help="Table file path or builtin:qm:Q:{X,Y}.")
    sub.add_argument("--n", type=int, required=True, help="Number of voters.")
    sub.add_argument("--q", type=int, required=True, help="Quota for the q-neutrality check.")
    sub.add_argument(
        "--anonymous", action="store_true", help="Read the file as an anonymous tally table."
    )

    sub = command(verify, "verify")
    sub.add_argument("--n", type=int, required=True, help="Number of voters.")
    sub.add_argument("--q", type=int, help="Single quota to verify.")
    sub.add_argument("--all-q", action="store_true", help="Verify every quota 0..n.")
    sub.add_argument("--space", choices=spaces, default=SPACE_FULL, help=space_help)
    sub.add_argument("--no-timing", action="store_true", help="Omit elapsed_ms from reports.")

    sub = command(enumerate_cmd, "enumerate")
    sub.add_argument("--n", type=int, required=True, help="Number of voters.")
    sub.add_argument("--q", type=int, required=True, help="Quota to enumerate at.")
    sub.add_argument("--space", choices=spaces, default=SPACE_FULL, help=space_help)
    sub.add_argument("--no-timing", action="store_true", help="Omit elapsed_ms from the report.")
    return parser


# Options that take a value. Such an option reads the next word whatever
# it looks like (``--rule -r.rule``); argparse alone would read a word that
# starts with "-" as an option.
_VALUE_OPTIONS = frozenset({"--ballots", "--n", "--q", "--reform", "--rule", "--space"})


def _words(argv: list[str]) -> list[str]:
    """``argv`` with each value option joined to its value, and a closing
    "--" dropped: "--" ends the options, and no subcommand takes arguments."""
    words: list[str] = []
    rest = iter(argv)
    for word in rest:
        if word == "--":
            after = list(rest)
            return words + ["--", *after] if after else words
        value = next(rest, None) if word in _VALUE_OPTIONS else None
        words.append(word if value is None else f"{word}={value}")
    return words


def main(argv: list[str] | None = None) -> int:
    """Run one ``qmvote`` call on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code. Usage errors and ``_die`` raise ``SystemExit``."""
    args = _parser().parse_args(_words(sys.argv[1:] if argv is None else list(argv)))
    return args.run(args)


def _click_style_main(args=(), prog_name=None, **extra):
    sys.exit(main(list(args)))


# perfbench/tracing.py drives the CLI in-process through
# click.testing.CliRunner, which reads these two attributes of the command
# it invokes. Remove them once the benchmark calls main(argv) itself
# (ROADMAP item 1).
main.name = "qmvote"
main.main = _click_style_main


if __name__ == "__main__":
    sys.exit(main())
