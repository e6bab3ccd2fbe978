"""Render a profile as a ballot file, the inverse of ``qmvote.cli.read_ballots_text``."""

# Ballot choices, indexed by the value of their ``core.Preference``.
CHOICES = ("X", "Y", "TIE")


def ballots_text(profile):
    """The ballot file of ``profile``; reading it back gives the profile.

    Voter ids are v1..vn (1-based, matching CLI-facing numbering)."""
    lines = ["voter,choice"]
    for i, pref in enumerate(profile, start=1):
        lines.append(f"v{i},{CHOICES[pref]}")
    return "\n".join(lines) + "\n"
