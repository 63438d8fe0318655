#!/usr/bin/env python3
"""Fail when a change deletes or rewrites a line of CHANGES.md.

    python3 tools/check_changes_append_only.py --base <rev> [--head <rev>] [--path CHANGES.md]

CHANGES.md is the project's record: entries are appended, never edited.
Every non-empty line of the file at --base must still be there at --head
(default: the working tree), in the same order, either verbatim or in one
allowed rewrite: a line that starts with "FOUND: " may become "MENDED: "
followed by the same text, optionally followed by a note (" (...)").
Lines may be added anywhere. Exits 1 and names each lost line otherwise.

Example: `--base 10bb1c3 --head c836344` fails, naming the PR 23 entry and
the other lines that commit deleted or rewrote.
"""

import argparse
import subprocess
import sys

FOUND = "FOUND: "
MENDED = "MENDED: "


def read_at(rev, path):
    """The file's text at a git revision."""
    try:
        return subprocess.run(["git", "show", f"{rev}:{path}"], check=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True).stdout
    except subprocess.CalledProcessError as e:
        sys.exit(f"check_changes_append_only: cannot read {path} at {rev}: {e.stderr.strip()}")


def survives_as(old, new):
    """True when `new` keeps base line `old`: verbatim, or as its MENDED form."""
    if new == old:
        return True
    if not old.startswith(FOUND):
        return False
    mended = MENDED + old[len(FOUND):]
    return new == mended or new.startswith(mended + " (")


def lost_lines(old_text, new_text):
    """Base lines with no surviving counterpart, matched in order."""
    new_lines = new_text.splitlines()
    lost = []
    at = 0
    for old in (line for line in old_text.splitlines() if line.strip()):
        j = at
        while j < len(new_lines) and not survives_as(old, new_lines[j]):
            j += 1
        if j == len(new_lines):
            lost.append(old)
        else:
            at = j + 1
    return lost


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision the change starts from")
    ap.add_argument("--head", help="revision to check (default: the working tree)")
    ap.add_argument("--path", default="CHANGES.md")
    args = ap.parse_args()
    old_text = read_at(args.base, args.path)
    if args.head:
        new_text = read_at(args.head, args.path)
    else:
        with open(args.path, encoding="utf-8") as f:
            new_text = f.read()
    lost = lost_lines(old_text, new_text)
    for line in lost:
        shown = line if len(line) <= 160 else line[:157] + "..."
        print(f"deleted or rewritten: {shown}", file=sys.stderr)
    if lost:
        print(f"check_changes_append_only: {len(lost)} line(s) of {args.path} at {args.base} "
              "lost; add lines, or turn 'FOUND: x' into 'MENDED: x (note)'", file=sys.stderr)
        return 1
    print(f"check_changes_append_only: {args.path} keeps every line of {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
