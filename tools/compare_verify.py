"""Compare two ``*_verify.csv`` files written by ``dnpde verify``.

Prints each row whose measured value or status differs, with both values,
then the count of equal rows.  Rows are matched by criterion and assertion;
a row found in one file only is printed with ``-`` for the other side.
Exits 0 when every row is equal, 1 when a row moved or is missing from
either file, 2 on a usage error.

Usage: ``python tools/compare_verify.py PARENT.csv CHANGE.csv``.
"""

import csv
import sys


def read_rows(path):
    """``{(criterion_id, criterion, assertion): row}`` of one verify CSV."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {(r["criterion_id"], r["criterion"], r["assertion"]): r for r in csv.DictReader(lines)}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    parent, change = (read_rows(path) for path in argv)
    equal = moved = 0
    for key in list(parent) + [k for k in change if k not in parent]:
        a, b = parent.get(key), change.get(key)
        if a and b and (a["measured"], a["status"]) == (b["measured"], b["status"]):
            equal += 1
            continue
        old, new = (f"{r['measured']} {r['status']}" if r else "-" for r in (a, b))
        print(f"{key[0]}:{key[1]} {key[2]}: {old} -> {new}")
        moved += 1
    print(f"{equal} equal rows")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
