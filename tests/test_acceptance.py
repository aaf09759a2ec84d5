"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (run ``pytest -s`` to see
them live); failures carry the offending assertion lines.
"""

import pytest

from dnpde import acceptance


@pytest.mark.parametrize(
    "cid", sorted(acceptance.CRITERIA), ids=[f"{c:02d}_{acceptance.CRITERIA[c][0]}" for c in sorted(acceptance.CRITERIA)]
)
def test_criterion(cid, tmp_path):
    name, fn = acceptance.CRITERIA[cid]
    result = fn(workdir=str(tmp_path))
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {cid:2d} {name}: {status}")
    for line in result.lines():
        print("   ", line)
    assert result.passed, "\n".join(
        a.line() for a in result.assertions if not a.passed
    )
