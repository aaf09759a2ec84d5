"""Acceptance suite: every criterion at its stated tolerance.

Each test prints its criterion's assertion lines (run ``pytest -s`` to see
them live); failures carry the offending assertion lines.
"""

import re
from pathlib import Path

import pytest

from dnpde import acceptance, cli

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "cid", sorted(acceptance.CRITERIA), ids=[f"{c:02d}_{acceptance.CRITERIA[c][0]}" for c in sorted(acceptance.CRITERIA)]
)
def test_criterion(cid, tmp_path):
    name = acceptance.CRITERIA[cid][0]
    (result,) = acceptance.run_criteria([cid], workdir=str(tmp_path))
    print(f"ACCEPTANCE {cid:2d} {name}")
    for line in result.lines():
        print("   ", line)
    failed = [a.line() for a in result.assertions if a.status == "FAIL"]
    assert not failed, "\n".join(failed)


def test_repro_counts_a_failed_execution(tmp_path, monkeypatch):
    # the second sweep exits 1 with its files intact: the row fails on the
    # exit code alone, and its measured value counts that fault
    main, sweeps = cli.main, []

    def flaky_main(argv):
        code = main(argv)
        if argv[0] == "sweep":
            sweeps.append(argv)
            return 1 if len(sweeps) == 2 else code
        return code

    monkeypatch.setattr(cli, "main", flaky_main)
    rows = {a.name: a for a in acceptance.criterion_repro(workdir=str(tmp_path))}
    assert len(sweeps) == 2
    sweep = rows.pop("sweep_byte_identical")
    assert sweep.status == "FAIL" and sweep.measured >= 1
    assert [a.status for a in rows.values()] == ["PASS"] * 3


def test_readme_table_matches_criteria():
    # the README's acceptance table lists the registry's criteria, in order
    section = README.read_text().partition("## Acceptance suite")[2]
    rows = re.findall(r"^\| (\d+) \| `(\w+)` \|", section, re.M)
    assert [(int(cid), name) for cid, name in rows] == [
        (cid, name) for cid, (name, _) in acceptance.CRITERIA.items()
    ]
