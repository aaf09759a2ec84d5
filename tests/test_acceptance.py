"""Acceptance suite: every criterion at its stated tolerance.

Each test prints its criterion's assertion lines (run ``pytest -s`` to see
them live); failures carry the offending assertion lines.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from dnpde import acceptance, cli, config, verify

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


def test_integrals_are_walked_by_their_reader(tmp_path, monkeypatch):
    # a sweep entry is its run and its Cauchy distance; the run's integrals
    # are walked by whoever reads them: criterion 6 once per run, `dnpde
    # sweep` once per value, criteria 7 (distances only) and 9 (records) never
    assert [f.name for f in fields(verify.SweepEntry)] == ["trajectory", "cauchy_prev"]
    walk, calls = verify.record_integrals, []

    def counted(traj):
        calls.append(traj)
        return walk(traj)

    monkeypatch.setattr(verify, "record_integrals", counted)
    counts = {}
    for cid in (6, 7, 9):
        calls.clear()
        acceptance.run_criteria([cid])
        counts[cid] = len(calls)
    calls.clear()
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(acceptance._REPRO_CONFIG)
    argv = ["sweep", str(cfg), "--param", "lambda_yosida", "--values", "0.2,0.1,0.05"]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
    counts["sweep"] = len(calls)
    assert counts == {6: 6, 7: 0, 9: 0, "sweep": 3}


def test_model_criterion_without_graphs_or_noise_has_nothing_to_validate():
    rc = config.parse_config("[grid]\ndimension = 1\nextent = 1.0\nnodes = 8\n")
    rows = [(a.name, a.measured, a.status) for a in acceptance.criterion_model(rc=rc)]
    assert rows == [("nothing_to_validate", 0.0, "PASS")]


def test_selection_by_alias_number_and_name():
    # an alias expands in place, a number or name adds its id, repeats and
    # blanks drop out
    chosen = acceptance.resolve_selection(["convex_core", "3", " repro ", "1", ""])
    assert chosen == [1, 2, 3, 10]
    assert acceptance.resolve_selection(["all"]) == list(acceptance.CRITERIA)
    with pytest.raises(ValueError, match=r"^unknown criterion selector '11'$"):
        acceptance.resolve_selection(["11"])


def test_readme_table_matches_criteria():
    # the README's acceptance table lists the registry's criteria, in order
    section = README.read_text().partition("## Acceptance suite")[2]
    rows = re.findall(r"^\| (\d+) \| `(\w+)` \|", section, re.M)
    assert [(int(cid), name) for cid, name in rows] == [
        (cid, name) for cid, (name, _) in acceptance.CRITERIA.items()
    ]
