"""Tests of tools/compare_verify.py: the rows it prints and its exit code."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_verify", Path(__file__).resolve().parents[1] / "tools" / "compare_verify.py"
)
compare_verify = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_verify)

HEADER = "criterion_id,criterion,assertion,measured,threshold,status,relation\n"
ROWS = {
    "a": "4,ou_moment,z,0.5,3,PASS,<=\n",
    "b": "5,energy,residual,0.0726,0.1,PASS,<=\n",
    "b_moved": "5,energy,residual,0.0727,0.1,PASS,<=\n",
    "b_failed": "5,energy,residual,0.0726,0.1,FAIL,<=\n",
    "c": "6,apriori,bound,1.5,2,PASS,<=\n",
}


def _csv(tmp_path, name, keys):
    path = tmp_path / f"{name}.csv"
    path.write_text("# seed=1\n" + HEADER + "".join(ROWS[k] for k in keys))
    return str(path)


@pytest.mark.parametrize("change, code, printed, equal", [
    pytest.param(["a", "b"], 0, [], 2, id="equal"),
    pytest.param(["a", "b_moved"], 1, ["5:energy residual: 0.0726 PASS -> 0.0727 PASS"], 1, id="moved"),
    pytest.param(["a", "b_failed"], 1, ["5:energy residual: 0.0726 PASS -> 0.0726 FAIL"], 1, id="status"),
    pytest.param(["a"], 1, ["5:energy residual: 0.0726 PASS -> -"], 1, id="missing"),
    pytest.param(["a", "b", "c"], 1, ["6:apriori bound: - -> 1.5 PASS"], 2, id="added"),
])
def test_exit_code_says_whether_a_row_moved(tmp_path, capsys, change, code, printed, equal):
    parent = _csv(tmp_path, "parent", ["a", "b"])
    assert compare_verify.main([parent, _csv(tmp_path, "change", change)]) == code
    assert capsys.readouterr().out.splitlines() == printed + [f"{equal} equal rows"]


def test_usage_error_exits_2(capsys):
    assert compare_verify.main(["only_one.csv"]) == 2
    assert "Usage" in capsys.readouterr().err
