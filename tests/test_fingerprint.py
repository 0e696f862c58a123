"""Tests for the comparison of two files written by tools/fingerprint.py, on
small hand-written files: no runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "fingerprint",
    Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

A = {"theo1/primitive/farfield/mc": {"final_state": "aa", "steps": "bb"},
     "study/n": {"rows": "cc"}}


@pytest.mark.parametrize("b, code, line", [
    (A, 0, "2 shared cases, 0 differing fields, 0 cases in one file only"),
    ({**A, "study/n": {"rows": "dd"}}, 1, "study/n: rows differs"),
    ({**A, "study/n": {}}, 1, "study/n: rows differs"),
    ({**A, "mms/primitive/128": {"steps": "ee"}}, 1,
     "mms/primitive/128: only in B"),
], ids=["identical", "differing-field", "missing-field", "one-file-only"])
def test_compare(b, code, line, tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(A))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert fingerprint.compare(str(tmp_path / "a.json"),
                               str(tmp_path / "b.json")) == code
    assert line in capsys.readouterr().out.splitlines()
