"""The fixed-seed golden case reproduces its recorded artefacts byte for byte."""

import json

import pytest

from golden_case import CASE_PATH, build_case, environment


def test_golden_case_is_byte_identical(tmp_path):
    recorded = json.loads(CASE_PATH.read_text(encoding="utf-8"))
    here = environment()
    mismatch = {
        key: (recorded["environment"].get(key), value)
        for key, value in here.items()
        if recorded["environment"].get(key) != value
    }
    if mismatch:
        pytest.skip(f"golden case was recorded under another environment: {mismatch}")
    assert build_case(tmp_path) == recorded["case"]
