"""Every committed BENCH_<topic>.json record parses and names what it measured."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_required_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("topic", "parent", "claim", "machine", "env"):
        assert key in record, f"{path.name} has no {key!r}"
    for key in ("topic", "claim", "machine"):
        assert isinstance(record[key], str) and record[key].strip(), f"{path.name}: empty {key!r}"
    parent = record["parent"]
    assert isinstance(parent, str) and re.fullmatch(r"[0-9a-f]{40}", parent), parent
    assert isinstance(record["env"], dict) and record["env"], f"{path.name}: empty 'env'"
