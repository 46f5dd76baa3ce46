"""The solver against its golden per-drop record, field for field."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_writer():
    spec = importlib.util.spec_from_file_location("write_drop_record",
                                                  ROOT / "scripts" / "write_drop_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drops_match_the_record():
    writer = load_writer()
    want = json.loads(writer.DEFAULT_OUTPUT.read_text())
    got = writer.record()
    assert len(got) == len(want) == 70
    moved = writer.moved_drops(got, want)
    assert not moved, f"{len(moved)} drops moved from the record:\n" + "\n".join(moved)
