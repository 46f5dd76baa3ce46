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


def test_sweep_digests_name_the_moved_cells():
    writer = load_writer()
    text = (ROOT / "tests" / "data" / "headline.csv").read_text()
    digest = writer.csv_digest(text)
    assert writer.moved_digest_cells(text, digest) == []
    header, first, *rest = text.splitlines()
    moved = first.replace(",393,", ",392,")
    assert moved != first
    got = writer.moved_digest_cells("\n".join([header, moved, *rest[1:]]) + "\n", digest)
    assert got == [f"{writer._cell(first)} -> {moved}", f"{writer._cell(rest[0])} -> missing"]


def test_sweep_digests_cover_the_configs():
    writer = load_writer()
    stored = json.loads(writer.SWEEP_DIGESTS.read_text())
    assert sorted(stored) == sorted(f"{cfg.stem}.csv" for cfg in writer.SWEEPS)
    for digest in stored.values():
        assert len(digest["sha256"]) == 64 and digest["cells"]
