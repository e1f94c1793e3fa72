"""Report files: an existing --out file is overwritten in place and cut to
length, never truncated first, and ends up as a fresh file would."""

import os
import types

import pytest

from sconvexlab import harness
from sconvexlab.cli import dispatch, write_text

# Commands that write a report to {out}.
REPORT_CALLS = {
    "verify-csv": ["verify", "--suite", "all", "--cases", "3", "--seed", "42", "--format", "csv", "--out", "{out}"],
    "verify-json": ["verify", "--suite", "reductions", "--cases", "3", "--seed", "42", "--format", "json",
                    "--out", "{out}"],
    "sweep": ["sweep", "--theorem", "se2", "--f", "1*x^2", "--a", "1", "--b", "3", "--s-grid", "0.05:1:0.05",
              "--out", "{out}"],
}


@pytest.fixture(autouse=True)
def _no_runtime(monkeypatch):
    # A JSON report holds each suite's runtime_ms: stop the clock so that
    # two runs write the same bytes.
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))


def _report(capsys, call, out):
    assert dispatch([arg.format(out=out) for arg in REPORT_CALLS[call]]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("call", sorted(REPORT_CALLS))
def test_a_longer_existing_file_ends_as_a_fresh_one(capsys, tmp_path, call):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    _report(capsys, call, fresh)
    expected = fresh.read_bytes()
    old.write_bytes(b"x\n" * len(expected))
    _report(capsys, call, old)
    assert old.read_bytes() == expected


@pytest.mark.parametrize("call", sorted(REPORT_CALLS))
def test_the_file_keeps_its_inode_and_hard_links(capsys, tmp_path, call):
    path, link = tmp_path / "report", tmp_path / "link"
    path.write_bytes(b"x\n" * 100_000)
    os.chmod(path, 0o600)
    os.link(path, link)
    inode = path.stat().st_ino
    _report(capsys, call, path)
    _report(capsys, call, tmp_path / "fresh")
    assert path.stat().st_ino == inode
    assert path.stat().st_mode & 0o777 == 0o600
    assert link.read_bytes() == path.read_bytes() == (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("call", ["verify-csv", "sweep"])
def test_a_device_is_written_and_never_cut(capsys, call):
    _report(capsys, call, os.devnull)


def test_a_raising_chunk_leaves_the_chunks_before_it(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"x" * 1000)

    def chunks():
        # Nothing is truncated before the first chunk is written.
        assert path.stat().st_size == 1000
        yield "head\n"
        yield "row 1\n"
        raise RuntimeError("cut short")

    with pytest.raises(RuntimeError, match="cut short"):
        write_text(str(path), chunks())
    assert path.read_bytes() == b"head\nrow 1\n"


def test_text_is_utf8_with_no_newline_translation(tmp_path):
    path = tmp_path / "report.txt"
    write_text(str(path), ["a\r\n", "é\n", ""])
    assert path.read_bytes() == b"a\r\n\xc3\xa9\n"
