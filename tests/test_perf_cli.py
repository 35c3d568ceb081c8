"""The ``python -m benchmarks.perf --compare`` gate compares against OLD.

The documented gate is ``--quick --compare BENCH_perf.json`` with the
default ``--output``, which is that same file: the committed report must be
read before the run and must not be overwritten by it, or the determinism
check would compare the fresh run with itself.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf import __main__ as perf_cli
from benchmarks.perf import determinism


def _probe(fingerprint: str) -> dict:
    return {
        "probe_version": determinism.PROBE_VERSION,
        "fingerprint": fingerprint,
        "repeat_identical": True,
        "sharded_parity_identical": True,
    }


@pytest.fixture
def committed_report(tmp_path, monkeypatch):
    """A committed report at the default output path, plus a stubbed run."""
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"quick": True, "results": {}, "determinism": _probe("old")}))
    monkeypatch.setattr(perf_cli, "DEFAULT_OUTPUT", str(path))
    monkeypatch.setattr(perf_cli, "_SUITES", {"kernel": lambda quick: {}})
    monkeypatch.setattr(determinism, "run_probe", lambda: _probe("new"))
    return path


def test_mismatch_fails_with_default_output(committed_report):
    before = committed_report.read_text()
    assert perf_cli.main(["--quick", "--compare", str(committed_report)]) == 1
    assert committed_report.read_text() == before
    fresh = json.loads(committed_report.with_name("BENCH_perf.new.json").read_text())
    assert fresh["determinism"]["fingerprint"] == "new"


def test_explicit_output_over_compare_report_is_refused(committed_report):
    before = committed_report.read_text()
    with pytest.raises(SystemExit):
        perf_cli.main(
            ["--quick", "--compare", str(committed_report), "--output", str(committed_report)]
        )
    assert committed_report.read_text() == before
