import os
import runpy
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")
TRACE_BOUND_TABLE = os.path.join(SCRIPTS, "trace_bound_table.py")


def test_trace_bound_table_runs_and_writes_artifacts(tmp_path):
    # the script puts the checkout's src on sys.path itself
    out_dir = tmp_path / "artifacts"
    proc = subprocess.run(
        [sys.executable, TRACE_BOUND_TABLE, "--k", "3", "--out", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out_dir / "trace_bound_table.csv").stat().st_size > 0


def test_trace_bound_table_exits_1_on_a_failed_record(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(TRACE_BOUND_TABLE)

    calls = []

    def failing_scan(shapes, *ks):
        # one call for all contrasts; the records come contrast by contrast
        calls.append(ks)
        record = {"tr_M": 1.0, "eig_low": 0.5, "eig_high": 0.5, "slack2": 0.0,
                  "saturated2": True, "passed": True}
        return [{**record, "passed": i != 7} for i in range(len(ks) * len(shapes))]

    monkeypatch.setitem(script["main"].__globals__, "bound_gap_scan", failing_scan)
    monkeypatch.setattr(sys, "argv", ["trace_bound_table.py", "--k", "3,5", "--out", str(tmp_path)])
    assert script["main"]() == 1
    assert calls == [(3.0, 5.0)]
    assert "bound gap scan failed: ellipse 2:1 at k = 5\n" in capsys.readouterr().out


@pytest.mark.parametrize("k", ["abc", "1", "-2", "nan", "", "2,1"])
def test_trace_bound_table_refuses_a_contrast_naming_k(tmp_path, monkeypatch, capsys, k):
    # the command line's --k rule: a refusal is one line and exit 2, before any
    # solve or output directory
    script = runpy.run_path(TRACE_BOUND_TABLE)
    monkeypatch.setattr(sys, "argv", ["trace_bound_table.py", "--k", k, "--out", str(tmp_path / "o")])
    assert script["main"]() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: --k: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()
