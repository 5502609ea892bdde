import os
import runpy
import subprocess
import sys

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

    def failing_scan(shapes, k):
        record = {"tr_M": 1.0, "eig_low": 0.5, "eig_high": 0.5, "slack2": 0.0,
                  "saturated2": True, "passed": True}
        return [record] + [{**record, "passed": False} for _ in shapes[1:]]

    monkeypatch.setitem(script["main"].__globals__, "bound_gap_scan", failing_scan)
    monkeypatch.setattr(sys, "argv", ["trace_bound_table.py", "--k", "3", "--out", str(tmp_path)])
    assert script["main"]() == 1
    assert "bounds_verdict failed: ellipse 2:1 at k = 3" in capsys.readouterr().out
