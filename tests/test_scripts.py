import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


@pytest.mark.parametrize(
    "script, args, artifacts",
    [
        (
            "minimal_trace_search.py",
            ["--k", "3", "--m-max", "3", "--n", "128"],
            ["minimal_trace_summary.json", "minimal_trace_trace.jsonl",
             "minimal_trace_overlay.svg"],
        ),
        ("trace_bound_table.py", ["--k", "3", "--n", "128"], ["trace_bound_table.csv"]),
    ],
)
def test_script_runs_and_writes_artifacts(tmp_path, script, args, artifacts):
    # each script puts the checkout's src on sys.path itself
    out_dir = tmp_path / "artifacts"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args, "--out", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in artifacts:
        assert (out_dir / name).stat().st_size > 0
