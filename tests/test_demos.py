"""The quick demos run end to end and clean up after themselves.

Demos 03, 04 and 06 train for 5-12 s each on one thread, so here they are
only imported: every demo guards `main()` behind `__main__`, so running one
under another name resolves its imports without training anything. The CI
`demos` job runs all six end to end.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_generate_corpus", "02_attention_and_parse", "05_evaluation_reports"],
)
def test_demo_runs_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert not list(tmp_path.glob("lisa-demo05-*"))


@pytest.mark.parametrize(
    "demo",
    ["03_train_to_convergence", "04_parse_sources", "06_contextual_layers"],
)
def test_slow_demo_imports_resolve(demo):
    namespace = runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="demo")
    assert callable(namespace["main"])
