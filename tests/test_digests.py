"""scripts/digests.py: two runs of one matrix write byte-identical files."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
MATRIX = ["--models", "y_only-put,y_only-call", "--lattices", "33x25"]


def _run(*args):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digests.py"), *MATRIX, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_digests_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert _run("--out", str(first)).returncode == 0
    again = _run("--out", str(second), "--against", str(first))
    assert again.returncode == 0, again.stdout + again.stderr
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    for output in ("surface.values", "region0.C1", "line.level", "lines.level",
                   "audit.dominance_worst_gap", "sim.rule", "sim.rule_x0.9",
                   "sim.rule_x1.1"):
        assert f"y_only-call/33x25/{output} " in text
    for output in ("put_curve.values", "put_curve.switches", "put_curve.max_step_error",
                   "put2d.values", "put2d.coefficients"):
        assert f"y_only-put/2d/{output} " in text
    for output in ("call2d.switches", "call2d.values", "call2d.coefficients"):
        assert f"y_only-call/2d/{output} " in text
    for output in ("boundary2d.run", "boundary3d.run", "boundary3d.boundary3d.csv",
                   "boundary3d.switches.csv", "boundary3d.caps.csv", "value3d.run",
                   "value3d.value.csv"):
        assert f"y_only-put/cli/{output} " in text
    assert "y_only-call/cli/" not in text
    assert "0 differ" in again.stdout
