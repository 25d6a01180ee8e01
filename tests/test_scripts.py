"""Smoke tests: the scripts in scripts/ run and write what they promise."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Every gallery scene is drawn from exact values, so its SVG is pinned.
GALLERY_SHA256 = {
    "attractor": "0eec875fc2564f4e1ec315a7aa270fd2319b18983cf88ad711319b3a8e7795a6",
    "crossings": "fbdfb70a49592238f653c47327d8276c7d2e836a32ddd401ec9fd6e12ab75735",
    "self-crossing": "fc9b9f0c94a8d2d6543496dea85537209baabc0c99974392844a914d2fcb4b65",
    "rigid-cycle": "633d472fa5e0315e8df34163ce3ce7c4fb684bd6f7ab059394674358a1951735",
}


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_make_gallery(tmp_path):
    proc = _run("make_gallery.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{name}.svg" for name in GALLERY_SHA256)
    for name, digest in GALLERY_SHA256.items():
        data = (tmp_path / f"{name}.svg").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_mixed_slope_survey(tmp_path):
    proc = _run("mixed_slope_survey.py", "--steps", "50", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for label in ("both-shallow", "steep-reversal", "near-balanced"):
        rows = (tmp_path / f"{label}.csv").read_text().splitlines()
        assert rows[0] == "start_x,step,x,y,dist_corner_set,dist_orbit"
        assert len(rows) == 1 + 3 * 51
        assert (tmp_path / f"{label}.svg").read_text().startswith("<svg")
