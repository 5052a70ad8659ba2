"""The scripts under scripts/, each run in a subprocess on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_make_demo_data(tmp_path):
    out = run_script("make_demo_data.py", "--dir", tmp_path, "--n-docs", 3, "--variants", 2)
    assert "next: sumprobe run" in out
    config = json.loads((tmp_path / "config.json").read_text())
    for path in [config["corpus"], *config["summaries"].values()]:
        assert Path(path).stat().st_size > 0, path


def test_make_synthetic_corpus(tmp_path):
    out_path = tmp_path / "synth.jsonl"
    run_script("make_synthetic_corpus.py", "--out", out_path, "--n-docs", 4)
    assert len(out_path.read_text().splitlines()) == 4

