"""The scripts under scripts/, each run in a subprocess on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_process(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def run_script(name, *args):
    done = script_process(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


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


@pytest.mark.parametrize("sport, family", [("0.8", "0.2"), ("0.9", "0.1"), ("1", "0")])
def test_make_synthetic_corpus_takes_topic_shares_that_sum_to_1(tmp_path, sport, family):
    """1.0 - 0.8 - 0.2 rounds to -5.6e-17: the neutral share is 0, not negative."""
    out_path = tmp_path / "synth.jsonl"
    run_script("make_synthetic_corpus.py", "--out", out_path, "--n-docs", 4,
               "--sport-share", sport, "--family-share", family)
    assert len(out_path.read_text().splitlines()) == 4


@pytest.mark.parametrize("args, error", [
    (["--sport-share", "-0.5"], "--sport-share must lie in [0, 1], got -0.5"),
    (["--family-share", "1.5"], "--family-share must lie in [0, 1], got 1.5"),
    (["--sport-male-rate", "-0.1"], "--sport-male-rate must lie in [0, 1], got -0.1"),
    (["--family-male-rate", "2"], "--family-male-rate must lie in [0, 1], got 2.0"),
    (["--neutral-male-rate", "nan"], "--neutral-male-rate must lie in [0, 1], got nan"),
    (["--sport-share", "0.7", "--family-share", "0.4"], "topic shares exceed 1"),
    (["--n-docs", "0"], "--n-docs must be at least 1, got 0"),
    (["--n-docs", "-5"], "--n-docs must be at least 1, got -5"),
])
def test_make_synthetic_corpus_rejects_shares_and_rates_outside_0_1(tmp_path, args, error):
    out_path = tmp_path / "synth.jsonl"
    done = script_process("make_synthetic_corpus.py", "--out", out_path, "--n-docs", 4, *args)
    assert done.returncode == 2
    assert error in done.stderr
    assert not out_path.exists()
