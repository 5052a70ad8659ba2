"""numpy loads only in code that computes with it: importing the CLI,
building a `Pipeline`, `report`, `analyze-input-bias`, and a rerun that
reuses scores.json start without it, and run.json still records numpy's
version."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest

from make_demo_data import make_fixture_corpus
from e2e import stage_run

from sumprobe import pipeline
from sumprobe.cli import main
from sumprobe.corpus import write_jsonl
from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus

ROOT = Path(__file__).resolve().parent.parent
# runs its first argument as Python code, then prints the loaded module names
SCRIPT = "import json, sys\nexec(sys.argv[1])\nprint(json.dumps(sorted(sys.modules)))\n"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, code], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def numpy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "numpy" or m.startswith("numpy.")}


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A config whose run has finished, and that run's scores.json."""
    tmp = tmp_path_factory.mktemp("boundary")
    config = stage_run(tmp, make_fixture_corpus(6, seed=21), replicates=20)
    assert main(["run", "--config", str(config)]) == 0
    (scores,) = (tmp / "out").glob("*/scores.json")
    return config, scores


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A small synthetic corpus for the input-bias commands."""
    path = tmp_path_factory.mktemp("synthetic") / "synth.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=20), seed=3), path)
    return path


def test_a_cold_run_loads_numpy_and_not_numpy_ma(finished, tmp_path):
    """The check sees numpy where a command computes with it; the bootstrap
    interval loads no more of numpy than importing it does."""
    config, _ = finished
    loaded = loaded_after("from sumprobe.cli import main\n"
                          f"assert main(['run', '--config', {str(config)!r}, "
                          f"'--out-dir', {str(tmp_path)!r}]) == 0")
    assert "numpy" in loaded
    assert numpy_modules(loaded) - numpy_modules(loaded_after("import numpy")) == set()


@pytest.mark.parametrize("start", [
    "import sumprobe.cli",
    "from sumprobe.pipeline import Pipeline, PipelineConfig\n"
    "Pipeline(PipelineConfig.from_file({config!r}))",
    "from sumprobe.cli import main\nassert main(['run', '--config', {config!r}]) == 0",
    "from sumprobe.cli import main\nassert main(['score', '--config', {config!r}]) == 0",
    "from sumprobe.cli import main\n"
    "assert main(['report', '--scores', {scores!r}, '--out', {out!r}]) == 0",
    "from sumprobe.cli import main\n"
    "assert main(['analyze-input-bias', '--corpus', {corpus!r}, '--out', {out!r}]) == 0",
], ids=["import-cli", "pipeline", "rerun", "rescore", "report", "analyze-input-bias"])
def test_starts_without_numpy(finished, synthetic, tmp_path, start):
    config, scores = finished
    code = start.format(config=str(config), scores=str(scores), corpus=str(synthetic),
                        out=str(tmp_path / "r.md"))
    loaded = loaded_after(code)
    assert numpy_modules(loaded) == set()
    assert not loaded & {"sumprobe.measures", "sumprobe.summaries", "sumprobe.alignment",
                         "multiprocessing"}
    assert ("sumprobe.input_bias" in loaded) == ("input-bias" in start)


def test_simulate_baselines_loads_numpy(synthetic, tmp_path):
    """The simulation scores with numpy, so the check above can see it."""
    loaded = loaded_after("from sumprobe.cli import main\n"
                          f"assert main(['simulate-baselines', '--corpus', {str(synthetic)!r}, "
                          f"'--seed', '1', '--out', {str(tmp_path / 'sim')!r}]) == 0")
    assert {"numpy", "sumprobe.measures"} <= loaded


def test_numpy_version_is_numpys_own():
    assert pipeline.numpy_version() == numpy.__version__


@pytest.mark.parametrize("version_file", [
    None,  # numpy not found where find_spec looks
    "",  # no version.py
    "from ._version import get_versions\n",  # numpy 1.24's: a relative import
    "version = '0'\n",  # no __version__
])
def test_numpy_version_imports_numpy_when_its_version_file_does_not_run(
        tmp_path, monkeypatch, version_file):
    if version_file:
        (tmp_path / "version.py").write_text(version_file)
    spec = (None if version_file is None
            else SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    assert pipeline.numpy_version() == numpy.__version__
