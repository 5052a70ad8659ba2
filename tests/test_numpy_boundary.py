"""numpy loads only in code that computes with it: importing the CLI,
building a `Pipeline`, `report`, `analyze-input-bias`, `align`,
`classify-hallucinations`, and a rerun that reuses scores.json start
without it, and run.json still records numpy's version. Each start loads
exactly the package modules it runs: importing the CLI, building a
`Pipeline`, `report` and a rerun load no corpus, template or generation
module, and `gender_id` only where the scheme classifies."""

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
from sumprobe.names import data_path

ROOT = Path(__file__).resolve().parent.parent
# the package modules, and `multiprocessing`, that a start loads only if it runs them
CHECKED = {"sumprobe.corpus", "sumprobe.templates", "sumprobe.generate", "sumprobe.gender_id",
           "sumprobe.summaries", "sumprobe.alignment", "sumprobe.measures",
           "sumprobe.input_bias", "multiprocessing"}
GENERATION = {"sumprobe.corpus", "sumprobe.templates", "sumprobe.generate"}
ALIGNMENT = {*GENERATION, "sumprobe.summaries", "sumprobe.alignment"}
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
def finished_global(tmp_path_factory):
    """A `gender_global` config whose run has finished: it classifies nothing."""
    tmp = tmp_path_factory.mktemp("boundary_global")
    config = stage_run(tmp, make_fixture_corpus(6, seed=21), scheme="gender_global",
                       replicates=20)
    assert main(["run", "--config", str(config)]) == 0
    return config


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """A small synthetic corpus for the input-bias commands."""
    path = tmp_path_factory.mktemp("synthetic") / "synth.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=20), seed=3), path)
    return path


def test_a_cold_run_loads_numpy_and_not_numpy_ma(finished, tmp_path):
    """The check sees numpy and every stage's module where a command runs
    them; the bootstrap interval loads no more of numpy than importing it
    does."""
    config, _ = finished
    loaded = loaded_after("from sumprobe.cli import main\n"
                          f"assert main(['run', '--config', {str(config)!r}, "
                          f"'--out-dir', {str(tmp_path)!r}]) == 0")
    assert "numpy" in loaded
    assert {*ALIGNMENT, "sumprobe.gender_id", "sumprobe.measures"} <= loaded
    assert numpy_modules(loaded) - numpy_modules(loaded_after("import numpy")) == set()


PIPELINE = "from sumprobe.pipeline import Pipeline, PipelineConfig\n"
CLI = "from sumprobe.cli import main\n"


# id -> (the code a fresh interpreter runs, the modules of CHECKED it loads)
STARTS = {
    "import-cli": ("import sumprobe.cli", set()),
    "pipeline": (PIPELINE + "Pipeline(PipelineConfig.from_file({config!r}))",
                 {"sumprobe.gender_id"}),
    "rerun": (CLI + "assert main(['run', '--config', {config!r}]) == 0", {"sumprobe.gender_id"}),
    "rescore": (CLI + "assert main(['score', '--config', {config!r}]) == 0",
                {"sumprobe.gender_id"}),
    "pipeline-global": (PIPELINE + "Pipeline(PipelineConfig.from_file({global_config!r}))",
                        set()),
    "rerun-global": (CLI + "assert main(['run', '--config', {global_config!r}]) == 0", set()),
    "report": (CLI + "assert main(['report', '--scores', {scores!r}, '--out', {out!r}]) == 0",
               set()),
    "analyze-input-bias": (
        CLI + "assert main(['analyze-input-bias', '--corpus', {corpus!r}, '--out', {out!r}]) == 0",
        {"sumprobe.input_bias", "sumprobe.corpus"}),
    "align": (CLI + "assert main(['align', '--templates', {templates!r}, '--inputs', {inputs!r}, "
              "'--summaries', {summaries!r}, '--out-dir', {out_dir!r}]) == 0", ALIGNMENT),
    "classify-hallucinations": (
        CLI + "assert main(['classify-hallucinations', '--alignments', {alignments!r}, "
        "'--cache', {cache!r}, '--out', {out!r}]) == 0", {*ALIGNMENT, "sumprobe.gender_id"}),
}


@pytest.mark.parametrize("case", STARTS)
def test_starts_without_numpy(finished, finished_global, synthetic, tmp_path, case):
    config, scores = finished
    art = scores.parent
    start, expected = STARTS[case]
    code = start.format(
        config=str(config), global_config=str(finished_global), scores=str(scores),
        corpus=str(synthetic), out=str(tmp_path / "r.md"), out_dir=str(tmp_path),
        templates=str(art / "templates.jsonl"), inputs=str(art / "inputs.jsonl"),
        summaries="echo=" + json.loads(config.read_text())["summaries"]["echo"],
        alignments=str(art / "alignments.echo.jsonl"), cache=str(data_path("wiki_cache.json")))
    loaded = loaded_after(code)
    assert numpy_modules(loaded) == set()
    assert loaded & CHECKED == expected


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
