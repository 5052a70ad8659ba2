"""A rerun reuses what run.json vouches for and recomputes the rest."""

import json
from pathlib import Path

import pytest

from make_demo_data import make_fixture_corpus
from e2e import hallucinating_summarizer, identity_summarizer, make_keep_rate_summarizer, stage_run

from sumprobe import pipeline
from sumprobe.cli import main
from sumprobe.pipeline import Pipeline, PipelineConfig

SYSTEMS = {"echo": identity_summarizer, "inventive": hallucinating_summarizer}


@pytest.fixture(scope="module")
def small_corpus():
    return make_fixture_corpus(8, seed=21)


def staged(tmp_path, docs, summarizers=SYSTEMS):
    """A two-system gender_local config and its artifact directory."""
    config = stage_run(tmp_path, docs, replicates=20, summarizers=summarizers)
    parsed = PipelineConfig.from_file(config)
    return config, Path(parsed.out_dir) / parsed.config_hash()


def run(config, *flags):
    assert main(["run", "--config", str(config), *flags]) == 0


def files(art: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(art.iterdir())}


def inodes(art: Path) -> dict[str, int]:
    return {p.name: p.stat().st_ino for p in sorted(art.iterdir())}


def clean_run(tmp_path, config) -> dict[str, bytes]:
    """Every file of a run of `config` into a fresh output directory."""
    out = tmp_path / "clean"
    run(config, "--out-dir", str(out))
    (art,) = out.iterdir()
    return files(art)


@pytest.fixture
def scored(monkeypatch):
    """The systems `Pipeline._score_system` scores, in call order; scored in
    this process, since a forked worker's calls would go unrecorded."""
    calls = []
    original = Pipeline._score_system

    def recorded(self, system, shared):
        calls.append(system)
        return original(self, system, shared)

    monkeypatch.setattr(Pipeline, "_score_system", recorded)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    return calls


def test_rerun_aligns_and_scores_nothing_and_rewrites_no_artifact(
        tmp_path, small_corpus, monkeypatch):
    config, art = staged(tmp_path, small_corpus)
    run(config)
    before, ino = files(art), inodes(art)
    assert {"run.json", "verdicts.inventive.json", "alignments.echo.jsonl"} <= set(before)

    def refuse(*args, **kwargs):
        raise AssertionError("recomputed on a rerun")

    monkeypatch.setattr(pipeline, "align_system", refuse)
    monkeypatch.setattr(Pipeline, "_score_system", refuse)
    monkeypatch.setattr(pipeline, "ingest", refuse)
    run(config)
    assert files(art) == before
    assert inodes(art) == ino


def test_run_json_records_the_key_and_every_artifact(tmp_path, small_corpus):
    config, art = staged(tmp_path, small_corpus)
    run(config)
    manifest = json.loads((art / "run.json").read_text())
    summaries = json.loads(config.read_text())["summaries"]
    assert manifest["key"] == {
        "package": pipeline.package_digest(),
        "numpy": pipeline.np.__version__,
        "summaries": {s: pipeline._sha256(p) for s, p in summaries.items()},
    }
    reports = {"run.json", "report.md", "report.csv", "report.json"}
    assert sorted(manifest["artifacts"]) == sorted(set(files(art)) - reports)
    for name, digest in manifest["artifacts"].items():
        assert pipeline._sha256(art / name) == digest, name


def test_editing_one_system_rescores_every_system(tmp_path, small_corpus, scored):
    config, art = staged(tmp_path, small_corpus)
    run(config)
    first = json.loads((art / "scores.json").read_text())
    scored.clear()
    # rewrites echo's summaries and inventive's with the same bytes
    staged(tmp_path, small_corpus, summarizers={
        "echo": make_keep_rate_summarizer({"male": 0.9, "female": 0.3}),
        "inventive": hallucinating_summarizer})
    run(config)
    assert scored == ["echo", "inventive"]
    scores = json.loads((art / "scores.json").read_text())
    assert scores["systems"]["inventive"] == first["systems"]["inventive"]
    assert scores["systems"]["echo"] != first["systems"]["echo"]
    assert files(art) == clean_run(tmp_path, config)


@pytest.mark.parametrize("name", ["scores.json", "alignments.echo.jsonl",
                                  "verdicts.inventive.json", "inputs.jsonl",
                                  "templates.jsonl", "documents.jsonl", "run.json"])
def test_damaged_artifact_is_rebuilt_as_a_clean_run_builds_it(
        tmp_path, small_corpus, scored, name):
    config, art = staged(tmp_path, small_corpus)
    run(config)
    damaged = art / name
    damaged.write_bytes(damaged.read_bytes()[: damaged.stat().st_size // 2])
    scored.clear()
    run(config)
    staged_artifact = name in ("inputs.jsonl", "templates.jsonl", "documents.jsonl")
    assert scored == ([] if staged_artifact else ["echo", "inventive"])
    assert files(art) == clean_run(tmp_path, config)


def test_changed_package_digest_recomputes_everything(tmp_path, small_corpus, scored,
                                                      monkeypatch):
    config, art = staged(tmp_path, small_corpus)
    run(config)
    before = files(art)
    ingested = []
    ingest = pipeline.ingest
    monkeypatch.setattr(pipeline, "ingest", lambda *a, **k: ingested.append(1) or ingest(*a, **k))
    monkeypatch.setattr(pipeline, "package_digest", lambda: "0" * 64)
    scored.clear()
    run(config)
    assert scored == ["echo", "inventive"] and ingested == [1]
    assert json.loads((art / "run.json").read_text())["key"]["package"] == "0" * 64
    assert {n: b for n, b in files(art).items() if n != "run.json"} == {
        n: b for n, b in before.items() if n != "run.json"}


def test_reuse_is_byte_identical_at_any_jobs(tmp_path, small_corpus, monkeypatch):
    """Cold and resumed runs on 1 and 2 usable CPUs, in either order, and a
    rerun after one system's summaries changed, leave the same bytes."""
    config, art = staged(tmp_path, small_corpus)

    def run_on(cpus, out):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        run(config, "--out-dir", str(out))

    produced = []
    for order in ((1, 2), (2, 1)):
        out = tmp_path / f"cpus{order[0]}{order[1]}"
        for cpus in order:
            run_on(cpus, out)
            produced.append(files(out / art.name))
    assert all(p == produced[0] for p in produced)
    staged(tmp_path, small_corpus, summarizers={
        "echo": make_keep_rate_summarizer({"male": 0.2, "female": 0.8}),
        "inventive": hallucinating_summarizer})
    for order in ((1, 2), (2, 1)):
        run_on(order[1], tmp_path / f"cpus{order[0]}{order[1]}")
    assert files(tmp_path / "cpus12" / art.name) == files(tmp_path / "cpus21" / art.name)
    assert files(tmp_path / "cpus12" / art.name) == clean_run(tmp_path, config)
