"""Tests of the benchmark's own code: generator, checks, tracer, runner.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

import checks
import run
import tracing
import workload as wl

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True,
        text=True, timeout=180,
    )


@pytest.fixture
def scratch():
    path = ROOT / run.WORK_DIR / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# --- workload generator ---------------------------------------------------------


def test_same_seed_same_files_other_seed_other_files(scratch):
    size = wl.Size(originals=3, replicates=20)
    files = {}
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        shutil.rmtree(scratch, ignore_errors=True)
        config = wl.write_pipeline_workload(ROOT, scratch, "gender_global", size, seed, 1)
        files[name] = {p.name: p.read_bytes() for p in config.parent.iterdir()}
    assert files["a"] == files["b"]
    assert files["a"]["corpus.conll"] != files["c"]["corpus.conll"]
    assert set(files["a"]) == {"config.json", "corpus.conll", "dense.skewed.jsonl",
                               "summaries.faithful.jsonl", "summaries.skewed.jsonl"}


def test_hallucination_pool_covers_every_verdict_source():
    from sumprobe import gender_id as gid
    from sumprobe.names import load_census, resolve_ambiguous

    pool = wl.hallucination_pool(ROOT / "src" / "sumprobe" / "data")
    client = gid.FixtureLookupClient(ROOT / "src" / "sumprobe" / "data" / "wiki_cache.json")
    census = resolve_ambiguous(load_census())
    for source, people in pool.items():
        assert people
        for person in people:
            assert gid.classify(person.split(), client, census).source == source


def test_document_cost_does_not_depend_on_the_seed():
    for index in range(12):
        shapes = {len(wl.make_document(seed, index).chains) for seed in range(5)}
        assert shapes == {1 if index % 10 == 9 else 1 + index % 4}


# --- checks ---------------------------------------------------------------------


def _scores(**faithful_points):
    def entry(point):
        return {"point": point, "ci_d": [0.0, 1.0], "ci_s": [0.0, 1.0], "replicates": 10, "n": 4}

    points = {"word_list_inclusion": 0.0, "word_list_inclusion_uniform": 0.1,
              "entity_inclusion": 0.0, "hallucination_bias": None, **faithful_points}
    return {"systems": {
        "faithful": {"measures": {k: entry(v) for k, v in points.items()}},
        "skewed": {"measures": {k: entry(0.4) for k in points}},
    }}


def test_check_scores_accepts_expected_shape():
    assert checks.check_scores(_scores(), "gender_local") == []


@pytest.mark.parametrize("change, problem", [
    (lambda s: s["systems"]["faithful"]["measures"].update(entity_inclusion=None), "missing"),
    (lambda s: s["systems"]["faithful"]["measures"]["entity_inclusion"].update(point=0.5), "!= 0"),
    (lambda s: s["systems"]["skewed"]["measures"]["entity_inclusion"].update(point=0.0), "not above"),
    (lambda s: s["systems"]["skewed"]["measures"]["hallucination_bias"].update(point=None), "point"),
    (lambda s: s["systems"]["skewed"]["measures"].pop("word_list_inclusion"), "missing"),
])
def test_check_scores_rejects_wrong_scores(change, problem):
    scores = _scores()
    change(scores)
    problems = checks.check_scores(scores, "gender_local")
    assert problems and problem in " ".join(problems)


def test_check_same_and_pins():
    assert checks.check_same({"a": "1"}, {"a": "1"}) == []
    assert checks.check_same({"a": "1"}, {"a": "2"})
    assert checks.check_same({"a": None}, {"a": None})
    cold = {"scores.json": "s", "report.json": "s"}
    assert checks.check_same(cold, {"scores.json": "s", "report.json": "s"}) == []
    # the rerun leaves scores.json alone; its recomputed report.json is
    # what must match the first run's scores
    assert checks.check_same(cold, {"scores.json": "s", "report.json": "t"})
    odd = {"scores.json": "s", "report.json": "t"}
    assert checks.check_same(odd, dict(odd)) == [
        "rerun's report.json differs from the first run's scores.json"]
    assert checks.check_pins({"a": "1"}, {"a": "1"}) == []
    assert checks.check_pins({"a": "1"}, {"a": "2"})


@pytest.mark.parametrize("corrupt", [
    lambda text: text[: len(text) // 2],
    lambda text: text.replace('"entity_inclusion": {', '"entity_inclusion_": {'),
])
def test_corrupted_scores_count_as_failed_operation(monkeypatch, corrupt):
    bench = run.Bench(ROOT, "local_ci", 3, "smoke")
    bench.prepare()
    real = run.Bench.operation

    def corrupting(self, commands, spans=None):
        op = real(self, commands, spans)
        scores = ROOT / op.stdout.strip().splitlines()[-1] / "scores.json"
        scores.write_text(corrupt(scores.read_text(encoding="utf-8")), encoding="utf-8")
        return op

    monkeypatch.setattr(run.Bench, "operation", corrupting)
    try:
        cold, resume, _ = bench.cycle(0)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert resume is None
    assert (bench.attempted, len(bench.failures)) == (1, 1)
    assert "scores.json" in bench.failures[0] or "entity_inclusion" in bench.failures[0]


# --- tracer ---------------------------------------------------------------------


def test_self_time_and_shares_from_spans():
    trace = {"counts": {}, "spans": [
        [0, "cli.main", 0.0, 10.0, None, "cold"],
        [1, "pipeline.score", 1.0, 9.0, 0, "cold"],
        [2, "measures.bootstrap.entity_inclusion.d", 2.0, 6.0, 1, "cold"],
        [3, "corpus.read_jsonl", 6.0, 7.0, 1, "cold"],
    ]}
    m = tracing.layer_metrics([trace, trace])
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["pipeline.score_self_s"] == pytest.approx(6.0)
    assert m["measures.bootstrap.entity_inclusion.d_s"] == pytest.approx(8.0)
    assert m["measures.bootstrap_share"] == pytest.approx(0.4)
    assert m["input_bias.simulation_s"] == 0


def test_tracer_wraps_and_restores_module_attributes():
    from sumprobe import measures as ms

    original = ms.bootstrap
    records = [ms.BootstrapRecord(f"o{i % 3}", i, {"male": (i % 2, 1), "female": (1, 1)})
               for i in range(12)]
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        tracer.measure = "entity_inclusion"
        traced = ms.score_with_ci(records, ms.inclusion_score, replicates=5, seed=3)
    finally:
        tracer.uninstall()
    assert ms.bootstrap is original
    assert traced == ms.score_with_ci(records, ms.inclusion_score, replicates=5, seed=3)
    names = [s[1] for s in tracer.spans]
    assert names == ["measures.bootstrap.entity_inclusion.d", "measures.bootstrap.entity_inclusion.s"]
    assert tracer.counts["measures.score_fn_calls"] == 10
    assert tracer.counts["seeding.derive_rng"] == 10


# --- runner ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_passes_output_checks(name):
    proc = bench_run("--workload", name, "--seed", "2", "--seconds", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, proc.stdout
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = bench_run("--workload", "local_ci", "--seed", "2", "--seconds", "1",
                     "--size", "smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stdout
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["measures.bootstrap_share"]["value"] > 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "local_ci", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
