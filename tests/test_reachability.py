"""Every function in the package is entered by some command: the CLI's
commands, both scripts, a usage error and a bad corpus, run in-process
under a profiler, enter every `def` in src/sumprobe but those on
`UNREACHED`, each listed with the reason no command enters it."""

import ast
import json
import runpy
import sys
from pathlib import Path

from make_demo_data import make_fixture_corpus
from e2e import hallucinating_summarizer, stage_run

import sumprobe
from sumprobe import pipeline
from sumprobe.cli import main
from sumprobe.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sumprobe.__file__).resolve().parent

_BENCHMARK = "bound by name by perfbench, which the pipeline never calls (ROADMAP item 1)"
_WORKER = "runs in a forked scoring worker, where this profiler does not look"
# module.qualified name -> why no command here enters it
UNREACHED = {
    "measures.inclusion_score": _BENCHMARK,
    "measures.cosine_counts": _BENCHMARK,
    "measures.cosine_dense": _BENCHMARK,
    "measures._payload_list_replicates": _BENCHMARK,
    "pipeline._integer": "called while pipeline.py is imported, before any command starts",
    "pipeline.usable_cpus": "patched to 1 here, so that scoring stays in this process",
    "pipeline._start_worker": _WORKER,
    "pipeline._score_in_worker": _WORKER,
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of each `def` in the package;
    a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), first)] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem, path)
    return found


def entered_while(run) -> set[tuple[str, int]]:
    """(file, first line) of each package function `run()` enters. Every
    module-level function cache of the package is emptied first, so that a
    function whose result an earlier test cached is still entered."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sumprobe."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def stage_inputs(tmp: Path) -> dict[str, Path]:
    """A config per scheme over one small corpus, and the side files the
    stage commands read: an NER sidecar, content words and a last-name
    pool. The gender_local config reads all three, and the gender_global
    one dense vectors."""
    docs = make_fixture_corpus(6, seed=11)  # the toy corpus's first six documents
    systems = {"echo": lambda gi, rng: gi.text, "noisy": hallucinating_summarizer}
    local = stage_run(tmp / "local", docs, replicates=20, summarizers=systems)
    config = json.loads(local.read_text())
    sidecar = tmp / "ner.jsonl"
    sidecar.write_text("".join(json.dumps({"input_id": f"{d.id}::00", "entities": [
        [0, 1, "PERSON"]]}) + "\n" for d in docs))
    content = tmp / "content.jsonl"
    content.write_text(json.dumps({"doc_id": "fix_0002#0", "start": 20, "end": 20,
                                   "entities": ["0"], "male": "chairman",
                                   "female": "chairwoman", "neutral": "chair"}) + "\n")
    pool = tmp / "last.txt"
    pool.write_text("".join(f"Lastname{i}\n" for i in range(40)))
    local.write_text(json.dumps({**config, "ner_sidecars": {"echo": str(sidecar)},
                                 "content_words": str(content), "alter_last_names": True,
                                 "last_name_pool": str(pool)}))
    dense = stage_run(tmp / "global", docs, scheme="gender_global", replicates=20,
                      summarizers=systems, dense_vectors={"echo": lambda gi: [
                          len(gi.tokens), len(gi.assignments), gi.variant % 2]})
    race = stage_run(tmp / "race", docs, scheme="race_random_gender", replicates=20)
    config = json.loads(race.read_text())
    race.write_text(json.dumps({**config, "alter_last_names": True}))
    intersectional = tmp / "race" / "intersectional.json"
    intersectional.write_text(json.dumps({**config, "scheme": "race_intersectional",
                                          "intersection": {"black": "female", "white": "male"},
                                          "out_dir": str(tmp / "race" / "out_x")}))
    return {"local": local, "global": dense, "race": race, "intersectional": intersectional,
            "sidecar": sidecar, "content": content, "pool": pool}


def commands(tmp: Path, files: dict[str, Path]) -> list[list[str]]:
    """Every command, in an order where each reads what one before wrote; a
    script runs as ["script", its path, its arguments...]."""
    config = PipelineConfig.from_file(files["local"])
    scores = Path(config.out_dir) / config.config_hash() / "scores.json"
    stages = tmp / "stages"
    stages.mkdir()
    bad = tmp / "bad.conll"
    bad.write_text("#begin document (x); part 000\nx 0 0 Hello NNP *\n#end document\n")
    synthetic = tmp / "synthetic.jsonl"
    return [
        *(["run", "--config", str(files[name])]
          for name in ("local", "local", "global", "race", "intersectional")),
        ["score", "--config", str(files["local"]), "--out-dir", str(tmp / "scored")],
        ["ingest", "--corpus", config.corpus, "--out", str(stages / "docs.jsonl")],
        ["build-templates", "--documents", str(stages / "docs.jsonl"),
         "--content-words", str(files["content"]), "--out", str(stages / "templates.jsonl")],
        ["build-templates", "--documents", config.corpus, "--out", str(stages / "t2.jsonl")],
        ["generate", "--templates", str(stages / "templates.jsonl"), "--scheme", "gender_local",
         "--seed", "42", "--variants", "4", "--alter-last-names",
         "--last-names", str(files["pool"]), "--out", str(stages / "inputs.jsonl")],
        ["generate", "--templates", str(stages / "templates.jsonl"),
         "--scheme", "race_intersectional", "--intersection", "black=male", "white=female",
         "--seed", "42", "--variants", "2", "--out", str(stages / "race.jsonl")],
        ["align", "--templates", str(stages / "templates.jsonl"),
         "--inputs", str(stages / "inputs.jsonl"),
         "--summaries", *(f"{s}={path}" for s, path in config.summaries.items()),
         "--ner", f"echo={files['sidecar']}", "--out-dir", str(stages)],
        ["classify-hallucinations", "--alignments", str(stages / "alignments.noisy.jsonl"),
         "--cache", str(PACKAGE / "data/wiki_cache.json"), "--out", str(stages / "v.json")],
        *(["report", "--scores", str(scores), "--format", fmt,
           "--out", str(stages / f"report.{fmt}")]
          for fmt in ("markdown", "csv", "json")),
        ["script", str(ROOT / "scripts/make_synthetic_corpus.py"), "--out", str(synthetic),
         "--n-docs", "40"],
        ["analyze-input-bias", "--corpus", str(synthetic), "--out", str(stages / "fw"),
         "--alpha", "0.02"],
        ["simulate-baselines", "--corpus", str(synthetic), "--seed", "1",
         "--out", str(stages / "sim")],
        ["script", str(ROOT / "scripts/make_demo_data.py"), "--dir", str(tmp / "demo"),
         "--n-docs", "3", "--variants", "2"],
        ["ingest", "--corpus", str(bad), "--out", str(stages / "bad.jsonl")],
        ["run"],
    ]


def run_all(argvs: list[list[str]], monkeypatch) -> list[int]:
    """Each command's exit code; a script's is 0 when it returns."""
    codes = []
    for argv in argvs:
        if argv[0] == "script":
            monkeypatch.setattr(sys, "argv", argv[1:])
            runpy.run_path(argv[1], run_name="__main__")
            codes.append(0)
            continue
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    return codes


def test_every_function_is_entered_or_listed(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
    argvs = commands(tmp_path, stage_inputs(tmp_path))
    codes = []
    entered = entered_while(lambda: codes.extend(run_all(argvs, monkeypatch)))
    assert codes == [0] * (len(codes) - 2) + [2, 1]
    unreached = {name for key, name in defined_functions().items() if key not in entered}
    assert sorted(unreached - UNREACHED.keys()) == []  # entered by nothing: reach it or list it
    assert sorted(UNREACHED.keys() - unreached) == []  # listed, but entered: unlist it
