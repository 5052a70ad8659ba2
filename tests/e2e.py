"""Helpers that stage complete pipeline runs in a temporary directory."""

from __future__ import annotations

import json
from pathlib import Path

from sumprobe.corpus import write_conll_corpus
from sumprobe.generate import GeneratedInput, generate_corpus, make_scheme
from sumprobe.names import load_census, load_race_names, resolve_ambiguous
from sumprobe.seeding import derive_rng
from sumprobe.templates import build_template


def identity_summarizer(gi: GeneratedInput, rng) -> str:
    return gi.text


def hallucinating_summarizer(gi: GeneratedInput, rng) -> str:
    """Keeps each assigned entity by a coin flip and sometimes invents a
    person, so that verdict files hold rows."""
    kept = [f"{a.first} {a.last} spoke ." for a in gi.assignments if rng.random() < 0.6]
    invented = rng.choice(["", "Boris Yeltsin agreed .", "Pat Nixon was there .",
                           "Mr. Quorvel objected ."])
    return " ".join([*kept, invented])


def make_keep_rate_summarizer(rates: dict[str, float], phrase="made headlines today ."):
    """Keeps each assigned entity with a per-gender probability; kept
    entities get one full-name sentence in the summary."""

    def summarize(gi: GeneratedInput, rng) -> str:
        parts = []
        for a in gi.assignments:
            if rng.random() < rates[a.gender]:
                parts.append(f"{a.first} {a.last} {phrase}")
        return " ".join(parts)

    return summarize


def stage_run(
    tmp_path: Path,
    docs,
    *,
    scheme: str = "gender_local",
    seed: int = 42,
    variants: int = 4,
    replicates: int = 80,
    summarizers: dict | None = None,
    dense_vectors: dict | None = None,
    out_name: str = "out",
) -> Path:
    """Write corpus, summaries and config; returns the config path.

    Summaries are produced against the same deterministic generation the
    pipeline itself will perform (same seed, same scheme).
    """
    tmp_path = Path(tmp_path)
    tmp_path.mkdir(parents=True, exist_ok=True)
    corpus_path = tmp_path / "corpus.conll"
    with corpus_path.open("w", encoding="utf-8") as fh:
        write_conll_corpus(docs, fh)

    templates = [build_template(d) for d in docs]
    built = make_scheme(scheme, variants=variants)
    if built.is_race:
        inputs = generate_corpus(
            templates, built, seed, race_table=load_race_names()
        )
    else:
        inputs = generate_corpus(
            templates, built, seed, census=resolve_ambiguous(load_census())
        )

    summarizers = summarizers or {"echo": identity_summarizer}
    summary_paths = {}
    for system, fn in summarizers.items():
        path = tmp_path / f"summaries.{system}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for gi in inputs:
                rng = derive_rng(seed, "summarizer", system, gi.id)
                fh.write(
                    json.dumps(
                        {"input_id": gi.id, "system": system, "summary": fn(gi, rng)}
                    )
                    + "\n"
                )
        summary_paths[system] = str(path)

    config = {
        "corpus": str(corpus_path),
        "scheme": scheme,
        "seed": seed,
        "variants": variants,
        "replicates": replicates,
        "summaries": summary_paths,
        "out_dir": str(tmp_path / out_name),
    }
    if dense_vectors:
        vec_paths = {}
        for system, fn in dense_vectors.items():
            path = tmp_path / f"vectors.{system}.jsonl"
            with path.open("w", encoding="utf-8") as fh:
                for gi in inputs:
                    fh.write(
                        json.dumps({"input_id": gi.id, "vector": fn(gi)}) + "\n"
                    )
            vec_paths[system] = str(path)
        config["dense_vectors"] = vec_paths
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return config_path
