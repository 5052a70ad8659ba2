#!/usr/bin/env python3
"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

The tracer wraps sumprobe's public functions and `Pipeline` stage methods at
the module attribute where their callers look them up (for example
`measures.bootstrap`, which `score_with_ci` finds in its module globals). No
program file changes. Spans (id, name, start, end, parent, run id) and
counters stay in memory and are written once, when the command returns.

Run as a script it is a traced `sumprobe` CLI:

    python3 perfbench/tracing.py --spans spans.json --run-id cold -- run --config cfg.json

Work done in `jobs > 1` pool children is not traced; it shows up as the
self time of `Pipeline.inputs`, which waits for it.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Pipeline stage method -> metric holding its self time
STAGES = {
    "documents": "pipeline.documents_s",
    "templates": "pipeline.templates_s",
    "inputs": "pipeline.inputs_s",
    "alignments": "pipeline.alignments_s",
    "classify_hallucinations": "pipeline.classify_s",
    "score": "pipeline.score_self_s",
}
BOOTSTRAP_AXES = {
    "word_list_inclusion": "ds",
    "word_list_inclusion_uniform": "ds",
    "entity_inclusion": "ds",
    "hallucination_bias": "ds",
    "distinguishability_count": "d",
    "distinguishability_dense": "d",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent, run id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.measure: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, push: bool = True) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.run_id])
        if push:
            self.stack.append(sid)
        return sid

    def _close(self, sid: int, pop: bool = True) -> None:
        self.spans[sid][3] = time.perf_counter()
        if pop:
            self.stack.pop()

    def span(self, name: str, fn, observe=None):
        """Wrap `fn` in a span; `observe(counts, arguments, result)` records
        counts after the span closes."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments if observe else None
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(self.counts, arguments, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """A span over a generator, from its first item until it is exhausted
        or closed. It is a leaf: it never becomes the parent of other spans,
        since the caller runs between items."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, push=False)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(sid, pop=False)

        return wrapper

    def counter(self, name: str, fn, timed: bool = False):
        """Count calls (and, if timed, their total time) without a span; the
        time stays in the enclosing span's self time."""
        counts = self.counts

        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name] += 1
                counts[name + "_s"] += time.perf_counter() - start

        return timed_wrapper

    def measure_context(self, fn):
        """Remember which measure a `Pipeline._ci`/`_dist_ci` call scores, so
        the bootstrap spans inside it can be named after it."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.measure
            self.measure = sig.bind(*args, **kwargs).arguments["measure"]
            try:
                return fn(*args, **kwargs)
            finally:
                self.measure = outer

        return wrapper

    def bootstrap(self, fn):
        """Span per bootstrap call, named measures.bootstrap.<measure>.<axis>;
        counts every replicate's score_fn call and those returning no score."""
        sig = inspect.signature(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            score_fn = bound.arguments["score_fn"]

            def counted(payloads):
                counts["measures.score_fn_calls"] += 1
                value = score_fn(payloads)
                if value is None:
                    counts["measures.null_replicates"] += 1
                return value

            bound.arguments["score_fn"] = counted
            sid = self._open(f"measures.bootstrap.{self.measure}.{bound.arguments['axis']}")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._close(sid)

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from sumprobe import alignment as al
        from sumprobe import cli
        from sumprobe import corpus as cp
        from sumprobe import gender_id as gid
        from sumprobe import generate as gen
        from sumprobe import input_bias as ib
        from sumprobe import measures as ms
        from sumprobe import summaries as sm
        from sumprobe import templates as tp
        from sumprobe.pipeline import Pipeline

        def eligible(counts, arguments, template):
            counts["templates.built"] += 1
            counts["templates.eligible"] += template.eligible

        def loaded(counts, arguments, records):
            counts["summaries.records"] += len(records)
            counts["summaries.entities"] += sum(len(r.entities) for r in records)

        def aligned(counts, arguments, result):
            for c in result[1].values():
                counts["alignment.hallucinated"] += c["hallucinated"]
                counts["alignment.summary_entities"] += c["summary_entities"]

        def lookups(counts, arguments, result):
            counts["gender_id.lookups"] += sum(
                len(a.hallucinated())
                for aligned_records, _ in arguments["aligned_by_system"].values()
                for a in aligned_records
            )

        def decided(counts, arguments, verdict):
            counts["gender_id.decided"] += verdict.gender != "unknown"

        self.patch(cli, "main", self.span("cli.main", cli.main))
        self.patch(cli, "render_report", self.span("report.render", cli.render_report))
        for stage in STAGES:
            self.patch(Pipeline, stage, self.span(
                f"pipeline.{stage}", getattr(Pipeline, stage),
                lookups if stage == "classify_hallucinations" else None))
        self.patch(Pipeline, "_ci", self.measure_context(Pipeline._ci))
        self.patch(Pipeline, "_dist_ci", self.measure_context(Pipeline._dist_ci))
        self.patch(cp, "parse_conll_corpus", self.span("corpus.parse", cp.parse_conll_corpus))
        self.patch(cp, "read_jsonl", self.generator_span("corpus.read_jsonl", cp.read_jsonl))
        self.patch(tp, "build_template", self.span("templates.build", tp.build_template, eligible))
        self.patch(tp, "read_templates", self.counter("pipeline.templates_reads", tp.read_templates))
        self.patch(gen, "generate_corpus", self.span("generate.corpus", gen.generate_corpus))
        self.patch(gen, "write_inputs", self.span("generate.write", gen.write_inputs))
        self.patch(gen, "read_inputs", self.generator_span("generate.read", gen.read_inputs))
        self.patch(sm, "load_summaries", self.span("summaries.load", sm.load_summaries, loaded))
        self.patch(sm, "build_lexicon", self.span("summaries.lexicon", sm.build_lexicon))
        self.patch(al, "align_corpus", self.span("alignment.align", al.align_corpus, aligned))
        self.patch(al, "inclusion_rows", self.span("alignment.inclusion_rows", al.inclusion_rows))
        self.patch(al, "write_alignments", self.span("alignment.write", al.write_alignments))
        self.patch(gid, "classify", self.span("gender_id.classify", gid.classify, decided))
        self.patch(ms, "bootstrap", self.bootstrap(ms.bootstrap))
        self.patch(ms, "distinguishability",
                   self.span("measures.distinguishability", ms.distinguishability))
        for name in ("cosine_counts", "cosine_dense"):
            self.patch(ms, name, self.counter("measures.similarity", getattr(ms, name)))
        for module in (ms, ib):
            self.patch(module, "count_identifiers", self.counter(
                "measures.count_identifiers", module.count_identifiers, timed=True))
        for module in (ms, ib, gen):
            self.patch(module, "derive_rng", self.counter(
                "seeding.derive_rng", module.derive_rng, timed=True))
        self.patch(ib, "simulation_experiment",
                   self.span("input_bias.simulation", ib.simulation_experiment))
        self.patch(ib, "split_by_identifier_majority",
                   self.span("input_bias.split", ib.split_by_identifier_majority))
        self.patch(ib, "fightin_words", self.span("input_bias.fightin_words", ib.fightin_words))
        self.patch(ib, "baseline_summarize", self.counter("input_bias.baseline", ib.baseline_summarize))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


# --- per-layer metrics ----------------------------------------------------------


def span_times(traces: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name over several traces. Self time is
    a span's duration minus its children's; children of one parent never
    overlap, because the program is single-threaded."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        duration = [(s[3] if s[3] is not None else s[2]) - s[2] for s in spans]
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] is not None:
                child[s[4]] += duration[s[0]]
        for s in spans:
            total[s[1]] += duration[s[0]]
            own[s[1]] += duration[s[0]] - child[s[0]]
    return total, own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the given traces; a layer that did not
    run reports 0."""
    total, own = span_times(traces)
    counts: Counter = Counter()
    for trace in traces:
        counts.update(trace["counts"])
    bootstrap_s = sum(v for k, v in total.items() if k.startswith("measures.bootstrap."))
    m = {
        f"measures.bootstrap.{measure}.{axis}_s": total[f"measures.bootstrap.{measure}.{axis}"]
        for measure, axes in BOOTSTRAP_AXES.items() for axis in axes
    }
    m.update({
        "measures.bootstrap_share": _ratio(bootstrap_s, total["cli.main"]),
        "measures.score_fn_calls": counts["measures.score_fn_calls"],
        "measures.null_replicate_ratio": _ratio(counts["measures.null_replicates"],
                                                counts["measures.score_fn_calls"]),
        "measures.distinguishability_s": total["measures.distinguishability"],
        "measures.similarity_calls": counts["measures.similarity"],
        "measures.count_identifiers_calls": counts["measures.count_identifiers"],
        "measures.count_identifiers_s": counts["measures.count_identifiers_s"],
        "seeding.derive_rng_calls": counts["seeding.derive_rng"],
        "seeding.derive_rng_s": counts["seeding.derive_rng_s"],
        "summaries.load_s": total["summaries.load"],
        "summaries.records": counts["summaries.records"],
        "summaries.entities": counts["summaries.entities"],
        "summaries.lexicon_s": total["summaries.lexicon"],
        "alignment.align_s": total["alignment.align"],
        "alignment.inclusion_rows_s": total["alignment.inclusion_rows"],
        "alignment.write_s": total["alignment.write"],
        "alignment.hallucinated_ratio": _ratio(counts["alignment.hallucinated"],
                                               counts["alignment.summary_entities"]),
        "corpus.parse_s": total["corpus.parse"],
        "corpus.read_jsonl_s": total["corpus.read_jsonl"],
        "templates.build_s": total["templates.build"],
        "templates.eligible_ratio": _ratio(counts["templates.eligible"], counts["templates.built"]),
        "generate.corpus_s": total["generate.corpus"],
        "generate.write_s": total["generate.write"],
        "generate.read_s": total["generate.read"],
        "gender_id.classify_calls": sum(1 for t in traces for s in t["spans"]
                                        if s[1] == "gender_id.classify"),
        "gender_id.classify_s": total["gender_id.classify"],
        "report.render_s": total["report.render"],
        "input_bias.simulation_s": total["input_bias.simulation"],
        "input_bias.split_s": total["input_bias.split"],
        "input_bias.fightin_words_s": total["input_bias.fightin_words"],
        "input_bias.baseline_calls": counts["input_bias.baseline"],
        "cli.self_s": own["cli.main"],
        "pipeline.templates_reads": counts["pipeline.templates_reads"],
    })
    m["gender_id.memo_hit_ratio"] = (
        1.0 - _ratio(m["gender_id.classify_calls"], counts["gender_id.lookups"])
        if counts["gender_id.lookups"] else 0.0)
    m["gender_id.decided_ratio"] = _ratio(counts["gender_id.decided"],
                                          m["gender_id.classify_calls"])
    for stage, metric in STAGES.items():
        m[metric] = own[f"pipeline.{stage}"]
    return m


# --- traced CLI -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the sumprobe CLI under the tracer.")
    parser.add_argument("--spans", required=True, help="where to write spans and counts (JSON)")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from sumprobe import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(args.spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.exit(main())
