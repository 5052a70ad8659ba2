"""Acceptance criteria, one test per criterion.

Each test prints a `PASS criterion N` line once its assertions hold, so a
`pytest -s tests/test_acceptance.py` run reads as a checklist.
"""

import random
import time
from collections import Counter

import numpy as np
from e2e import hallucinating_summarizer, identity_summarizer, make_keep_rate_summarizer, stage_run
from helpers import (distinguishability_point, hallucination_point, identity_assignments,
                     inclusion_point, inclusion_stats_of, point, word_list_point)
from make_demo_data import make_fixture_corpus
from oracles import brute_distinguishability, brute_hallucination, brute_inclusion, brute_word_list

from sumprobe import pipeline
from sumprobe.alignment import ALIGNED, HALLUCINATED, align_corpus, inclusion_rows, input_entities
from sumprobe.cli import main
from sumprobe.generate import generate_corpus, make_scheme, render
from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus, simulation_experiment
from sumprobe.measures import (
    BootstrapRecord,
    SummaryPoint,
    bootstrap,
    count_identifiers,
    distinguishability,
    inclusion_scores,
)
from sumprobe.pipeline import Pipeline, PipelineConfig
from sumprobe.seeding import derive_rng
from sumprobe.summaries import SummaryRecord, build_lexicon, entity_detector, summary_tokenizer
from sumprobe.templates import build_template


def passline(n: int, text: str) -> None:
    print(f"\nPASS criterion {n}: {text}")


# --- 1. round-trip fidelity ------------------------------------------------------


def test_criterion_1_round_trip_fidelity(fixture_corpus, fixture_templates):
    assert len(fixture_corpus) == 50
    mismatches = 0
    for doc, template in zip(fixture_corpus, fixture_templates):
        rendered = render(template, identity_assignments(template))
        if rendered != doc.tokens:
            mismatches += 1
    assert mismatches == 0
    passline(1, "identity fill reproduces all 50 fixture documents exactly")


# --- 2. balance invariants -------------------------------------------------------


def test_criterion_2_balance_invariants(fixture_templates, census):
    eligible = [t for t in fixture_templates if t.eligible]
    local = generate_corpus(eligible, make_scheme("gender_local", variants=20), 5, census=census)
    by_pair: dict[str, list] = {}
    for gi in local:
        genders = Counter(a.gender for a in gi.assignments)
        assert abs(genders["male"] - genders["female"]) <= 1
        by_pair.setdefault(gi.pair_id, []).append(gi)
    assert all(len(pair) == 2 for pair in by_pair.values())
    for first, second in by_pair.values():
        flip = {"male": "female", "female": "male"}
        for a, b in zip(first.assignments, second.assignments):
            assert a.entity == b.entity
            assert b.gender == flip[a.gender]
            assert a.last == b.last
        for gender in ("male", "female"):
            names_a = [a.first for a in first.assignments if a.gender == gender]
            names_b = [a.first for a in second.assignments if a.gender == gender]
            shorter, longer = sorted([names_a, names_b], key=len)
            assert longer[: len(shorter)] == shorter

    glob = generate_corpus(eligible, make_scheme("gender_global", variants=20), 5, census=census)
    per_original: dict[str, Counter] = {}
    for gi in glob:
        genders = {a.gender for a in gi.assignments}
        assert len(genders) == 1
        per_original.setdefault(gi.original_id, Counter())[genders.pop()] += 1
    for counts in per_original.values():
        assert counts == Counter({"male": 10, "female": 10})
    passline(2, "local balance, exact pair inversion with shared names, 10/10 global split")


# --- 3. measure oracles ------------------------------------------------------------


def test_criterion_3_measure_oracles(word_lists):
    rng = random.Random(2024)
    vocab = ["he", "she", "him", "her", "man", "woman", "plan", "game", "vote", "City"]
    checked = Counter()
    for case in range(24):
        summaries = [[rng.choice(vocab) for _ in range(rng.randint(0, 15))]
                     for _ in range(rng.randint(1, 6))]
        wl = {"male": word_lists["male"], "female": word_lists["female"]}
        payloads = [(count_identifiers(tokens, wl), Counter()) for tokens in summaries]
        if case % 2:
            ref = {"male": 0.5, "female": 0.5}
            ours = word_list_point(payloads, "uniform")
        else:
            # input identifier counts 7:3 give the adjusted reference 0.7/0.3
            ref = {"male": 0.7, "female": 0.3}
            ours = word_list_point(payloads + [(Counter(), Counter(male=7, female=3))])
        oracle = brute_word_list(summaries, wl, ref)
        assert (ours is None and oracle is None) or abs(ours - oracle) < 1e-9
        checked["word_list"] += 1

        table = {
            g: ((rng.randint(0, t) if t else 0), t)
            for g in ("male", "female")
            for t in [rng.randint(0, 25)]
        }
        ours = inclusion_point([table])
        oracle = brute_inclusion(table)
        assert (ours is None and oracle is None) or abs(ours - oracle) < 1e-9
        checked["entity_inclusion"] += 1

        verdicts = [rng.choice(["male", "female", "unknown"]) for _ in range(rng.randint(0, 40))]
        ours = hallucination_point(Counter(verdicts))
        oracle = brute_hallucination(verdicts)
        assert (ours is None and oracle is None) or abs(ours - oracle) < 1e-9
        checked["hallucination"] += 1

        points = [
            SummaryPoint(
                f"o{rng.randint(0, 2)}",
                rng.choice(["male", "female"]),
                Counter({w: rng.randint(0, 3) for w in rng.sample(vocab, 4)}),
            )
            for _ in range(rng.randint(4, 14))
        ]
        ours = distinguishability_point(points)
        oracle = brute_distinguishability(points)
        assert (ours is None and oracle is None) or abs(ours - oracle) < 1e-9
        checked["distinguishability"] += 1
    assert all(v >= 20 for v in checked.values())

    published = hallucination_point(Counter(male=238, female=29))
    assert abs(published - 0.39) <= 0.005
    passline(3, f"{sum(checked.values())} randomized oracle checks; 238m/29f -> {published:.4f}")


# --- 4. identity-summarizer null ----------------------------------------------------


def test_criterion_4_identity_summarizer_null(tmp_path, fixture_corpus):
    config_path = stage_run(
        tmp_path, fixture_corpus, variants=4, replicates=100, seed=31
    )
    report = Pipeline(PipelineConfig.from_file(config_path)).score()
    measures = report["systems"]["echo"]["measures"]
    assert measures["word_list_inclusion"]["point"] == 0.0
    assert 0.0 <= measures["entity_inclusion"]["point"] <= 0.05
    assert report["systems"]["echo"]["alignment_counts"]["hallucinated"] == 0
    assert measures["hallucination_bias"]["point"] is None
    passline(
        4,
        "identity summarizer: adjusted word list 0.0 exact, entity inclusion "
        f"{measures['entity_inclusion']['point']:.4f} <= 0.05, zero hallucinations",
    )


# --- 5. induced-bias detection -------------------------------------------------------


def test_criterion_5_induced_bias_detection(census):
    start = time.monotonic()
    corpus = make_fixture_corpus(120, seed=17)
    templates = [build_template(d) for d in corpus]
    inputs = generate_corpus(
        [t for t in templates if t.eligible],
        make_scheme("gender_local", variants=20),
        99,
        census=census,
    )
    assert len(inputs) >= 2000

    keep = {"male": 0.8, "female": 0.4}
    summarize = make_keep_rate_summarizer(keep)
    by_doc = {t.doc_id: t for t in templates}
    records, sources, index = [], {}, {}
    tokenize = summary_tokenizer()
    for gi in inputs:
        rng = derive_rng(99, "keep", gi.id)
        text = summarize(gi, rng)
        tokens = tokenize(text)
        index[gi.id] = input_entities(by_doc[gi.original_id], gi)
        sources[gi.id] = gi.tokens
        lexicon = frozenset(
            n.lower() for a in gi.assignments for n in (a.first, a.last) if n
        )
        records.append(
            SummaryRecord(gi.id, "biased", tokens, entity_detector(lexicon)(tokens))
        )
    aligned, _ = align_corpus(records, index, sources)
    stats = inclusion_stats_of(inclusion_rows(aligned, index))
    boot_records = [  # one statistics row per input, in input order
        BootstrapRecord(gi.original_id, gi.variant, np.array(row, dtype=np.int64))
        for gi, row in zip(inputs, stats)
    ]
    score = point(inclusion_scores, stats)
    lo, hi = bootstrap(boot_records, inclusion_scores, "d", replicates=1000, seed=12)
    elapsed = time.monotonic() - start

    analytic = (keep["male"] / (1 - keep["male"])) / (keep["female"] / (1 - keep["female"])) - 1
    assert abs(score - analytic) < 0.75
    assert lo > 0.0
    assert elapsed < 60.0
    passline(
        5,
        f"score {score:.2f} vs analytic {analytic:.2f} (odds-ratio of the 0.8/0.4 keep "
        f"rates), 95% CI ({lo:.2f},{hi:.2f}) excludes 0, {elapsed:.1f}s < 60s",
    )


# --- 6. simulation ordering -----------------------------------------------------------


def test_criterion_6_simulation_ordering(word_lists):
    start = time.monotonic()
    docs = make_synthetic_corpus(SyntheticCorpusConfig(n_docs=5000), seed=8)
    assert len(docs) >= 5000
    result = simulation_experiment(docs, word_lists, seed=8)
    scores = result["scores"]
    elapsed = time.monotonic() - start
    assert scores["random"]["adjusted"] <= 0.02
    assert scores["lead"]["adjusted"] <= 0.02
    assert scores["sexist"]["uniform"] < scores["topic"]["uniform"]
    assert scores["topic"]["adjusted"] > scores["random"]["adjusted"]
    assert elapsed < 300.0
    passline(
        6,
        "random/lead adjusted {:.3f}/{:.3f} <= 0.02; sexist uniform {:.3f} < topic "
        "uniform {:.3f}; topic adjusted {:.3f} > random; {:.0f}s < 300s".format(
            scores["random"]["adjusted"], scores["lead"]["adjusted"],
            scores["sexist"]["uniform"], scores["topic"]["uniform"],
            scores["topic"]["adjusted"], elapsed,
        ),
    )


# --- 7. distinguishability endpoints ----------------------------------------------------


def test_criterion_7_distinguishability_endpoints():
    separated = []
    for o in range(6):
        for _ in range(4):
            separated.append(SummaryPoint(f"o{o}", "male", Counter({"alpha": 2, "beta": 1})))
            separated.append(SummaryPoint(f"o{o}", "female", Counter({"gamma": 2, "delta": 1})))
    assert distinguishability_point(separated) == 1.0 and distinguishability(separated)[1] == []

    rng = random.Random(55)
    base = [
        [(f"o{o}", Counter({w: rng.randint(0, 4) for w in ("a", "b", "c", "d", "e")}))
         for _ in range(8)]
        for o in range(6)
    ]
    scores = []
    for _ in range(1000):
        points = []
        for original_points in base:
            labels = ["male"] * 4 + ["female"] * 4
            rng.shuffle(labels)
            for (orig, vec), label in zip(original_points, labels):
                points.append(SummaryPoint(orig, label, vec))
        scores.append(distinguishability_point(points))
    mean = sum(scores) / len(scores)
    assert abs(mean) <= 0.05
    passline(7, f"separated fixture scores exactly 1.0; 1000 label shuffles mean {mean:+.4f}")


# --- 8. alignment precision harness ------------------------------------------------------


def test_criterion_8_alignment_precision(census, census_raw, fixture_templates):
    eligible = [t for t in fixture_templates if t.eligible]
    inputs = generate_corpus(eligible, make_scheme("gender_local", variants=6), 3, census=census)
    by_doc = {t.doc_id: t for t in fixture_templates}
    rng = random.Random(77)
    invented_lasts = ["Quarry", "Vantree", "Snowbeck", "Larkmoor", "Duskfield"]

    records, sources, index, expected = [], {}, {}, []
    planted = 0
    constructed = 0
    tokenize = summary_tokenizer()
    for gi in inputs[:200]:
        index[gi.id] = input_entities(by_doc[gi.original_id], gi)
        sources[gi.id] = gi.tokens
        parts = []
        wanted = []
        for a in gi.assignments:
            style = rng.choice(["full", "title", "bare"])
            if style == "full":
                parts.append(f"{a.first} {a.last} spoke plainly .")
            elif style == "title":
                title = "Mr." if a.gender == "male" else "Ms."
                parts.append(f"{title} {a.last} spoke plainly .")
            else:
                parts.append(f"{a.last} spoke plainly .")
            wanted.append(a.entity)
            constructed += 1
        if planted < 50:
            first = rng.choice(sorted(census.male if planted % 2 else census.female))
            last = invented_lasts[planted % len(invented_lasts)]
            parts.append(f"later {first.title()} {last} appeared .")
            planted += 1
            wanted.append(HALLUCINATED)
        text = " ".join(parts)
        tokens = tokenize(text)
        lexicon = build_lexicon(
            [a.first for a in gi.assignments],
            [a.last for a in gi.assignments],
            (n.title() for n in invented_lasts),
            census=census_raw,
        )
        records.append(
            SummaryRecord(gi.id, "harness", tokens, entity_detector(lexicon)(tokens))
        )
        expected.append(wanted)
    assert len(records) == 200 and planted == 50

    aligned, _ = align_corpus(records, index, sources)
    correct = total_constructed = hallucinated_found = 0
    for a, wanted in zip(aligned, expected):
        statuses = {(r.matched if r.status == ALIGNED else r.status) for r in a.results}
        for want in wanted:
            if want == HALLUCINATED:
                hallucinated_found += want in statuses
            else:
                total_constructed += 1
                correct += want in statuses
    assert total_constructed == constructed
    assert correct == total_constructed  # 100% on constructed entities
    assert hallucinated_found >= 48
    passline(
        8,
        f"{correct}/{total_constructed} constructed entities aligned, "
        f"{hallucinated_found}/50 planted hallucinations tagged",
    )


# --- 9. determinism -----------------------------------------------------------------------


def test_criterion_9_run_determinism(tmp_path, monkeypatch):
    """Two systems, so that at 2 and 3 usable CPUs forked workers score them."""
    docs = make_fixture_corpus(10, seed=33)
    systems = {"echo": identity_summarizer, "inventive": hallucinating_summarizer}
    config = stage_run(tmp_path, docs, variants=4, replicates=50, seed=13, summarizers=systems)
    out = [tmp_path / f"run{i}" for i in range(3)]
    for cpus, out_dir in zip((1, 2, 3), out):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    hash_dir = PipelineConfig.from_file(config).config_hash()
    names = [
        "documents.jsonl", "templates.jsonl", "inputs.jsonl", "scores.json",
        "report.md", "report.csv", "report.json",
        *(f"{kind}.{system}.{ext}" for system in systems
          for kind, ext in (("alignments", "jsonl"), ("verdicts", "json"))),
    ]
    for name in names:
        blobs = [(o / hash_dir / name).read_bytes() for o in out]
        assert blobs[0] == blobs[1] == blobs[2], name
    passline(9, "three runs (on 1, 2 and 3 usable CPUs) produced byte-identical artifacts")
