import json

import pytest
from helpers import lexicons, raw_tokens, summary_texts
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_detect_entities, loop_tokenize_summary

from sumprobe.generate import EntityAssignment, GeneratedInput
from sumprobe.jsonio import DataError
from sumprobe.summaries import (
    SummaryEntity,
    build_lexicon,
    entity_detector,
    load_summaries,
    summary_tokenizer,
)


def gi(input_id="d#0::00"):
    return GeneratedInput(
        id=input_id,
        original_id="d#0",
        variant=0,
        pair_id=None,
        assignments=[EntityAssignment("0", "female", "female", "Melissa", "Levin")],
        tokens=["Melissa", "Levin", "spoke", "."],
        seed="master=1",
    )


def test_tokenize_strips_edge_punctuation():
    assert summary_tokenizer()('Levin, said: "done."') == ["Levin", "said", "done", "."]


def test_tokenize_keeps_title_period():
    assert summary_tokenizer()("Ms. Levin spoke.") == ["Ms.", "Levin", "spoke", "."]
    assert summary_tokenizer()("(Mr. Levin!)") == ["Mr.", "Levin", "."]


def test_tokenize_drops_pure_punctuation():
    assert summary_tokenizer()("well -- yes !") == ["well", "yes", "."]


def test_tokenize_boundary_blocks_run_merging():
    tokens = summary_tokenizer()("He cited Melissa Levin. The council agreed.")
    assert tokens == ["He", "cited", "Melissa", "Levin", ".", "The", "council", "agreed", "."]
    entities = entity_detector(frozenset({"melissa", "levin"}))(tokens)
    assert entities == [SummaryEntity(2, 3, ("Melissa", "Levin"))]


def test_detect_entity_with_lexicon_name():
    lexicon = frozenset({"melissa", "levin"})
    tokens = ["Melissa", "Levin", "announced", "results"]
    assert entity_detector(lexicon)(tokens) == [
        SummaryEntity(0, 1, ("Melissa", "Levin"))
    ]


def test_detect_skips_capitalized_run_without_hit():
    tokens = ["The", "United", "Nations", "said", "so"]
    assert entity_detector(frozenset({"melissa"}))(tokens) == []


def test_detect_title_triggers():
    tokens = ["Ms.", "Levin", "left"]
    assert entity_detector(frozenset())(tokens) == [
        SummaryEntity(0, 1, ("Ms.", "Levin"))
    ]


def test_detect_single_token_name():
    assert entity_detector(frozenset({"obama"}))(["Obama", "won"]) == [
        SummaryEntity(0, 0, ("Obama",))
    ]


def test_detect_is_position_stable():
    lexicon = frozenset({"levin"})
    tokens = ["Early", "on", "Levin", "met", "Levin"]
    spans = [(e.start, e.end) for e in entity_detector(lexicon)(tokens)]
    assert spans == [(2, 2), (4, 4)]


def test_detected_tokens_are_capitalized_or_titles(census_raw):
    lexicon = build_lexicon(["Levin"], census=census_raw)
    tokens = summary_tokenizer()("Today Ms. Levin met JAMES and said nothing.")
    for entity in entity_detector(lexicon)(tokens):
        for tok in entity.tokens:
            assert tok[:1].isupper() or tok.lower() in ("mr.", "mrs.", "ms.")


def write_summaries(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_summaries_joins(tmp_path):
    path = tmp_path / "s.jsonl"
    write_summaries(path, [{"input_id": "d#0::00", "system": "sys", "summary": "Melissa Levin spoke ."}])
    records = load_summaries(path, {"d#0::00": gi()}, system="sys",
                             lexicon=frozenset({"melissa", "levin"}))
    assert len(records) == 1
    assert records[0].tokens == ["Melissa", "Levin", "spoke", "."]
    assert records[0].entities == [SummaryEntity(0, 1, ("Melissa", "Levin"))]


def test_load_summaries_unknown_id(tmp_path):
    path = tmp_path / "s.jsonl"
    write_summaries(path, [{"input_id": "missing", "system": "sys", "summary": "x"}])
    with pytest.raises(DataError, match="missing"):
        load_summaries(path, {"d#0::00": gi()}, system="sys")


def test_load_summaries_duplicate(tmp_path):
    path = tmp_path / "s.jsonl"
    row = {"input_id": "d#0::00", "system": "sys", "summary": "x"}
    write_summaries(path, [row, row])
    with pytest.raises(DataError, match="duplicate"):
        load_summaries(path, {"d#0::00": gi()}, system="sys")


def test_empty_summary_is_valid(tmp_path):
    path = tmp_path / "s.jsonl"
    write_summaries(path, [{"input_id": "d#0::00", "system": "sys", "summary": ""}])
    records = load_summaries(path, {"d#0::00": gi()}, system="sys", lexicon=frozenset({"levin"}))
    assert records[0].tokens == []
    assert records[0].entities == []


def test_ner_sidecar_overrides_detection(tmp_path):
    spath = tmp_path / "s.jsonl"
    write_summaries(spath, [{"input_id": "d#0::00", "system": "sys", "summary": "By Dana Scribe today"}])
    npath = tmp_path / "n.jsonl"
    npath.write_text(
        json.dumps({"input_id": "d#0::00", "entities": [[1, 2, "PERSON"], [3, 3, "DATE"]]}) + "\n"
    )
    records = load_summaries(spath, {"d#0::00": gi()}, system="sys", lexicon=frozenset(),
                             ner_sidecar=npath)
    assert records[0].entities == [SummaryEntity(1, 2, ("Dana", "Scribe"))]


def test_sidecar_repeating_an_input_is_a_malformed_row(tmp_path):
    spath = tmp_path / "s.jsonl"
    write_summaries(spath, [{"input_id": "d#0::00", "system": "sys", "summary": "Dana Scribe"}])
    npath = tmp_path / "n.jsonl"
    write_summaries(npath, [{"input_id": "d#0::00", "entities": [[0, 1, "PERSON"]]},
                            {"input_id": "d#0::00", "entities": []}])
    with pytest.raises(DataError, match=f"^{npath}:2: malformed row: input d#0::00 appears twice$"):
        load_summaries(spath, {"d#0::00": gi()}, system="sys", ner_sidecar=npath)


def test_sidecar_rows_of_unknown_inputs_are_a_data_error(tmp_path):
    spath = tmp_path / "s.jsonl"
    write_summaries(spath, [{"input_id": "d#0::00", "system": "sys", "summary": "Dana Scribe"}])
    npath = tmp_path / "n.jsonl"
    write_summaries(npath, [{"input_id": i, "entities": [[0, 1, "PERSON"]]}
                            for i in ("nowhere", "d#0::00", "elsewhere")])
    with pytest.raises(DataError) as caught:
        load_summaries(spath, {"d#0::00": gi()}, system="sys", lexicon=frozenset(),
                       ner_sidecar=npath)
    assert str(caught.value) == (f"{npath}: system 'sys': sidecar rows reference unknown input "
                                 "ids: elsewhere, nowhere")


def test_sidecar_row_of_an_input_without_summary_loads(tmp_path):
    spath = tmp_path / "s.jsonl"
    write_summaries(spath, [{"input_id": "d#0::00", "system": "sys", "summary": "Dana Scribe"}])
    npath = tmp_path / "n.jsonl"
    write_summaries(npath, [{"input_id": "d#0::01", "entities": [[0, 0, "PERSON"]]}])
    inputs = {"d#0::00": gi(), "d#0::01": gi("d#0::01")}
    records = load_summaries(spath, inputs, system="sys", lexicon=frozenset({"dana"}),
                             ner_sidecar=npath)
    assert [(r.input_id, r.entities) for r in records] == [
        ("d#0::00", [SummaryEntity(0, 1, ("Dana", "Scribe"))])]


def test_equal_tokens_of_loaded_records_are_one_object(tmp_path):
    """One string per distinct token, whatever the number of occurrences:
    what keeps a loaded summary file small in memory."""
    path = tmp_path / "s.jsonl"
    write_summaries(path, [
        {"input_id": "d#0::00", "system": "sys", "summary": "Melissa Levin spoke about Levin."},
        {"input_id": "d#0::01", "system": "sys", "summary": "then (Melissa Levin) spoke."},
    ])
    inputs = {"d#0::00": gi(), "d#0::01": gi("d#0::01")}
    first, second = load_summaries(path, inputs, system="sys",
                                   lexicon=frozenset({"melissa", "levin"}))
    assert first.tokens[1] is first.tokens[4] is second.tokens[2] is second.entities[0].tokens[1]
    assert first.tokens[2] is second.tokens[3]
    assert first.entities[0].tokens[0] is second.tokens[1]


@given(st.lists(summary_texts, max_size=4))
@settings(max_examples=200, deadline=None)
def test_tokenize_equals_the_per_occurrence_loop(texts):
    """Through one tokenizer kept across texts, as `load_summaries` does."""
    tokenize = summary_tokenizer()
    for text in texts:
        assert tokenize(text) == loop_tokenize_summary(text)


@given(st.lists(st.lists(raw_tokens, max_size=12), max_size=4), lexicons)
@settings(max_examples=150, deadline=None)
def test_detection_equals_the_per_occurrence_loop(token_lists, lexicon):
    """Raw tokens (empty, punctuation only, ALL-CAPS) as well as tokenized
    ones, through one detector kept across lists, as `load_summaries` does."""
    detect = entity_detector(lexicon)
    tokenize = summary_tokenizer()
    for tokens in token_lists + [tokenize(" ".join(t)) for t in token_lists]:
        assert detect(tokens) == loop_detect_entities(tokens, lexicon)


def test_build_lexicon_contents(census_raw):
    lex = build_lexicon(["Melissa", None], ["Levin"], census=census_raw)
    assert {"melissa", "levin", "james", "mary"} <= lex
