import json

import pytest

from sumprobe.generate import EntityAssignment, GeneratedInput
from sumprobe.jsonio import DataError
from sumprobe.summaries import (
    SummaryEntity,
    build_lexicon,
    detect_entities,
    load_summaries,
    tokenize_summary,
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
    assert tokenize_summary('Levin, said: "done."') == ["Levin", "said", "done", "."]


def test_tokenize_keeps_title_period():
    assert tokenize_summary("Ms. Levin spoke.") == ["Ms.", "Levin", "spoke", "."]
    assert tokenize_summary("(Mr. Levin!)") == ["Mr.", "Levin", "."]


def test_tokenize_drops_pure_punctuation():
    assert tokenize_summary("well -- yes !") == ["well", "yes", "."]


def test_tokenize_boundary_blocks_run_merging():
    tokens = tokenize_summary("He cited Melissa Levin. The council agreed.")
    assert tokens == ["He", "cited", "Melissa", "Levin", ".", "The", "council", "agreed", "."]
    entities = detect_entities(tokens, frozenset({"melissa", "levin"}))
    assert entities == [SummaryEntity(2, 3, ("Melissa", "Levin"))]


def test_detect_entity_with_lexicon_name():
    lexicon = frozenset({"melissa", "levin"})
    tokens = ["Melissa", "Levin", "announced", "results"]
    assert detect_entities(tokens, lexicon) == [
        SummaryEntity(0, 1, ("Melissa", "Levin"))
    ]


def test_detect_skips_capitalized_run_without_hit():
    tokens = ["The", "United", "Nations", "said", "so"]
    assert detect_entities(tokens, frozenset({"melissa"})) == []


def test_detect_title_triggers():
    tokens = ["Ms.", "Levin", "left"]
    assert detect_entities(tokens, frozenset()) == [
        SummaryEntity(0, 1, ("Ms.", "Levin"))
    ]


def test_detect_single_token_name():
    assert detect_entities(["Obama", "won"], frozenset({"obama"})) == [
        SummaryEntity(0, 0, ("Obama",))
    ]


def test_detect_is_position_stable():
    lexicon = frozenset({"levin"})
    tokens = ["Early", "on", "Levin", "met", "Levin"]
    spans = [(e.start, e.end) for e in detect_entities(tokens, lexicon)]
    assert spans == [(2, 2), (4, 4)]


def test_detected_tokens_are_capitalized_or_titles(census_raw):
    lexicon = build_lexicon(["Levin"], census=census_raw)
    tokens = tokenize_summary("Today Ms. Levin met JAMES and said nothing.")
    for entity in detect_entities(tokens, lexicon):
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


def test_build_lexicon_contents(census_raw):
    lex = build_lexicon(["Melissa", None], ["Levin"], census=census_raw)
    assert {"melissa", "levin", "james", "mary"} <= lex
