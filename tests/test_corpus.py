import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mentions
from oracles import token_sentences, token_to_json

from sumprobe import corpus
from sumprobe.corpus import (
    AnnotatedDocument,
    MentionSpan,
    NamedEntitySpan,
    Token,
    from_json,
    parse_conll_corpus,
    read_jsonl,
    to_json,
    write_conll_corpus,
    write_jsonl,
)
from sumprobe.input_bias import _sentence_ends
from sumprobe.jsonio import DataError, read_rows

MINIMAL = """#begin document (mini); part 000
mini 0 0 Mr. NNP * (0
mini 0 1 Levin NNP (PERSON) 0)
mini 0 2 spoke VBD * -
mini 0 3 . . * -
#end document
"""


def parse_text(tmp_path, text, name="c.conll"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return parse_conll_corpus(path)


def test_minimal_document(tmp_path):
    docs = parse_text(tmp_path, MINIMAL)
    assert len(docs) == 1
    doc = docs[0]
    assert doc.id == "mini#0"
    assert doc.tokens == ["Mr.", "Levin", "spoke", "."]
    assert doc.sentences == [0, 0, 0, 0]
    assert doc.pos == ["NNP", "NNP", "VBD", "."]
    assert doc.chains == {"0": [MentionSpan(0, 1, "0")]}
    assert doc.entities == [NamedEntitySpan(1, 1, "PERSON")]


def test_empty_file(tmp_path):
    assert parse_text(tmp_path, "") == []


def test_unclosed_coref_bracket(tmp_path):
    bad = MINIMAL.replace("0)", "-")
    with pytest.raises(DataError):
        parse_text(tmp_path, bad)


def test_close_without_open(tmp_path):
    bad = MINIMAL.replace("(0", "-")
    with pytest.raises(DataError):
        parse_text(tmp_path, bad)


def test_bad_column_count_reports_line(tmp_path):
    bad = MINIMAL.replace("mini 0 2 spoke VBD * -", "mini 0 2 spoke VBD")
    with pytest.raises(DataError, match="line 4"):
        parse_text(tmp_path, bad)


def test_unclosed_ne_bracket(tmp_path):
    bad = MINIMAL.replace("(PERSON)", "(PERSON*")
    with pytest.raises(DataError):
        parse_text(tmp_path, bad)


def test_missing_end_marker(tmp_path):
    with pytest.raises(DataError):
        parse_text(tmp_path, MINIMAL.replace("#end document\n", ""))


def test_pos_placeholder_roundtrip(tmp_path):
    text = MINIMAL.replace("spoke VBD", "spoke -")
    doc = parse_text(tmp_path, text)[0]
    assert doc.pos[2] == ""


def test_coref_bracket_open_at_sentence_break_reports_line(tmp_path):
    bad = MINIMAL.replace("mini 0 1 Levin", "\nmini 0 1 Levin")
    with pytest.raises(DataError) as err:
        parse_text(tmp_path, bad)
    assert str(err.value) == (f"{tmp_path / 'c.conll'}: line 3: coreference bracket(s) for "
                              "chain(s) 0 still open at a sentence break")


def test_repeated_document_id_reports_its_second_begin(tmp_path):
    with pytest.raises(DataError) as err:
        parse_text(tmp_path, MINIMAL + MINIMAL.replace("part 000", "part 0"))
    assert str(err.value) == f"{tmp_path / 'c.conll'}: line 7: document mini#0 appears twice"


# a valid two-sentence document row; each case breaks a copy of it one way
ROW = {"id": "x#0", "tokens": ["a", "b", "c"], "sentences": [0, 0, 1], "pos": ["", "", ""],
       "chains": {"0": [[0, 1]]}, "entities": [[1, 1, "PERSON"]]}


@pytest.mark.parametrize("change, problem", [
    ({"entities": [[0, 5, "PERSON"]]}, "entity [0, 5, 'PERSON'] out of range"),
    ({"entities": [[2, 1, "PERSON"]]}, "entity [2, 1, 'PERSON'] out of range"),
    ({"chains": {"0": [[0, 3]]}}, "chain '0': mention [0, 3] out of range"),
    ({"chains": {"0": [[-1, 0]]}}, "chain '0': mention [-1, 0] out of range"),
    ({"chains": {"0": [[1, 2]]}}, "chain '0': mention [1, 2] crosses a sentence break"),
    ({"chains": {"0": []}}, "chain '0' is not a non-empty list of [start, end] spans"),
    ({"sentences": [1, 1, 2]}, "sentences must start at 0 and never decrease"),
    ({"sentences": [0, 1, 0]}, "sentences must start at 0 and never decrease"),
    ({"id": "x#0"}, "document x#0 appears twice"),
], ids=["entity_past_end", "entity_reversed", "mention_past_end", "negative_mention",
        "cross_sentence_mention", "empty_chain", "first_sentence_1", "sentence_decreases",
        "id_twice"])
def test_read_jsonl_reports_bad_document_row(tmp_path, change, problem):
    path = tmp_path / "docs.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in (ROW, {**ROW, "id": "y#0", **change})))
    with pytest.raises(DataError) as err:
        list(read_jsonl(path))
    assert str(err.value) == f"{path}:2: malformed row: {problem}"


def test_jsonl_roundtrip_fixture_corpus(tmp_path, fixture_corpus):
    path = tmp_path / "docs.jsonl"
    write_jsonl(fixture_corpus, path)
    assert list(read_jsonl(path)) == fixture_corpus


def test_every_chain_mention_in_mention_set(fixture_corpus):
    for doc in fixture_corpus:
        mention_set = set(mentions(doc))
        for spans in doc.chains.values():
            assert set(spans) <= mention_set


def roundtrip(docs, tmp_path, name):
    path = tmp_path / name
    with path.open("w", encoding="utf-8") as fh:
        write_conll_corpus(docs, fh)
    return parse_conll_corpus(path)


def test_conll_roundtrip_fixture_corpus(tmp_path, fixture_corpus):
    again = roundtrip(fixture_corpus, tmp_path, "fix.conll")
    assert again == fixture_corpus


def test_json_roundtrip(fixture_corpus):
    for doc in fixture_corpus:
        assert from_json(to_json(doc)) == doc


@st.composite
def hand_built(draw):
    """(tokens, chains, entities) of a document built token by token, as the
    benchmark's generator builds one: possibly no tokens at all, sentence ids
    that may skip numbers, POS tags that may be empty."""
    tokens = []
    sent_bounds = []
    sentence = 0
    for s in range(draw(st.integers(0, 4))):
        if s:
            sentence += draw(st.integers(1, 2))
        start = len(tokens)
        for _ in range(draw(st.integers(1, 6))):
            word = draw(st.sampled_from(["alpha", "Beta", "Gamma", "holt", "Mr.", "."]))
            pos = draw(st.sampled_from(["NN", "NNP", "PRP", ""]))
            tokens.append(Token(len(tokens), word, sentence, pos))
        sent_bounds.append((start, len(tokens) - 1))
    chains = {}
    for c in range(draw(st.integers(0, 3)) if sent_bounds else 0):
        spans: list[MentionSpan] = []
        for _ in range(draw(st.integers(1, 3))):
            s_lo, s_hi = draw(st.sampled_from(sent_bounds))
            a = draw(st.integers(s_lo, s_hi))
            b = draw(st.integers(a, s_hi))
            candidate = MentionSpan(a, b, str(c))
            # same-chain mentions may nest but not cross (bracket notation)
            crossing = any(
                (s.start < candidate.start <= s.end < candidate.end)
                or (candidate.start < s.start <= candidate.end < s.end)
                for s in spans
            )
            if not crossing:
                spans.append(candidate)
        chains[str(c)] = sorted(set(spans))
    entities = []
    for _ in range(draw(st.integers(0, 2)) if sent_bounds else 0):
        s_lo, s_hi = draw(st.sampled_from(sent_bounds))
        a = draw(st.integers(s_lo, s_hi))
        b = draw(st.integers(a, s_hi))
        entities.append(NamedEntitySpan(a, b, "PERSON"))
    # the column format admits one flat NE layer: no overlap
    kept = []
    for e in sorted(set(entities)):
        if all(e.start > k.end or e.end < k.start for k in kept):
            kept.append(e)
    return tokens, chains, kept


@given(hand_built())
@example(([], {}, []))
@example(([Token(0, "Ann", 0, "NNP"), Token(1, "she", 0, "PRP"), Token(2, ".", 2, "")],
          {"0": [MentionSpan(0, 0, "0"), MentionSpan(1, 1, "0")]},
          [NamedEntitySpan(0, 0, "PERSON")]))
@settings(max_examples=80, deadline=None)
def test_conll_roundtrip_property(tmp_path_factory, built):
    """A document built from `Token`s equals, column for column, what the
    JSONL reader makes of it, and what the column reader makes of it up to
    the sentence ids, which the column format numbers densely. Its row and
    its sentences equal the ones read off the `Token`s."""
    tokens, chains, entities = built
    doc = AnnotatedDocument("gen_0#0", tokens, chains, entities)
    assert to_json(doc) == token_to_json(doc.id, tokens, chains, entities)
    ends = _sentence_ends(doc.sentences)
    assert [doc.tokens[start:end] for start, end in zip([0, *ends], ends)] == token_sentences(tokens)
    tmp = tmp_path_factory.mktemp("rt")
    write_jsonl([doc], tmp / "doc.jsonl")
    assert list(read_jsonl(tmp / "doc.jsonl")) == [doc]
    dense = {s: i for i, s in enumerate(dict.fromkeys(doc.sentences))}
    renumbered = AnnotatedDocument.from_columns(doc.id, doc.tokens,
                                                [dense[s] for s in doc.sentences], doc.pos,
                                                chains, entities)
    assert roundtrip([doc], tmp, "doc.conll") == [renumbered]


def test_token_indices_must_be_positions():
    with pytest.raises(ValueError, match="token indices are not their positions"):
        AnnotatedDocument("x#0", [Token(1, "a", 0)], {}, [])


def test_read_jsonl_keeps_the_rows_own_columns(tmp_path, monkeypatch, fixture_corpus):
    """A read document holds its row's lists themselves: no copy, and no
    per-token object, is made while a corpus is read."""
    path = tmp_path / "docs.jsonl"
    write_jsonl(fixture_corpus, path)
    rows = []

    def kept_rows(*args):
        for row in read_rows(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(corpus, "read_rows", kept_rows)
    docs = list(read_jsonl(path))
    assert len(docs) == len(rows) == len(fixture_corpus)
    for doc, row in zip(docs, rows):
        assert doc.tokens is row["tokens"]
        assert doc.sentences is row["sentences"]
        assert doc.pos is row["pos"]


@pytest.mark.parametrize("suffix", [".jsonl", ".conll"])
def test_a_read_keeps_one_str_per_distinct_token_and_pos_tag(tmp_path, fixture_corpus, suffix):
    """Equal token texts, and equal POS tags, are one object across the
    documents either reader returns; the JSONL reader swaps them into each
    row's own lists, which test_read_jsonl_keeps_the_rows_own_columns checks
    the documents still hold."""
    if suffix == ".jsonl":
        path = tmp_path / "docs.jsonl"
        write_jsonl(fixture_corpus, path)
        docs = list(read_jsonl(path))
    else:
        docs = roundtrip(fixture_corpus, tmp_path, "docs.conll")
    assert docs == fixture_corpus
    for column in ("tokens", "pos"):
        values = [value for doc in docs for value in getattr(doc, column)]
        assert len(set(map(id, values))) == len(set(values)) < len(values)
