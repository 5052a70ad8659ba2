import json

import pytest
from helpers import holes
from make_demo_data import DocBuilder

from sumprobe.templates import (
    TITLES,
    ContentWordSpan,
    SlotCategory,
    build_template,
    load_content_words,
    splice,
    template_from_json,
    template_to_json,
)


def doc_mr_levin():
    b = DocBuilder("mrlevin")
    b.add_sentence(
        ["Mr.", "Levin", "spoke", "."],
        ["NNP", "NNP", "VBD", "."],
        mentions=[(0, 1, "0")],
        nes=[(1, 1, "PERSON")],
    )
    b.add_sentence(
        ["Levin", "smiled", "."],
        ["NNP", "VBD", "."],
        mentions=[(0, 0, "0")],
        nes=[(0, 0, "PERSON")],
    )
    return b.build()


def doc_obama():
    b = DocBuilder("obama")
    b.add_sentence(
        ["Barack", "Obama", "arrived", "."],
        ["NNP", "NNP", "VBD", "."],
        mentions=[(0, 1, "0")],
        nes=[(0, 1, "PERSON")],
    )
    b.add_sentence(
        ["Obama", "waved", "."],
        ["NNP", "VBD", "."],
        mentions=[(0, 0, "0")],
        nes=[(0, 0, "PERSON")],
    )
    return b.build()


def doc_madonna():
    b = DocBuilder("madonna")
    b.add_sentence(
        ["Madonna", "performed", "."],
        ["NNP", "VBD", "."],
        mentions=[(0, 0, "0")],
        nes=[(0, 0, "PERSON")],
    )
    return b.build()


def test_title_inventory_is_fixed():
    assert TITLES == ("Mr.", "Mrs.", "Ms.", "Sir", "Lady")


def names_of(doc):
    """(entity id, first, last) of every person entity in the document's template."""
    return [(e.id, e.first, e.last) for e in build_template(doc).entities]


def test_infer_names_title_then_last():
    assert names_of(doc_mr_levin()) == [("0", None, "Levin")]


def test_infer_names_first_last_frequency():
    assert names_of(doc_obama()) == [("0", "Barack", "Obama")]


def test_infer_names_single_token_is_last_name():
    doc = doc_madonna()
    assert names_of(doc) == [("0", None, "Madonna")]
    template = build_template(doc)
    assert any("single-token" in d for d in template.diagnostics)


def test_select_requires_person_ne():
    b = DocBuilder("orgonly")
    b.add_sentence(
        ["The", "UN", "met", "."],
        ["DT", "NNP", "VBD", "."],
        mentions=[(0, 1, "0")],
        nes=[(1, 1, "ORG")],
    )
    assert names_of(b.build()) == []


def test_unassigned_person_ne_becomes_singleton():
    b = DocBuilder("single")
    b.add_sentence(
        ["The", "report", "cited", "Edmund", "Vexley", "."],
        ["DT", "NN", "VBD", "NNP", "NNP", "."],
        nes=[(3, 4, "PERSON")],
    )
    doc = b.build()
    assert names_of(doc) == [("ne:3-4", "Edmund", "Vexley")]


def test_ne_links_to_deepest_containing_mention():
    b = DocBuilder("deep")
    # outer mention (chain 1, "Mr. Levin 's lawyer") contains the inner
    # mention (chain 0, "Mr. Levin"); the NE must link to the inner one
    b.add_sentence(
        ["Mr.", "Levin", "'s", "lawyer", "agreed", "."],
        ["NNP", "NNP", "POS", "NN", "VBD", "."],
        mentions=[(0, 1, "0"), (0, 3, "1")],
        nes=[(1, 1, "PERSON")],
    )
    assert [e.id for e in build_template(b.build()).entities] == ["0"]


def test_mention_with_title_splits_into_title_and_last_slots():
    template = build_template(doc_mr_levin())
    ent = template.entities[0]
    cats = [(s.category, s.start, s.end) for s in ent.slots]
    assert (SlotCategory.TITLE, 0, 0) in cats
    assert (SlotCategory.LAST_NAME, 1, 1) in cats
    assert ent.gendered  # title mention marks the entity gendered
    assert ent.original_gender == "male"


def test_adjacent_first_last_becomes_full_name_slot():
    template = build_template(doc_obama())
    ent = template.entities[0]
    assert (SlotCategory.FULL_NAME, 0, 1) in [(s.category, s.start, s.end) for s in ent.slots]
    assert ent.gendered


def test_bare_last_name_entity_is_not_gendered():
    b = DocBuilder("bare")
    b.add_sentence(
        ["Levin", "declined", "."],
        ["NNP", "VBD", "."],
        mentions=[(0, 0, "0")],
        nes=[(0, 0, "PERSON")],
    )
    template = build_template(b.build())
    assert template.entities[0].gendered is False
    assert not template.eligible


def test_document_without_persons_is_ineligible():
    b = DocBuilder("empty")
    b.filler("Nothing happened today .")
    template = build_template(b.build())
    assert template.entities == []
    assert not template.eligible


def test_pronoun_slots_cover_single_tagged_tokens(fixture_templates):
    for template in fixture_templates:
        for ent in template.entities:
            for slot in ent.slots:
                if slot.category is SlotCategory.PRONOUN:
                    assert slot.start == slot.end
                    assert slot.pos in ("PRP", "PRP$")
                    assert slot.text[0].lower() in (
                        "he", "him", "his", "himself", "she", "her", "hers", "herself",
                    )


def test_name_slots_contain_inferred_names(fixture_templates):
    for template in fixture_templates:
        for ent in template.entities:
            for slot in ent.slots:
                if slot.category in (SlotCategory.FULL_NAME, SlotCategory.FIRST_NAME):
                    assert ent.first in slot.text
                if slot.category in (SlotCategory.FULL_NAME, SlotCategory.LAST_NAME):
                    assert ent.last in slot.text


def test_holes_are_disjoint(fixture_templates):
    for template in fixture_templates:
        spans = holes(template)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2


def test_identity_fill_reproduces_tokens(fixture_templates):
    for template in fixture_templates:
        pieces = [
            (s.start, s.end, list(s.text))
            for ent in template.entities
            for s in ent.slots
        ]
        assert splice(template.tokens, pieces) == template.tokens


def test_nested_other_entity_name_left_untouched():
    b = DocBuilder("nested")
    # chain 1 ("the Ashford lawyer") is a person chain via its own NE, but
    # its second mention contains entity 0's name and must stay untouched
    b.add_sentence(
        ["Mr.", "Ashford", "hired", "Winifred", "Jessop", "."],
        ["NNP", "NNP", "VBD", "NNP", "NNP", "."],
        mentions=[(0, 1, "0"), (3, 4, "1")],
        nes=[(1, 1, "PERSON"), (3, 4, "PERSON")],
    )
    b.add_sentence(
        ["the", "Ashford", "lawyer", "smiled", "."],
        ["DT", "NNP", "NN", "VBD", "."],
        mentions=[(1, 2, "1")],
    )
    template = build_template(b.build())
    ent1 = [e for e in template.entities if e.id == "1"][0]
    assert all(s.start < 6 or s.start > 10 for s in ent1.slots)
    assert any("left untouched" in d for d in template.diagnostics)


def test_content_span_neutral_required_for_multiple_entities():
    doc = doc_obama()
    span = ContentWordSpan(2, 2, ("0", "1"), "chairman", "chairwoman", None)
    template = build_template(doc, [span])
    assert template.content_spans == []
    assert any("neutral" in d for d in template.diagnostics)


def test_content_span_overlapping_slot_dropped():
    doc = doc_obama()
    span = ContentWordSpan(0, 0, ("0",), "x", "y", None)
    template = build_template(doc, [span])
    assert template.content_spans == []


@pytest.mark.parametrize("title_first, expected", [(True, "male"), (False, "female")])
def test_mixed_gender_evidence_is_reported_and_a_tie_takes_the_earliest_vote(title_first, expected):
    b = DocBuilder("mixed")
    titled = (["Mr.", "Levin", "spoke", "."], ["NNP", "NNP", "VBD", "."], [(0, 1, "0")],
              [(1, 1, "PERSON")])
    pronoun = (["She", "smiled", "."], ["PRP", "VBD", "."], [(0, 0, "0")], [])
    for words, pos, mentions, nes in (titled, pronoun) if title_first else (pronoun, titled):
        b.add_sentence(words, pos, mentions=mentions, nes=nes)
    template = build_template(b.build())
    assert template.entities[0].original_gender == expected
    assert "entity 0: mixed gender evidence {" in "".join(template.diagnostics)


def test_slot_overlapping_an_earlier_entitys_slot_is_dropped():
    b = DocBuilder("shared")
    b.add_sentence(
        ["Edmund", "Ashford", "met", "Rupert", "Brackley", "."],
        ["NNP", "NNP", "VBD", "NNP", "NNP", "."],
        mentions=[(0, 1, "0"), (3, 4, "1")],
        nes=[(0, 1, "PERSON"), (3, 4, "PERSON")],
    )
    # one pronoun mention in both chains: the earlier entity keeps its slot
    b.add_sentence(["He", "left", "."], ["PRP", "VBD", "."], mentions=[(0, 0, "0"), (0, 0, "1")])
    template = build_template(b.build())
    first, second = template.entities
    assert (SlotCategory.PRONOUN, 6) in [(s.category, s.start) for s in first.slots]
    assert all(s.start != 6 for s in second.slots)
    assert "entity 1: slot (6,6) overlaps an earlier entity's slot; dropped" in template.diagnostics


def test_content_span_out_of_range_dropped():
    doc = doc_obama()
    span = ContentWordSpan(len(doc.tokens), len(doc.tokens), ("0",), "x", "y", None)
    template = build_template(doc, [span])
    assert template.content_spans == []
    assert template.diagnostics[-1] == "content span (7,7) out of range; dropped"


def test_content_words_loader(tmp_path):
    path = tmp_path / "cw.jsonl"
    row = {
        "doc_id": "obama#0",
        "start": 2,
        "end": 2,
        "entities": ["0"],
        "male": "spokesman",
        "female": "spokeswoman",
        "neutral": "spokesperson",
    }
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    spans = load_content_words(path)
    assert spans == {
        "obama#0": [ContentWordSpan(2, 2, ("0",), "spokesman", "spokeswoman", "spokesperson")]
    }


def test_template_json_roundtrip(fixture_templates):
    for template in fixture_templates:
        again = template_from_json(template_to_json(template))
        assert again == template


def test_fixture_corpus_mix(fixture_templates):
    eligible = [t for t in fixture_templates if t.eligible]
    assert 35 <= len(eligible) <= 49  # some ineligible documents by design
    sizes = {len(t.gendered_entities()) for t in eligible}
    assert any(n % 2 == 1 for n in sizes) and any(n % 2 == 0 for n in sizes)
