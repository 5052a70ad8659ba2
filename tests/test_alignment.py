from hypothesis import given, settings
from hypothesis import strategies as st

from sumprobe.alignment import (
    ALIGNED,
    HALLUCINATED,
    UNRESOLVED,
    InputEntity,
    align,
    align_corpus,
    inclusion_rows,
    input_entities,
)
from sumprobe.generate import EntityAssignment, GeneratedInput
from sumprobe.summaries import SummaryEntity, SummaryRecord

LEVIN = InputEntity("0", "Melissa", "Levin", "female")
SOURCE = ["Melissa", "Levin", "spoke", "about", "the", "economy", "."]


def entity(*tokens):
    return SummaryEntity(0, len(tokens) - 1, tuple(tokens))


def test_align_full_name():
    result = align(entity("Melissa", "Levin"), [LEVIN], SOURCE)
    assert result.status == ALIGNED
    assert result.matched == "0"


def test_align_bare_last_name():
    assert align(entity("Levin"), [LEVIN], SOURCE).status == ALIGNED


def test_align_title_last_name():
    assert align(entity("Ms.", "Levin"), [LEVIN], SOURCE).status == ALIGNED


def test_wrong_first_name_not_aligned_hallucinated_if_absent():
    result = align(entity("John", "Levin"), [LEVIN], SOURCE)
    assert result.status == HALLUCINATED


def test_wrong_first_name_unresolved_if_all_tokens_in_source():
    source = SOURCE + ["John"]
    result = align(entity("John", "Levin"), [LEVIN], source)
    assert result.status == UNRESOLVED


def test_novel_entity_hallucinated():
    result = align(entity("Boris", "Yeltsin"), [LEVIN], SOURCE)
    assert result.status == HALLUCINATED


def test_footnote_safeguard_on_source_tokens():
    source = SOURCE + ["Boris", "Yeltsin"]
    result = align(entity("Boris", "Yeltsin"), [LEVIN], source)
    assert result.status == UNRESOLVED


def test_source_match_is_case_insensitive():
    source = [t.lower() for t in SOURCE] + ["boris", "yeltsin"]
    assert align(entity("Boris", "Yeltsin"), [LEVIN], source).status == UNRESOLVED


def test_multiple_candidates_prefer_first_name_match():
    other = InputEntity("1", "Karen", "Levin", "female")
    result = align(entity("Karen", "Levin"), [LEVIN, other], SOURCE)
    assert result.matched == "1"


def test_multiple_candidates_tie_breaks_by_position():
    a = InputEntity("7", "Melissa", "Levin", "female")
    b = InputEntity("2", "Amy", "Levin", "female")
    result = align(entity("Levin"), [a, b], SOURCE)
    assert result.matched == "7"


def test_alignment_order_invariant():
    entities = [
        InputEntity("0", "Melissa", "Levin", "female"),
        InputEntity("1", "James", "Wyndham", "male"),
    ]
    summary_entities = [entity("James", "Wyndham"), entity("Melissa", "Levin")]
    source = SOURCE + ["James", "Wyndham"]
    results = {align(e, entities, source).matched for e in summary_entities}
    reversed_results = {align(e, entities, source).matched for e in reversed(summary_entities)}
    assert results == reversed_results == {"0", "1"}


@given(st.lists(st.sampled_from(SOURCE), min_size=1, max_size=4))
@settings(max_examples=60)
def test_entity_of_source_tokens_never_hallucinated(tokens):
    capitalized = tuple(t.capitalize() for t in tokens)
    result = align(SummaryEntity(0, len(tokens) - 1, capitalized), [LEVIN], SOURCE)
    assert result.status != HALLUCINATED


def make_generated(n=1):
    return GeneratedInput(
        id="d#0::00",
        original_id="d#0",
        variant=0,
        pair_id=None,
        assignments=[
            EntityAssignment(str(i), "female" if i % 2 else "male",
                             "female" if i % 2 else "male", f"First{i}", f"Last{i}")
            for i in range(n)
        ],
        tokens=[t for i in range(n) for t in (f"First{i}", f"Last{i}", "spoke", ".")],
        seed="master=1",
    )


def record(entities, input_id="d#0::00", system="sys"):
    return SummaryRecord(input_id, system, [], entities)


def test_align_corpus_counts():
    gi = make_generated(2)
    index = {
        gi.id: [
            InputEntity("0", "First0", "Last0", "male"),
            InputEntity("1", "First1", "Last1", "female"),
        ]
    }
    sources = {gi.id: gi.tokens}
    records = [
        record([entity("First0", "Last0"), entity("Zeb", "Quarry")]),
    ]
    aligned, counts = align_corpus(records, index, sources)
    c = counts["sys"]
    assert c["input_entities"] == 2
    assert c["summary_entities"] == 2
    assert c["aligned_summary_entities"] == 1
    assert c["input_entities_with_alignment"] == 1
    assert c["hallucinated"] == 1
    assert c["unresolved"] == 0


def test_align_corpus_empty():
    aligned, counts = align_corpus([], {}, {})
    assert aligned == [] and counts == {}


def test_no_entity_both_aligned_and_hallucinated():
    gi = make_generated(1)
    index = {gi.id: [InputEntity("0", "First0", "Last0", "male")]}
    records = [record([entity("First0", "Last0"), entity("First0", "Last0")])]
    aligned, _ = align_corpus(records, index, {gi.id: gi.tokens})
    for res in aligned[0].results:
        assert res.status in (ALIGNED, HALLUCINATED, UNRESOLVED)
        assert (res.status == ALIGNED) == (res.matched is not None)


def test_inclusion_rows_count_entities_once():
    gi = make_generated(2)
    index = {
        gi.id: [
            InputEntity("0", "First0", "Last0", "male"),
            InputEntity("1", "First1", "Last1", "female"),
        ]
    }
    records = [record([entity("First0", "Last0"), entity("Last0")])]
    aligned, _ = align_corpus(records, index, {gi.id: gi.tokens})
    rows = inclusion_rows(aligned, index)
    assert rows[0] == {"male": (1, 1), "female": (0, 1)}


def test_input_entities_uses_assignments(fixture_templates, census):
    from sumprobe.generate import generate_corpus, make_scheme

    eligible = [t for t in fixture_templates if t.eligible][:3]
    inputs = generate_corpus(eligible, make_scheme("gender_local", variants=2), 1, census=census)
    by_doc = {t.doc_id: t for t in eligible}
    for gi in inputs:
        table = input_entities(by_doc[gi.original_id], gi)
        assigned = gi.assignment_map()
        for ie in table:
            if ie.id in assigned:
                assert ie.first == assigned[ie.id].first
                assert ie.last == assigned[ie.id].last
                assert ie.group == assigned[ie.id].group
            else:
                assert ie.group is None
