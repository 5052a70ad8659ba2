import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_assignments
from make_demo_data import DocBuilder

from sumprobe.generate import (
    AssignmentScheme,
    EntityAssignment,
    GenerationError,
    RenderError,
    assign_gender_pair,
    assign_global,
    assign_race,
    generate_corpus,
    input_from_json,
    input_to_json,
    make_scheme,
    map_pronoun,
    map_title,
    race_capacity_ok,
    render,
)
from sumprobe.names import load_race_names
from sumprobe.seeding import derive_rng
from sumprobe.templates import ContentWordSpan, build_template


def template_with_entities(n, kinds=None):
    """n gendered full-name entities, each in its own pair of sentences."""
    b = DocBuilder(f"gen{n}")
    males = ["Edmund", "Rupert", "Oswald", "Barnaby", "Clement", "Ambrose"]
    lasts = ["Ashford", "Brackley", "Cobbleton", "Dunmore", "Eastwick", "Fairholm"]
    for i in range(n):
        b.add_sentence(
            [males[i], lasts[i], "spoke", "."],
            ["NNP", "NNP", "VBD", "."],
            mentions=[(0, 1, str(i))],
            nes=[(0, 1, "PERSON")],
        )
        b.add_sentence(
            ["He", "kept", "his", "word", "."],
            ["PRP", "VBD", "PRP$", "NN", "."],
            mentions=[(0, 0, str(i)), (2, 2, str(i))],
        )
    return build_template(b.build())


# --- scheme validation ---------------------------------------------------------


def test_scheme_rejects_unknown_kind():
    with pytest.raises(ValueError):
        AssignmentScheme(kind="nope")


def test_scheme_local_needs_even_variants():
    with pytest.raises(ValueError):
        make_scheme("gender_local", variants=7)


def test_scheme_intersection_required():
    with pytest.raises(ValueError):
        make_scheme("race_intersectional")
    scheme = make_scheme(
        "race_intersectional", intersection={"black": "male", "white": "female"}
    )
    assert scheme.alter_last_names


# --- assignment balance ----------------------------------------------------------


def test_local_balance_even(census):
    template = template_with_entities(4)
    scheme = make_scheme("gender_local")
    assignments = assign_gender_pair(template, scheme, derive_rng(1, "t"), census)[0]
    genders = Counter(a.gender for a in assignments)
    assert genders == Counter({"male": 2, "female": 2})


def test_local_balance_odd(census):
    template = template_with_entities(3)
    scheme = make_scheme("gender_local")
    seen = set()
    for seed in range(12):
        assignments = assign_gender_pair(template, scheme, derive_rng(seed, "t"), census)[0]
        genders = Counter(a.gender for a in assignments)
        assert abs(genders["male"] - genders["female"]) == 1
        seen.add(genders["male"])
    assert seen == {1, 2}  # both tie directions occur across seeds


def test_global_alternation(census):
    template = template_with_entities(3)
    scheme = make_scheme("gender_global", variants=4)
    for variant in range(4):
        expected = "male" if variant % 2 == 0 else "female"
        assignments = assign_global(template, scheme, derive_rng(3, variant), expected, census)
        assert {a.gender for a in assignments} == {expected}
    inputs = generate_corpus([template], scheme, 3, census=census)
    assert [{a.gender for a in gi.assignments} for gi in inputs] == [
        {"male"}, {"female"}, {"male"}, {"female"}]


def test_pair_is_exact_inverse_with_shared_names(census):
    template = template_with_entities(4)
    scheme = make_scheme("gender_local")
    first, second = assign_gender_pair(template, scheme, derive_rng(5, "p"), census)
    for a, b in zip(first, second):
        assert a.entity == b.entity
        assert {a.gender, b.gender} == {"male", "female"}
        assert a.last == b.last
    names = lambda assignments, g: {a.first for a in assignments if a.gender == g}
    assert names(first, "male") == names(second, "male")
    assert names(first, "female") == names(second, "female")


def test_pair_inverse_odd_entities_share_name_prefix(census):
    template = template_with_entities(3)
    scheme = make_scheme("gender_local")
    first, second = assign_gender_pair(template, scheme, derive_rng(6, "p"), census)
    for gender in ("male", "female"):
        a = [x.first for x in first if x.gender == gender]
        b = [x.first for x in second if x.gender == gender]
        shorter, longer = sorted([a, b], key=len)
        assert longer[: len(shorter)] == shorter


def test_distinct_first_names_within_input(census):
    template = template_with_entities(6)
    assignments = assign_gender_pair(template, make_scheme("gender_local"), derive_rng(7, "t"),
                                     census)[0]
    firsts = [a.first for a in assignments]
    assert len(set(firsts)) == len(firsts)


# --- rendering -------------------------------------------------------------------


def test_pronoun_case_preserved():
    assert map_pronoun("He", "PRP", "female") == "She"
    assert map_pronoun("HE", "PRP", "female") == "SHE"
    assert map_pronoun("she", "PRP", "male") == "he"


# form -> its (male, female) rendering under PRP, then under PRP$: PRP$ makes
# "her" a determiner (his/her), not an object (him/her), and "his" a
# determiner, not a possessive (his/hers)
PRONOUN_RENDERINGS = {
    "he": (("he", "she"), ("he", "she")),
    "him": (("him", "her"), ("him", "her")),
    "his": (("his", "hers"), ("his", "her")),
    "himself": (("himself", "herself"), ("himself", "herself")),
    "she": (("he", "she"), ("he", "she")),
    "her": (("him", "her"), ("his", "her")),
    "hers": (("his", "hers"), ("his", "hers")),
    "herself": (("himself", "herself"), ("himself", "herself")),
}


def test_pronoun_pos_disambiguation():
    for form, by_pos in PRONOUN_RENDERINGS.items():
        for pos, renderings in zip(("PRP", "PRP$"), by_pos):
            for gender, expected in zip(("male", "female"), renderings):
                assert map_pronoun(form, pos, gender) == expected, (form, pos, gender)


def test_pronoun_unmapped_form_errors():
    with pytest.raises(RenderError, match="cannot map pronoun 'they'"):
        map_pronoun("they", "PRP", "male")
    with pytest.raises(RenderError, match="cannot render gender 'other'"):
        map_pronoun("he", "PRP", "other")
    # an unknown form is reported before an unknown gender
    with pytest.raises(RenderError, match="cannot map pronoun 'they'"):
        map_pronoun("they", "PRP$", "other")


def test_title_mapping():
    assert map_title("Mr.", "female", None) == "Ms."
    assert map_title("Mr.", "female", "Mrs.") == "Mrs."
    assert map_title("Mrs.", "male", None) == "Mr."
    assert map_title("Sir", "female", None) == "Lady"
    assert map_title("Lady", "male", None) == "Sir"


def test_render_figure_case():
    # male-titled entity rendered female: "Ms. <last>", full name uses the
    # sampled female first name
    b = DocBuilder("fig")
    b.add_sentence(
        ["Mr.", "Levin", "is", "chief", "executive", "."],
        ["NNP", "NNP", "VBZ", "JJ", "NN", "."],
        mentions=[(0, 1, "0")],
        nes=[(1, 1, "PERSON")],
    )
    b.add_sentence(
        ["Michael", "Levin", "spoke", "."],
        ["NNP", "NNP", "VBD", "."],
        mentions=[(0, 1, "0")],
        nes=[(0, 1, "PERSON")],
    )
    template = build_template(b.build())
    out = render(
        template,
        [EntityAssignment("0", "female", "female", "Melissa", "Levin")],
    )
    assert out[:2] == ["Ms.", "Levin"]
    assert out[6:8] == ["Melissa", "Levin"]


def test_render_identity_reproduces_original(fixture_templates):
    for template in fixture_templates:
        assert render(template, identity_assignments(template)) == template.tokens


def test_render_content_word_by_gender():
    template = template_with_entities(2)
    span = ContentWordSpan(2, 2, ("0",), "chairman", "chairwoman", None)
    template.content_spans.append(span)
    male = render(template, [EntityAssignment("0", "male", "male", "Edmund", "Ashford")])
    female = render(template, [EntityAssignment("0", "female", "female", "Harriet", "Ashford")])
    assert male[2] == "chairman"
    assert female[2] == "chairwoman"


def test_render_content_word_mixed_genders_neutral():
    template = template_with_entities(2)
    span = ContentWordSpan(2, 2, ("0", "1"), "brothers", "sisters", "siblings")
    template.content_spans.append(span)
    out = render(
        template,
        [
            EntityAssignment("0", "male", "male", "Edmund", "Ashford"),
            EntityAssignment("1", "female", "female", "Harriet", "Brackley"),
        ],
    )
    assert out[2] == "siblings"


def test_no_wrong_gender_pronoun_survives(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=2)
    inputs = generate_corpus(fixture_templates, scheme, 11, census=census)
    male_forms = {"he", "him", "his", "himself"}
    female_forms = {"she", "her", "hers", "herself"}
    by_doc = {t.doc_id: t for t in fixture_templates}
    for gi in inputs:
        template = by_doc[gi.original_id]
        genders = {a.entity: a.gender for a in gi.assignments}
        for ent in template.entities:
            if ent.id not in genders:
                continue
            for slot in ent.slots:
                if slot.category.value != "pronoun":
                    continue
                rendered = gi.tokens[slot.start].lower()
                forbidden = female_forms if genders[ent.id] == "male" else male_forms
                assert rendered not in forbidden


# --- corpus generation -------------------------------------------------------------


def test_generate_counts_and_order(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=4)
    inputs = generate_corpus(fixture_templates, scheme, 1, census=census)
    eligible = [t for t in fixture_templates if t.eligible]
    assert len(inputs) == 4 * len(eligible)
    ids = [(g.original_id, g.variant) for g in inputs]
    assert ids == sorted(ids)


def test_generate_deterministic(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=4)
    a = generate_corpus(fixture_templates, scheme, 42, census=census)
    b = generate_corpus(fixture_templates, scheme, 42, census=census)
    assert [input_to_json(x) for x in a] == [input_to_json(x) for x in b]


def test_generate_seed_changes_names_not_eligibility(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=2)
    a = generate_corpus(fixture_templates, scheme, 1, census=census)
    b = generate_corpus(fixture_templates, scheme, 2, census=census)
    assert {x.original_id for x in a} == {x.original_id for x in b}
    assert [input_to_json(x) for x in a] != [input_to_json(x) for x in b]


def test_generate_skips_ineligible(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=2)
    inputs = generate_corpus(fixture_templates, scheme, 1, census=census)
    produced = {g.original_id for g in inputs}
    for template in fixture_templates:
        assert (template.doc_id in produced) == template.eligible


def test_changed_tokens_only_at_holes(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=2)
    inputs = generate_corpus(fixture_templates, scheme, 13, census=census)
    by_doc = {t.doc_id: t for t in fixture_templates}
    for gi in inputs:
        template = by_doc[gi.original_id]
        hole_positions = set()
        for start, end in template.holes():
            hole_positions.update(range(start, end + 1))
        assert len(gi.tokens) == len(template.tokens)
        for i, (got, original) in enumerate(zip(gi.tokens, template.tokens)):
            if i not in hole_positions:
                assert got == original


def test_race_generation_balances_groups():
    template = template_with_entities(4)
    table = load_race_names()
    scheme = make_scheme("race_random_gender", variants=2)
    inputs = generate_corpus([template], scheme, 5, race_table=table)
    for gi in inputs:
        groups = Counter(a.group for a in gi.assignments)
        assert groups == Counter({"black": 2, "white": 2})
        for a in gi.assignments:
            assert a.last.lower() in table.last_names(a.group)
            assert a.first.lower() in table.first_names(a.group, a.gender)


def test_race_intersectional_links_gender_to_group():
    template = template_with_entities(4)
    table = load_race_names()
    scheme = make_scheme(
        "race_intersectional", intersection={"black": "male", "white": "female"}
    )
    assignments = assign_race(template, scheme, derive_rng(1, "x"), table)
    for a in assignments:
        assert a.gender == ("male" if a.group == "black" else "female")


def test_race_capacity_precheck_is_seed_free():
    table = load_race_names()
    scheme = make_scheme("race_random_gender")
    small = template_with_entities(4)
    big = template_with_entities(6)  # worst case 3 <= 10 last names: fine
    assert race_capacity_ok(small, scheme, table)
    assert race_capacity_ok(big, scheme, table)


def test_race_insufficient_inventory_drops_original():
    from sumprobe.names import RaceNameTable

    tiny = RaceNameTable(
        groups={
            "black": {"first": {"male": ["jamal"], "female": ["nia"]}, "last": ["banks"]},
            "white": {"first": {"male": ["cody"], "female": ["amber"]}, "last": ["walsh"]},
        }
    )
    template = template_with_entities(5)
    scheme = make_scheme("race_random_gender", variants=2)
    assert not race_capacity_ok(template, scheme, tiny)
    assert generate_corpus([template], scheme, 1, race_table=tiny) == []


def test_alter_last_names_needs_pool(census):
    template = template_with_entities(2)
    scheme = make_scheme("gender_local", variants=2, alter_last_names=True)
    with pytest.raises(GenerationError):
        generate_corpus([template], scheme, 1, census=census)
    inputs = generate_corpus(
        [template], scheme, 1, census=census, last_name_pool=["quarry", "zelden"]
    )
    lasts = {a.last for g in inputs for a in g.assignments}
    assert lasts <= {"Quarry", "Zelden"}


@pytest.mark.parametrize("kind, missing", [
    ("gender_local", "census"), ("gender_global", "census"), ("race_random_gender", "race_table"),
])
def test_generate_without_the_schemes_table_errors(census, kind, missing):
    tables = {"census": census, "race_table": load_race_names()}
    del tables[missing]
    with pytest.raises(GenerationError, match=f"{kind} needs a .* name table"):
        generate_corpus([template_with_entities(2)], make_scheme(kind, variants=2), 1, **tables)


def test_input_json_roundtrip(census, fixture_templates):
    scheme = make_scheme("gender_local", variants=2)
    for gi in generate_corpus(fixture_templates[:5], scheme, 3, census=census):
        assert input_from_json(input_to_json(gi)) == gi


@given(st.integers(0, 2**62), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_local_balance_property(seed, n):
    template = template_with_entities(n)
    from sumprobe.names import GenderNameTable

    table = GenderNameTable(
        male={f"m{i}": 1.0 for i in range(10)},
        female={f"f{i}": 1.0 for i in range(10)},
    )
    assignments = assign_gender_pair(template, make_scheme("gender_local"), random.Random(seed),
                                     table)[0]
    genders = Counter(a.gender for a in assignments)
    assert abs(genders["male"] - genders["female"]) <= 1
