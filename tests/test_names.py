import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprobe.jsonio import DataError
from sumprobe.names import (
    GenderNameTable,
    load_census,
    load_race_names,
    load_topic_tokens,
    resolve_ambiguous,
    word_pairs,
)


def test_census_sample_row_values(census_raw):
    assert census_raw.female["melissa"] == pytest.approx(0.462)
    assert census_raw.male["james"] == pytest.approx(3.318)


def test_names_in_both_files_retained_before_dedup(census_raw):
    assert "terry" in census_raw.male and "terry" in census_raw.female
    assert "pat" in census_raw.male and "pat" in census_raw.female


def test_load_census_custom_files(tmp_path):
    male = tmp_path / "m.txt"
    female = tmp_path / "f.txt"
    male.write_text("JAMES 3.318 1\n")
    female.write_text("MELISSA 0.462 31\n")
    table = load_census(male, female)
    assert table.female == {"melissa": 0.462}


def test_load_census_accepts_cumulative_column(tmp_path):
    male = tmp_path / "m.txt"
    female = tmp_path / "f.txt"
    male.write_text("JAMES 3.318 3.318 1\n")
    female.write_text("MARY 2.629 2.629 1\n")
    assert load_census(male, female).male == {"james": 3.318}


def test_load_census_empty_file_errors(tmp_path):
    male = tmp_path / "m.txt"
    female = tmp_path / "f.txt"
    male.write_text("")
    female.write_text("MARY 2.629 1\n")
    with pytest.raises(DataError):
        load_census(male, female)


def test_load_census_garbled_row_reports_number(tmp_path):
    male = tmp_path / "m.txt"
    female = tmp_path / "f.txt"
    male.write_text("JAMES 3.318 1\nBROKEN\n")
    female.write_text("MARY 2.629 1\n")
    with pytest.raises(DataError, match="row 2"):
        load_census(male, female)


def test_resolve_dominant_gender_kept():
    table = GenderNameTable(male={"terry": 0.40}, female={"terry": 0.10})
    resolved = resolve_ambiguous(table)
    assert resolved.male == {"terry": 0.40}
    assert resolved.female == {}


def test_resolve_close_frequencies_removed():
    table = GenderNameTable(male={"pat": 0.15}, female={"pat": 0.10})
    resolved = resolve_ambiguous(table)
    assert resolved.male == {} and resolved.female == {}


def test_resolve_leaves_unambiguous_names():
    table = GenderNameTable(male={"james": 3.3}, female={"mary": 2.6})
    assert resolve_ambiguous(table) == table


def test_resolve_bundled_census(census):
    assert "terry" in census.male and "terry" not in census.female
    assert "leslie" in census.female and "leslie" not in census.male
    assert "pat" not in census.male and "pat" not in census.female


@given(
    st.dictionaries(st.sampled_from("abcdefgh"), st.floats(0.01, 5), max_size=8),
    st.dictionaries(st.sampled_from("abcdefgh"), st.floats(0.01, 5), max_size=8),
)
@settings(max_examples=100)
def test_resolve_makes_genders_disjoint(male, female):
    resolved = resolve_ambiguous(GenderNameTable(male=male, female=female))
    assert not set(resolved.male) & set(resolved.female)


def test_word_lists_match_reference_exactly(word_lists):
    assert len(word_lists["female"]) == 20
    assert len(word_lists["male"]) == 20
    assert word_lists["female"] == [
        "she", "daughter", "hers", "her", "mother", "woman", "girl", "herself",
        "female", "sister", "daughters", "mothers", "women", "girls", "femen",
        "sisters", "aunt", "aunts", "niece", "nieces",
    ]
    assert word_lists["male"] == [
        "he", "son", "his", "him", "father", "man", "boy", "himself", "male",
        "brother", "sons", "fathers", "men", "boys", "males", "brothers",
        "uncle", "uncles", "nephew", "nephews",
    ]


def test_word_lists_disjoint(word_lists):
    assert not set(word_lists["male"]) & set(word_lists["female"])


def test_word_pairs_align_by_position(word_lists):
    pairs = word_pairs(word_lists)
    assert pairs[0] == ("he", "she")
    assert ("father", "mother") in pairs
    assert ("males", "femen") in pairs
    assert len(pairs) == 20


def test_topic_tokens():
    topics = load_topic_tokens()
    assert topics["sport"] == ["league", "season", "club", "game", "win", "team", "shot"]
    assert topics["family"] == [
        "family", "husband", "wife", "father", "mother", "children", "boys", "girls", "baby",
    ]


def test_race_names_shape():
    table = load_race_names()
    assert set(table.groups) == {"black", "white"}
    for group in table.groups:
        assert len(table.last_names(group)) >= 10
        for gender in ("male", "female"):
            names = table.first_names(group, gender)
            assert len(names) >= 15
            assert all(n == n.lower() for n in names)
