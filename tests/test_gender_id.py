import json

import pytest

from sumprobe.gender_id import (
    FEMALE,
    MALE,
    UNKNOWN,
    FixtureLookupClient,
    GenderVerdict,
    LookupPage,
    classify,
    classify_census,
    classify_encyclopedia,
)
from sumprobe.names import GenderNameTable


@pytest.fixture(scope="module")
def client():
    from importlib import resources

    path = resources.files("sumprobe.data").joinpath("wiki_cache.json")
    return FixtureLookupClient(str(path))


def test_known_public_figure_male(client):
    verdict = classify_encyclopedia(["Boris", "Yeltsin"], client)
    assert verdict == GenderVerdict(MALE, "encyclopedia")


def test_lookup_case_insensitive(client):
    assert classify_encyclopedia(["boris", "yeltsin"], client).gender == MALE


def test_single_token_skipped(client):
    assert classify_encyclopedia(["Obama"], client) is None


def test_unknown_title_no_page(client):
    assert classify_encyclopedia(["Zebulon", "Quarry"], client) is None


def test_non_person_page_rejected_by_category_filter(client):
    assert classify_encyclopedia(["United", "Nations"], client) is None


def test_equal_pronoun_counts_tie_unknown(client):
    verdict = classify_encyclopedia(["Alex", "Jordan"], client)
    assert verdict == GenderVerdict(UNKNOWN, "encyclopedia")


TABLE = GenderNameTable(male={"james": 3.3, "john": 3.2}, female={"melissa": 0.46, "mary": 2.6})


def test_census_female():
    assert classify_census(["Melissa", "Levin"], TABLE) == GenderVerdict(FEMALE, "census")


def test_census_both_lists_conflict():
    table = GenderNameTable(male={"john": 3.2}, female={"mary": 2.6})
    assert classify_census(["John", "Mary"], table).gender == UNKNOWN


def test_census_no_evidence():
    verdict = classify_census(["Zebulon", "Quarry"], TABLE)
    assert verdict == GenderVerdict(UNKNOWN, "none")


def test_classify_prefers_encyclopedia(client):
    # "pat" is ambiguous in the census, but the encyclopedia page resolves it
    verdict = classify(["Pat", "Nixon"], client, TABLE)
    assert verdict == GenderVerdict(FEMALE, "encyclopedia")


def test_classify_falls_back_to_census(client):
    assert classify(["Melissa", "Quarry"], client, TABLE) == GenderVerdict(FEMALE, "census")


def test_classify_single_token_goes_to_census(client):
    assert classify(["James"], client, TABLE) == GenderVerdict(MALE, "census")


def test_classify_nowhere_unknown(client):
    assert classify(["Zebulon", "Quarry"], client, TABLE).gender == UNKNOWN


def test_classify_deterministic(client):
    results = {classify(["Boris", "Yeltsin"], client, TABLE) for _ in range(5)}
    assert results == {GenderVerdict(MALE, "encyclopedia")}


def test_fixture_client_from_custom_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(
        json.dumps(
            {"Jane Doe": {"categories": ["1950 births"], "counts": {"she": 5, "he": 1}}}
        )
    )
    client = FixtureLookupClient(path)
    page = client.query("jane doe")
    assert isinstance(page, LookupPage)
    assert classify_encyclopedia(["Jane", "Doe"], client).gender == FEMALE
