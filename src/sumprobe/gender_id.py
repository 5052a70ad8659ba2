"""Apparent-gender classification for hallucinated summary entities.

Two stages: an offline encyclopedia lookup (exact title match, person-like
category required, majority over gendered pronoun counts), then a census
first-name fallback. Race is deliberately never classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .jsonio import DataError, read_object, string_list
from .names import GENDERED_PRONOUNS, GenderNameTable

MALE = "male"
FEMALE = "female"
UNKNOWN = "unknown"

CLASSIFIER_PRONOUNS = {
    gender: tuple(form for form, marked in GENDERED_PRONOUNS.items() if marked == gender)
    for gender in (MALE, FEMALE)
}

_PERSON_CATEGORY_WORDS = ("births", "deaths", "people")


@dataclass(frozen=True)
class GenderVerdict:
    gender: str  # male | female | unknown
    source: str  # encyclopedia | census | none


@dataclass(frozen=True)
class LookupPage:
    categories: tuple[str, ...]
    pronoun_counts: dict[str, int]


class FixtureLookupClient:
    """Offline lookup backed by a JSON cache of title -> categories + pronoun
    counts. Titles match case-insensitively; redirects are assumed to have
    been resolved when the cache was built. A file that is not a JSON object
    of entries shaped as docs/formats.md says is a `DataError` naming it."""

    def __init__(self, path: str | Path):
        raw = read_object(path)
        bad = [title for title, entry in raw.items() if not isinstance(entry, dict)]
        if bad:
            raise DataError(f"{path}: cache entries must be JSON objects: {bad}")
        self._pages = {}
        for title, entry in raw.items():
            categories, counts = entry.get("categories", []), entry.get("counts", {})
            if not string_list(categories):
                raise DataError(f"{path}: cache entry {title!r}: 'categories' must be "
                                f"a list of strings, got {categories!r}")
            if not (isinstance(counts, dict) and all(type(n) is int for n in counts.values())):
                raise DataError(f"{path}: cache entry {title!r}: 'counts' must be "
                                f"an object of integers, got {counts!r}")
            self._pages[title.casefold()] = LookupPage(tuple(categories), dict(counts))

    def query(self, title: str) -> LookupPage | None:
        return self._pages.get(title.casefold())


def _person_page(page: LookupPage) -> bool:
    return any(
        word in category.lower()
        for category in page.categories
        for word in _PERSON_CATEGORY_WORDS
    )


def classify_encyclopedia(
    tokens: Iterable[str], client: FixtureLookupClient
) -> GenderVerdict | None:
    """Verdict from an encyclopedia page, or None when no usable page exists.

    Single-token entities are skipped outright (too easily misidentified);
    pages without a person-like category are treated as not found; equal
    pronoun counts stay unknown.
    """
    tokens = list(tokens)
    if len(tokens) < 2:
        return None
    page = client.query(" ".join(tokens))
    if page is None or not _person_page(page):
        return None
    male = sum(page.pronoun_counts.get(p, 0) for p in CLASSIFIER_PRONOUNS[MALE])
    female = sum(page.pronoun_counts.get(p, 0) for p in CLASSIFIER_PRONOUNS[FEMALE])
    if male > female:
        return GenderVerdict(MALE, "encyclopedia")
    if female > male:
        return GenderVerdict(FEMALE, "encyclopedia")
    return GenderVerdict(UNKNOWN, "encyclopedia")


def classify_census(tokens: Iterable[str], table: GenderNameTable) -> GenderVerdict:
    """First-name lookup; expects a deduplicated table. Hits in both gender
    lists (or in neither) stay unknown."""
    lowered = [t.lower() for t in tokens]
    male_hit = any(t in table.male for t in lowered)
    female_hit = any(t in table.female for t in lowered)
    if male_hit and not female_hit:
        return GenderVerdict(MALE, "census")
    if female_hit and not male_hit:
        return GenderVerdict(FEMALE, "census")
    if male_hit and female_hit:
        return GenderVerdict(UNKNOWN, "census")
    return GenderVerdict(UNKNOWN, "none")


def classify(
    tokens: Iterable[str], client: FixtureLookupClient, table: GenderNameTable
) -> GenderVerdict:
    """Encyclopedia verdict when a page exists, census fallback otherwise."""
    tokens = list(tokens)
    verdict = classify_encyclopedia(tokens, client)
    if verdict is not None:
        return verdict
    return classify_census(tokens, table)
