"""Demographic name dictionaries, identifier word lists and the generation
schemes. The schemes live here, not in generate.py, so that the CLI parser,
a config check and building a `Pipeline` load no generation code.

Bundled data (under sumprobe/data/):
  census_{male,female}.txt  sample of the most frequent US first names with
                            frequencies, three whitespace-separated columns:
                            NAME FREQUENCY RANK
  race_names.json           group -> gendered first names + last names
  word_lists.json           group -> identifier word list; parallel ordering,
                            so pairs (male[i], female[i]) are counterparts
  topic_tokens.json         keyword lists for the topic heuristic
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .jsonio import DataError, read_lines, read_object, string_list


# the generation schemes
SCHEME_KINDS = (
    "gender_local",
    "gender_global",
    "race_random_gender",
    "race_intersectional",
)
# schemes that split each original's variants evenly between the two genders
PAIRED_SCHEME_KINDS = ("gender_local", "gender_global")

GENDERS = ("male", "female")

# each pronoun role's forms, in GENDERS order; "her" is both object and
# determiner, "his" both determiner and possessive
PRONOUN_ROLES = {
    "subject": ("he", "she"),
    "object": ("him", "her"),
    "determiner": ("his", "her"),
    "possessive": ("his", "hers"),
    "reflexive": ("himself", "herself"),
}
# pronoun surface form -> gender it marks
GENDERED_PRONOUNS = {forms[i]: gender for i, gender in enumerate(GENDERS)
                     for forms in PRONOUN_ROLES.values()}


@dataclass(frozen=True)
class AssignmentScheme:
    kind: str
    intersection: dict[str, str] | None = None  # race group -> gender
    variants_per_original: int = 20
    alter_last_names: bool = False  # read by the gender schemes only

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise DataError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "race_intersectional":
            if not self.intersection:
                raise DataError("race_intersectional requires an intersection mapping")
            bad = [g for g in self.intersection.values() if g not in GENDERS]
            if bad:
                raise DataError(f"intersection maps to unknown gender(s) {bad}")
        elif self.intersection is not None:
            raise DataError(f"{self.kind} does not take an intersection mapping")
        if self.variants_per_original < 1:
            raise DataError(
                f"variants_per_original must be at least 1, got {self.variants_per_original}")
        if self.kind in PAIRED_SCHEME_KINDS and self.variants_per_original % 2:
            raise DataError(f"{self.kind} pairs variants; variants_per_original must be even, "
                            f"got {self.variants_per_original}")

    @property
    def is_race(self) -> bool:
        return self.kind.startswith("race")


def make_scheme(kind: str, *, variants: int = 20, alter_last_names: bool = False,
                intersection: dict[str, str] | None = None) -> AssignmentScheme:
    return AssignmentScheme(kind, intersection, variants, alter_last_names)


def check_intersection(scheme: AssignmentScheme, race_table: RaceNameTable | None) -> None:
    """A `race_intersectional` scheme's intersection must map exactly the
    race table's groups; a `DataError` names both lists otherwise. Other
    schemes need no race table."""
    if scheme.kind == "race_intersectional" and set(scheme.intersection) != set(race_table.groups):
        raise DataError(f"intersection maps race group(s) {sorted(scheme.intersection)}, "
                        f"but the race table has {sorted(race_table.groups)}")


@dataclass(frozen=True)
class GenderNameTable:
    male: dict[str, float]
    female: dict[str, float]

    @functools.cached_property
    def _sorted(self) -> dict[str, tuple[str, ...]]:
        return {"male": tuple(sorted(self.male)), "female": tuple(sorted(self.female))}

    def names(self, gender: str) -> tuple[str, ...]:
        """The gender's names in sorted order, sorted once per table: the
        pool that generation draws first names from."""
        return self._sorted[gender]


@dataclass(frozen=True)
class RaceNameTable:
    # group -> {"first": {gender: [names]}, "last": [names]}
    groups: dict[str, dict]

    def first_names(self, group: str, gender: str) -> list[str]:
        return list(self.groups[group]["first"][gender])

    def last_names(self, group: str) -> list[str]:
        return list(self.groups[group]["last"])


def data_path(filename: str):
    return resources.files("sumprobe.data").joinpath(filename)


def _load_census_file(path: str | Path) -> dict[str, float]:
    table: dict[str, float] = {}
    for row_no, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        cols = line.split()
        # real census exports carry a cumulative-frequency column; accept it
        if len(cols) not in (3, 4):
            raise DataError(f"{path}: row {row_no}: expected 3 or 4 columns")
        name = cols[0].lower()
        try:
            freq = float(cols[1])
        except ValueError:
            raise DataError(f"{path}: row {row_no}: bad frequency {cols[1]!r}")
        if freq <= 0:
            raise DataError(f"{path}: row {row_no}: frequency must be > 0")
        table[name] = freq
    if not table:
        raise DataError(f"{path}: no rows")
    return table


def load_census(male_path: str | Path | None = None,
                female_path: str | Path | None = None) -> GenderNameTable:
    """Load first-name frequency tables; defaults to the bundled sample.

    Names that occur in both gender files are retained in both maps;
    use resolve_ambiguous() to deduplicate.
    """
    if male_path is None:
        male_path = data_path("census_male.txt")
    if female_path is None:
        female_path = data_path("census_female.txt")
    return GenderNameTable(
        male=_load_census_file(male_path),
        female=_load_census_file(female_path),
    )


def resolve_ambiguous(table: GenderNameTable) -> GenderNameTable:
    """Resolve names present in both genders to the clearly dominant one.

    The dominant gender keeps the name if its frequency is at least twice
    the other's; otherwise the name is dropped from both maps.
    """
    male = dict(table.male)
    female = dict(table.female)
    for name in sorted(set(male) & set(female)):
        m, f = male[name], female[name]
        if m >= 2 * f:
            del female[name]
        elif f >= 2 * m:
            del male[name]
        else:
            del male[name]
            del female[name]
    return GenderNameTable(male=male, female=female)


def load_race_names(path: str | Path | None = None) -> RaceNameTable:
    if path is None:
        path = data_path("race_names.json")
    data = read_object(path)
    for group, entry in data.items():
        first = entry.get("first") if isinstance(entry, dict) else None
        if not (isinstance(first, dict) and string_list(entry.get("last"))
                and all(string_list(first.get(gender)) for gender in ("male", "female"))):
            raise DataError(
                f"{path}: race name group {group!r} must be an object with a list of strings "
                "'last' and an object 'first' holding 'male' and 'female' lists of strings")
        if not entry["last"]:
            raise DataError(f"{path}: race name group {group!r} has no last names")
        for gender in ("male", "female"):
            if not first[gender]:
                raise DataError(
                    f"{path}: race name group {group!r} has no {gender} first names")
    return RaceNameTable(groups=data)


def load_word_lists(path: str | Path | None = None) -> dict[str, list[str]]:
    """Group-identifier word lists; male/female lists must be lowercase,
    disjoint and of one length, since they pair by position."""
    if path is None:
        path = data_path("word_lists.json")
    lists = read_object(path)
    for group, words in lists.items():
        if not string_list(words):
            raise DataError(f"{path}: word list {group!r} must be a list of strings")
        bad = [w for w in words if w != w.lower()]
        if bad:
            raise DataError(f"{path}: word list {group!r} has non-lowercase entries: {bad}")
    if "male" in lists and "female" in lists:
        male, female = lists["male"], lists["female"]
        overlap = set(male) & set(female)
        if overlap:
            raise DataError(f"{path}: male/female word lists overlap: {sorted(overlap)}")
        if len(male) != len(female):
            raise DataError(f"{path}: male/female word lists differ in length "
                            f"({len(male)} and {len(female)}); they pair by position")
    return lists


def word_pairs(lists: dict[str, list[str]]) -> list[tuple[str, str]]:
    """(male, female) identifier counterparts, by list position."""
    return list(zip(lists["male"], lists["female"]))


def load_topic_tokens(path: str | Path | None = None) -> dict[str, list[str]]:
    if path is None:
        path = data_path("topic_tokens.json")
    return read_object(path)


def load_last_name_pool(path: str | Path) -> list[str]:
    """The lowercased names of a text file with one last name per line."""
    names = []
    for _, line in read_lines(path):
        token = line.strip()
        if token:
            names.append(token.lower())
    if not names:
        raise DataError(f"{path}: empty last-name pool")
    return names
