"""Generate demographically controlled input corpora from templates.

Supported assignment schemes:
  gender_local        half of each input's entities male, half female;
                      consecutive variants form inverted pairs that share
                      first-name lists
  gender_global       every entity in an input one gender, alternating
                      male/female across variants (even split)
  race_random_gender  half black / half white per input, gender drawn at
                      random per entity
  race_intersectional like race_random_gender, but gender is a fixed
                      function of the assigned race

Race schemes always substitute last names; gender schemes keep original
last names unless alter_last_names is set (which requires a last-name pool).
A scheme is an `AssignmentScheme` from names.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import names
from .jsonio import StageError, read_rows, write_rows
from .names import (GENDERED_PRONOUNS, GENDERS, PRONOUN_ROLES, AssignmentScheme, GenderNameTable,
                    RaceNameTable, check_intersection)
from .seeding import derive_rng
from .templates import (NAME_TITLES, TITLE_SET, DocumentTemplate, EntityTemplate, SlotCategory,
                        splice)

# the scheme lives in names.py, which config checks read without loading this
# module; bound here because callers build a scheme and a corpus from one import
make_scheme = names.make_scheme


@dataclass(frozen=True)
class EntityAssignment:
    entity: str
    group: str  # male/female or black/white
    gender: str
    first: str
    last: str | None


@dataclass
class GeneratedInput:
    id: str
    original_id: str
    variant: int
    pair_id: str | None
    assignments: list[EntityAssignment]
    tokens: list[str]
    seed: str

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def assignment_map(self) -> dict[str, EntityAssignment]:
        return {a.entity: a for a in self.assignments}


# --- rendering ---------------------------------------------------------------


def _match_case(target: str, original: str) -> str:
    if len(original) > 1 and original.isupper():
        return target.upper()
    if original[:1].isupper():
        return target[:1].upper() + target[1:]
    return target


# pronoun form -> its role outside PRP$; under PRP$, "her" and "his" are determiners
_PRONOUN_ROLE = {form: role for role, forms in PRONOUN_ROLES.items() if role != "determiner"
                 for form in forms}


def map_pronoun(form: str, pos: str, gender: str) -> str:
    low = form.lower()
    if low not in GENDERED_PRONOUNS:
        raise StageError(f"stage 'generate': cannot map pronoun {form!r}")
    if gender not in GENDERS:
        raise StageError(f"stage 'generate': cannot render gender {gender!r}")
    if pos == "PRP$" and low in PRONOUN_ROLES["determiner"]:
        role = "determiner"
    else:
        role = _PRONOUN_ROLE[low]
    return _match_case(PRONOUN_ROLES[role][GENDERS.index(gender)], form)


def map_title(title_text: str, gender: str, preferred_female: str | None) -> str:
    low = title_text.lower()
    if low in NAME_TITLES:
        if gender == "male":
            return "Mr."
        return preferred_female or "Ms."
    if low in TITLE_SET:
        return "Sir" if gender == "male" else "Lady"
    raise StageError(f"stage 'generate': cannot map title {title_text!r}")


def _display_name(name: str) -> str:
    return name[:1].upper() + name[1:] if name else name


def render(
    template: DocumentTemplate,
    assignments: Sequence[EntityAssignment],
) -> list[str]:
    """Fill a template's holes for one entity assignment; unassigned
    entities keep their original text."""
    assigned = {a.entity: a for a in assignments}
    by_id = {e.id: e for e in template.entities}
    pieces: list[tuple[int, int, list[str]]] = []
    for ent in template.entities:
        a = assigned.get(ent.id)
        if a is None:
            continue
        preferred = ent.preferred_female_title()
        for slot in ent.slots:
            if slot.category is SlotCategory.FULL_NAME:
                rep = [a.first, a.last if a.last is not None else slot.text[-1]]
            elif slot.category is SlotCategory.FIRST_NAME:
                rep = [a.first]
            elif slot.category is SlotCategory.LAST_NAME:
                rep = [a.last if a.last is not None else slot.text[0]]
            elif slot.category is SlotCategory.PRONOUN:
                rep = [map_pronoun(slot.text[0], slot.pos, a.gender)]
            else:
                rep = [map_title(slot.title_text, a.gender, preferred)]
            pieces.append((slot.start, slot.end, rep))

    for span in template.content_spans:
        genders = set()
        for ent_id in span.entities:
            a = assigned.get(ent_id)
            gender = a.gender if a is not None else (
                by_id[ent_id].original_gender if ent_id in by_id else None
            )
            genders.add(gender)
        if None in genders or not genders:
            continue  # undetermined referent gender: keep original text
        if genders == {"male"}:
            variant = span.male
        elif genders == {"female"}:
            variant = span.female
        else:
            if span.neutral is None:
                raise StageError(f"stage 'generate': content span ({span.start},{span.end}) "
                                 "needs a neutral variant")
            variant = span.neutral
        pieces.append((span.start, span.end, variant.split()))

    return splice(template.tokens, pieces)


# --- assignment --------------------------------------------------------------


def _sample_distinct(rng, pool: Sequence[str], k: int, what: str) -> list[str]:
    """`k` names drawn from `pool`, which is sorted, so that a draw depends
    on the pool's names and not on the order they were read in."""
    if len(pool) < k:
        raise StageError(f"stage 'generate': need {k} distinct {what}, inventory has {len(pool)}")
    return rng.sample(pool, k)


def _gender_split(n: int, rng) -> list[bool]:
    """Per-entity male flags with |male - female| <= 1, order randomized."""
    n_male = n // 2
    if n % 2:
        n_male += rng.choice([0, 1])
    flags = [True] * n_male + [False] * (n - n_male)
    rng.shuffle(flags)
    return flags


def _last_names_for(
    ents: list[EntityTemplate],
    scheme: AssignmentScheme,
    rng,
    pool: Sequence[str] | None,
) -> list[str | None]:
    """Each entity's last name: its own, or one drawn from `pool`, which is
    sorted, as `generate_corpus` passes it."""
    if not scheme.alter_last_names:
        return [e.last for e in ents]
    if pool is None:
        raise StageError("stage 'generate': alter_last_names requires a last-name pool")
    return [_display_name(n) for n in _sample_distinct(rng, pool, len(ents), "last names")]


def assign_gender_pair(
    template: DocumentTemplate,
    scheme: AssignmentScheme,
    rng,
    census: GenderNameTable,
    last_name_pool: Sequence[str] | None = None,
) -> tuple[list[EntityAssignment], list[EntityAssignment]]:
    """A locally balanced assignment and its exact gender inverse.

    Both members consume the same per-gender first-name lists, so the same
    names appear in both inputs attached to opposite-category entities.
    """
    ents = template.gendered_entities()
    n = len(ents)
    male_flags = _gender_split(n, rng)
    male_names = _sample_distinct(rng, census.names("male"), n, "male first names")
    female_names = _sample_distinct(rng, census.names("female"), n, "female first names")
    lasts = _last_names_for(ents, scheme, rng, last_name_pool)

    def build(invert: bool) -> list[EntityAssignment]:
        out = []
        next_male = next_female = 0
        for i, ent in enumerate(ents):
            male = male_flags[i] != invert
            if male:
                first = male_names[next_male]
                next_male += 1
            else:
                first = female_names[next_female]
                next_female += 1
            gender = "male" if male else "female"
            out.append(
                EntityAssignment(ent.id, gender, gender, _display_name(first), lasts[i])
            )
        return out

    return build(False), build(True)


def assign_global(
    template: DocumentTemplate,
    scheme: AssignmentScheme,
    rng,
    gender: str,
    census: GenderNameTable,
    last_name_pool: Sequence[str] | None = None,
) -> list[EntityAssignment]:
    ents = template.gendered_entities()
    names = _sample_distinct(rng, census.names(gender), len(ents), f"{gender} first names")
    lasts = _last_names_for(ents, scheme, rng, last_name_pool)
    return [
        EntityAssignment(e.id, gender, gender, _display_name(names[i]), lasts[i])
        for i, e in enumerate(ents)
    ]


def assign_race(
    template: DocumentTemplate,
    scheme: AssignmentScheme,
    rng,
    race_table: RaceNameTable,
) -> list[EntityAssignment]:
    ents = template.gendered_entities()
    groups = sorted(race_table.groups)
    if len(groups) != 2:
        raise StageError("stage 'generate': race assignment expects exactly two groups")
    flags = _gender_split(len(ents), rng)  # True -> first group
    used_first: set[str] = set()
    used_last: dict[str, set[str]] = {g: set() for g in groups}
    out = []
    for i, ent in enumerate(ents):
        group = groups[0] if flags[i] else groups[1]
        if scheme.kind == "race_intersectional":
            gender = scheme.intersection[group]
        else:
            gender = rng.choice(GENDERS)
        first_pool = sorted(n for n in race_table.first_names(group, gender) if n not in used_first)
        first = _sample_distinct(rng, first_pool, 1, f"{group}/{gender} first names")[0]
        used_first.add(first)
        last_pool = sorted(n for n in race_table.last_names(group) if n not in used_last[group])
        last = _sample_distinct(rng, last_pool, 1, f"{group} last names")[0]
        used_last[group].add(last)
        out.append(
            EntityAssignment(ent.id, group, gender, _display_name(first), _display_name(last))
        )
    return out


def race_capacity_ok(template: DocumentTemplate, scheme: AssignmentScheme,
                     race_table: RaceNameTable) -> bool:
    """Seed-independent check that every variant can be generated in full.

    Worst case: one race group receives ceil(n/2) entities and the random
    gender draw sends all of them to the same first-name bucket.
    """
    n = len(template.gendered_entities())
    if n == 0:
        return False
    worst = (n + 1) // 2
    for group in race_table.groups:
        if len(race_table.last_names(group)) < worst:
            return False
        if scheme.kind == "race_intersectional":
            genders = [scheme.intersection[group]]
        else:
            genders = list(GENDERS)
        for gender in genders:
            if len(race_table.first_names(group, gender)) < worst:
                return False
    return True


def _variant_assignments(template, scheme, seed, census, race_table, last_name_pool):
    """Each variant's (pair id, entity assignments), in variant order: a
    gender_local pair draws both members from one rng, any other variant
    from its own."""
    if scheme.kind == "gender_local":
        for k in range(scheme.variants_per_original // 2):
            rng = derive_rng(seed, template.doc_id, "pair", k)
            for assignments in assign_gender_pair(template, scheme, rng, census, last_name_pool):
                yield f"{template.doc_id}:{k}", assignments
        return
    for v in range(scheme.variants_per_original):
        rng = derive_rng(seed, template.doc_id, "variant", v)
        if scheme.is_race:
            yield None, assign_race(template, scheme, rng, race_table)
        else:
            gender = GENDERS[v % 2]
            yield None, assign_global(template, scheme, rng, gender, census, last_name_pool)


def generate_corpus(
    templates: Iterable[DocumentTemplate],
    scheme: AssignmentScheme,
    master_seed: int,
    *,
    census: GenderNameTable | None = None,
    race_table: RaceNameTable | None = None,
    last_name_pool: Sequence[str] | None = None,
) -> list[GeneratedInput]:
    """All variants for all eligible originals, in canonical order.

    Deterministic for a fixed master seed: every variant draws from an rng
    derived from (seed, original id, variant/pair index), so the output is
    independent of processing order.
    """
    table, what = (race_table, "race") if scheme.is_race else (census, "census")
    if table is None:
        raise StageError(f"stage 'generate': {scheme.kind} needs a {what} name table")
    check_intersection(scheme, race_table)
    if last_name_pool is not None:
        last_name_pool = sorted(last_name_pool)
    out: list[GeneratedInput] = []
    provenance = f"master={master_seed}"
    for template in sorted(templates, key=lambda t: t.doc_id):
        if not template.eligible:
            continue
        if scheme.is_race and not race_capacity_ok(template, scheme, race_table):
            continue
        for v, (pair_id, assignments) in enumerate(_variant_assignments(
                template, scheme, master_seed, census, race_table, last_name_pool)):
            tokens = render(template, assignments)
            out.append(
                GeneratedInput(
                    id=f"{template.doc_id}::{v:02d}",
                    original_id=template.doc_id,
                    variant=v,
                    pair_id=pair_id,
                    assignments=assignments,
                    tokens=tokens,
                    seed=provenance,
                )
            )
    return out


# --- serialization -----------------------------------------------------------


def input_to_json(g: GeneratedInput) -> dict:
    return {**vars(g), "assignments": [vars(a) for a in g.assignments], "text": g.text}


def input_from_json(data: dict) -> GeneratedInput:
    fields = dict(data, assignments=[EntityAssignment(**a) for a in data["assignments"]])
    del fields["text"]
    return GeneratedInput(**fields)


def write_inputs(inputs: Iterable[GeneratedInput], path: str | Path) -> None:
    write_rows(path, map(input_to_json, inputs))


def read_inputs(path: str | Path) -> Iterator[GeneratedInput]:
    return map(input_from_json, read_rows(path))
