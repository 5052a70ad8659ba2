"""Turn annotated documents into fillable person-entity templates.

A template freezes the original token stream and marks disjoint "holes":
name tokens, gendered pronouns and titles of person entities, plus
optionally side-annotated content words. Filling every hole with its
original text reproduces the document exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import AnnotatedDocument, MentionSpan, NamedEntitySpan
from .jsonio import OPTIONAL_STR, fields_problem, items_problem, read_rows, string_list, write_rows
from .names import GENDERED_PRONOUNS

TITLES = ("Mr.", "Mrs.", "Ms.", "Sir", "Lady")
TITLE_SET = frozenset(t.lower() for t in TITLES)
# titles that are conventionally followed by a last name
NAME_TITLES = {"mr.", "mrs.", "ms."}

MALE_TITLES = {"mr.", "sir"}

_PRONOUN_POS = {"PRP", "PRP$"}


class SlotCategory(str, Enum):
    FULL_NAME = "full_name"
    FIRST_NAME = "first_name"
    LAST_NAME = "last_name"
    PRONOUN = "pronoun"
    TITLE = "title"


@dataclass(frozen=True, order=True)
class EntitySlot:
    start: int
    end: int  # inclusive
    category: SlotCategory
    text: tuple[str, ...]  # original tokens in the hole
    title_text: str | None = None
    pos: str = ""  # POS of the pronoun token, for his/her disambiguation


@dataclass
class EntityTemplate:
    id: str
    first: str | None
    last: str | None
    slots: list[EntitySlot]
    gendered: bool
    original_gender: str | None

    def preferred_female_title(self) -> str | None:
        """Most frequent original Mrs./Ms. form of this entity, if any."""
        counts: Counter[str] = Counter()
        earliest: dict[str, int] = {}
        for s in self.slots:
            if s.category is SlotCategory.TITLE and s.title_text.lower() in ("mrs.", "ms."):
                counts[s.title_text] += 1
                earliest.setdefault(s.title_text, s.start)
        if not counts:
            return None
        return min(counts, key=lambda t: (-counts[t], earliest[t]))


@dataclass(frozen=True)
class ContentWordSpan:
    start: int
    end: int  # inclusive
    entities: tuple[str, ...]
    male: str
    female: str
    neutral: str | None = None


@dataclass
class DocumentTemplate:
    doc_id: str
    tokens: list[str]
    entities: list[EntityTemplate]
    content_spans: list[ContentWordSpan] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def eligible(self) -> bool:
        return any(e.gendered for e in self.entities)

    def gendered_entities(self) -> list[EntityTemplate]:
        return [e for e in self.entities if e.gendered]


@dataclass(frozen=True)
class _PersonEntity:
    id: str
    mentions: tuple[MentionSpan, ...]
    nes: tuple[NamedEntitySpan, ...]


def _link_person_entities(doc: AnnotatedDocument) -> list[_PersonEntity]:
    """Attach each PERSON named entity to the deepest mention containing it.

    PERSON entities contained in no chain mention become singleton entities
    of their own.
    """
    linked: dict[str, list[NamedEntitySpan]] = {}
    singles: list[NamedEntitySpan] = []
    for ne in doc.person_entities():
        containing = [
            m
            for spans in doc.chains.values()
            for m in spans
            if m.start <= ne.start and ne.end <= m.end
        ]
        if containing:
            deepest = min(containing, key=lambda m: (m.end - m.start, m.start))
            linked.setdefault(deepest.chain, []).append(ne)
        else:
            singles.append(ne)

    out: list[_PersonEntity] = []
    for chain, nes in linked.items():
        out.append(
            _PersonEntity(chain, tuple(sorted(doc.chains[chain])), tuple(sorted(nes)))
        )
    for ne in singles:
        out.append(
            _PersonEntity(
                f"ne:{ne.start}-{ne.end}",
                (MentionSpan(ne.start, ne.end, None),),
                (ne,),
            )
        )
    out.sort(key=lambda e: (e.mentions[0].start, e.id))
    return out


def _named_tokens(doc: AnnotatedDocument, ne: NamedEntitySpan) -> list[int]:
    """The positions of the span's tokens that are not titles."""
    return [i for i in range(ne.start, ne.end + 1) if doc.tokens[i].lower() not in TITLE_SET]


def _infer_from_nes(doc: AnnotatedDocument, nes: Iterable[NamedEntitySpan]):
    """First/last name heuristics over an entity's named-entity spans."""
    diagnostics: list[str] = []
    tokens = doc.tokens
    spans = [_named_tokens(doc, ne) for ne in sorted(nes)]
    immediate_last: str | None = None
    for named in spans:
        if len(named) == 1:
            i = named[0]
            if i > 0 and tokens[i - 1].lower() in NAME_TITLES:
                immediate_last = tokens[i]
                break

    last_counts: Counter[str] = Counter()
    first_counts: Counter[str] = Counter()
    earliest: dict[str, int] = {}
    saw_multi_token = False
    for named in spans:
        if not named:
            continue
        if len(named) > 1:
            saw_multi_token = True
        last_counts[tokens[named[-1]]] += 1
        earliest.setdefault(tokens[named[-1]], named[-1])
        for i in named[:-1]:
            first_counts[tokens[i]] += 1
            earliest.setdefault(tokens[i], i)

    def best(counts: Counter[str]) -> str | None:
        if not counts:
            return None
        return min(counts, key=lambda t: (-counts[t], earliest[t], t))

    last = immediate_last if immediate_last is not None else best(last_counts)
    first = best(first_counts)
    if first is not None and first == last:
        first = None
    if immediate_last is None and last is not None and not saw_multi_token:
        diagnostics.append(
            f"name for entity inferred from single-token span(s) only: {last!r} taken as last name"
        )
    return first, last, diagnostics


def _overlaps(start: int, end: int, spans: Iterable[tuple[int, int]]) -> bool:
    """Whether the inclusive range [start, end] shares a token with any of
    the inclusive `spans`."""
    return any(start <= e and s <= end for s, e in spans)


def _mention_slots(
    doc: AnnotatedDocument,
    ent: _PersonEntity,
    first: str | None,
    last: str | None,
    doc_names: set[str],
    diagnostics: list[str],
) -> list[EntitySlot]:
    """The entity's slots. `doc_names` holds the names of every entity in the
    document: a mention holding one that is not the entity's own is left
    untouched."""
    tokens = doc.tokens
    slots: list[EntitySlot] = []
    own = {n for n in (first, last) if n}

    def add(start, end, category, title_text=None, pos=""):
        if _overlaps(start, end, ((s.start, s.end) for s in slots)):
            return
        slots.append(EntitySlot(start, end, category, tuple(tokens[start : end + 1]),
                                title_text, pos))

    # outermost mentions first, so a full-name hole wins over a nested name
    for mention in sorted(set(ent.mentions), key=lambda m: (m.start, -m.end)):
        toks = tokens[mention.start : mention.end + 1]
        pos = doc.pos[mention.start]
        if len(toks) == 1 and pos in _PRONOUN_POS:
            if toks[0].lower() in GENDERED_PRONOUNS:
                add(mention.start, mention.start, SlotCategory.PRONOUN, pos=pos)
            continue
        foreign = [t for t in toks if t in doc_names and t not in own]
        if foreign:
            diagnostics.append(
                f"entity {ent.id}: mention ({mention.start},{mention.end}) mentions "
                f"other entities' name(s) {foreign}; left untouched"
            )
            continue
        i = mention.start
        while i <= mention.end:
            text = tokens[i]
            if text.lower() in TITLE_SET:
                add(i, i, SlotCategory.TITLE, title_text=text)
            elif (
                first
                and text == first
                and i + 1 <= mention.end
                and last
                and tokens[i + 1] == last
            ):
                add(i, i + 1, SlotCategory.FULL_NAME)
                i += 2
                continue
            elif first and text == first:
                add(i, i, SlotCategory.FIRST_NAME)
            elif last and text == last:
                add(i, i, SlotCategory.LAST_NAME)
            i += 1
    return sorted(slots)


def _original_gender(slots: list[EntitySlot], diagnostics: list[str], entity_id: str) -> str | None:
    """The gender most of the entity's pronoun and title slots vote for; on
    a tie, the earliest vote's, as `slots` are in start order and
    `most_common` keeps first-seen order among equal counts."""
    votes: list[str] = []
    for s in slots:
        if s.category is SlotCategory.PRONOUN:
            votes.append(GENDERED_PRONOUNS[s.text[0].lower()])
        elif s.category is SlotCategory.TITLE:
            votes.append("male" if s.title_text.lower() in MALE_TITLES else "female")
    if not votes:
        return None
    counts = Counter(votes)
    if len(counts) > 1:
        diagnostics.append(
            f"entity {entity_id}: mixed gender evidence {dict(counts)}"
        )
    return counts.most_common(1)[0][0]


def build_template(
    doc: AnnotatedDocument,
    content_spans: Iterable[ContentWordSpan] = (),
) -> DocumentTemplate:
    """Derive the fillable template of one document."""
    diagnostics: list[str] = []
    people = _link_person_entities(doc)
    names: dict[str, tuple[str | None, str | None]] = {}
    for ent in people:
        first, last, diag = _infer_from_nes(doc, ent.nes)
        names[ent.id] = (first, last)
        diagnostics.extend(f"entity {ent.id}: {d}" for d in diag)

    doc_names = {n for pair in names.values() for n in pair if n}
    entities: list[EntityTemplate] = []
    claimed: list[tuple[int, int]] = []
    for ent in people:
        first, last = names[ent.id]
        slots = _mention_slots(doc, ent, first, last, doc_names, diagnostics)
        kept: list[EntitySlot] = []
        for s in slots:
            if not _overlaps(s.start, s.end, claimed):
                kept.append(s)
                claimed.append((s.start, s.end))
            else:
                diagnostics.append(
                    f"entity {ent.id}: slot ({s.start},{s.end}) overlaps an earlier "
                    "entity's slot; dropped"
                )
        gendered = any(s.category is not SlotCategory.LAST_NAME for s in kept)
        entities.append(
            EntityTemplate(
                id=ent.id,
                first=first,
                last=last,
                slots=kept,
                gendered=gendered,
                original_gender=_original_gender(kept, diagnostics, ent.id),
            )
        )

    spans = _admit_content_spans(len(doc.tokens), claimed, content_spans, diagnostics)
    return DocumentTemplate(
        doc_id=doc.id,
        tokens=doc.tokens,
        entities=entities,
        content_spans=spans,
        diagnostics=diagnostics,
    )


def _admit_content_spans(
    n_tokens: int,
    claimed: list[tuple[int, int]],
    content_spans: Iterable[ContentWordSpan],
    diagnostics: list[str],
) -> list[ContentWordSpan]:
    claimed = list(claimed)
    spans: list[ContentWordSpan] = []
    for span in sorted(content_spans, key=lambda c: (c.start, c.end)):
        if not (0 <= span.start <= span.end < n_tokens):
            diagnostics.append(f"content span ({span.start},{span.end}) out of range; dropped")
        elif _overlaps(span.start, span.end, claimed):
            diagnostics.append(
                f"content span ({span.start},{span.end}) overlaps a name/pronoun slot; dropped"
            )
        elif len(span.entities) > 1 and span.neutral is None:
            diagnostics.append(
                f"content span ({span.start},{span.end}) governs several entities "
                "but has no neutral variant; dropped"
            )
        else:
            spans.append(span)
            claimed.append((span.start, span.end))
    return spans


def splice(tokens: list[str], pieces: Iterable[tuple[int, int, list[str]]]) -> list[str]:
    """Replace inclusive token ranges; ranges must not overlap."""
    out = list(tokens)
    for start, end, replacement in sorted(pieces, key=lambda p: p[0], reverse=True):
        out[start : end + 1] = replacement
    return out


# --- serialization ---------------------------------------------------------


def template_to_json(t: DocumentTemplate) -> dict:
    entities = [{**vars(e), "slots": [vars(s) for s in e.slots]} for e in t.entities]
    return {**vars(t), "entities": entities, "content_spans": [vars(c) for c in t.content_spans]}


def template_from_json(data: dict) -> DocumentTemplate:
    """The template of one row; JSON has no enums or tuples, so those fields
    are converted back."""
    entities = [
        EntityTemplate(**dict(e, slots=[
            EntitySlot(**dict(s, category=SlotCategory(s["category"]), text=tuple(s["text"])))
            for s in e["slots"]
        ]))
        for e in data["entities"]
    ]
    spans = [ContentWordSpan(**dict(c, entities=tuple(c["entities"])))
             for c in data["content_spans"]]
    return DocumentTemplate(**dict(data, entities=entities, content_spans=spans))


def write_templates(templates: Iterable[DocumentTemplate], path: str | Path) -> None:
    write_rows(path, map(template_to_json, templates))


# each key of a template row and of the objects it nests, and the type of its value
_TEMPLATE_KEYS = {"doc_id": str, "tokens": list, "entities": list, "content_spans": list,
                  "diagnostics": list}
_ENTITY_KEYS = {"id": str, "first": OPTIONAL_STR, "last": OPTIONAL_STR, "slots": list,
                "gendered": bool, "original_gender": OPTIONAL_STR}
_SLOT_KEYS = {"start": int, "end": int, "category": str, "text": list,
              "title_text": OPTIONAL_STR, "pos": str}
_SPAN_KEYS = {"start": int, "end": int, "entities": list, "male": str, "female": str,
              "neutral": OPTIONAL_STR}
_CATEGORIES = {c.value for c in SlotCategory}


def _template_problem(row: dict) -> str | None:
    """What keeps `row` from being a template that `template_from_json`
    builds and `render` fills."""
    problem = fields_problem(row, _TEMPLATE_KEYS)
    if problem:
        return problem
    if not (string_list(row["tokens"]) and string_list(row["diagnostics"])):
        return "tokens and diagnostics must be lists of strings"
    problem = (items_problem(row["entities"], _ENTITY_KEYS, "entity", _entity_problem)
               or items_problem(row["content_spans"], _SPAN_KEYS, "content span", _span_problem))
    if problem:
        return problem
    slots = [s for entity in row["entities"] for s in entity["slots"]]
    for what, spans in (("slot", slots), ("content span", row["content_spans"])):
        for span in spans:
            if not 0 <= span["start"] <= span["end"] < len(row["tokens"]):
                return f"{what} [{span['start']}, {span['end']}] out of range"
    return None


def _entity_problem(entity: dict) -> str | None:
    return items_problem(entity["slots"], _SLOT_KEYS, "slot", _slot_problem)


def _slot_problem(slot: dict) -> str | None:
    """What keeps a slot from being one that `render` can fill."""
    if slot["category"] not in _CATEGORIES:
        return f"unknown category {slot['category']!r}"
    if not (slot["text"] and string_list(slot["text"])):
        return "text must be a non-empty list of strings"
    if slot["category"] == SlotCategory.TITLE and slot["title_text"] is None:
        return "a title slot needs its title_text"
    return None


def _span_problem(span: dict) -> str | None:
    """What keeps a content span's `entities` from naming entity ids, and
    its `neutral`, which a content-word row may omit, from being a variant."""
    if not string_list(span["entities"]):
        return "entities must be a list of strings"
    if not isinstance(span.get("neutral"), OPTIONAL_STR):
        return "neutral must be null or a string"
    return None


def read_templates(path: str | Path) -> Iterator[DocumentTemplate]:
    """The templates of a `build-templates` output file; a row it could not
    have written is a `DataError` naming its line."""
    return map(template_from_json, read_rows(path, check=_template_problem))


_CONTENT_WORD_KEYS = {"doc_id": str, "start": int, "end": int, "entities": list,
                      "male": str, "female": str}


def load_content_words(path: str | Path) -> dict[str, list[ContentWordSpan]]:
    """Side annotations: JSONL rows keyed by doc_id (see docs/formats.md)."""
    by_doc: dict[str, list[ContentWordSpan]] = {}
    for row in read_rows(path, _CONTENT_WORD_KEYS, _span_problem):
        span = ContentWordSpan(
            start=row["start"],
            end=row["end"],
            entities=tuple(row["entities"]),
            male=row["male"],
            female=row["female"],
            neutral=row.get("neutral"),
        )
        by_doc.setdefault(row["doc_id"], []).append(span)
    return by_doc
