"""Align summary person mentions to input entities; tag hallucinations.

A summary entity aligns to an input entity when it contains that entity's
last name and every other token is the entity's assigned first name or a
title. A summary entity aligning to nothing is only confirmed as a
hallucination if at least one of its tokens does not occur in the source
text at all; otherwise it stays unresolved and counts toward neither
inclusion nor hallucination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .generate import GeneratedInput
from .jsonio import write_rows
from .summaries import SummaryEntity, SummaryRecord
from .templates import TITLE_SET, DocumentTemplate

ALIGNED = "aligned"
HALLUCINATED = "hallucinated"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class InputEntity:
    id: str
    first: str | None  # name assigned during generation (or original)
    last: str | None
    group: str | None  # demographic group, None for unreplaced entities


@dataclass(frozen=True)
class AlignmentResult:
    entity: SummaryEntity
    status: str
    matched: str | None
    reason: str


@dataclass
class AlignedSummary:
    record: SummaryRecord
    results: list[AlignmentResult]

    def hallucinated(self) -> list[SummaryEntity]:
        return [r.entity for r in self.results if r.status == HALLUCINATED]


def input_entities(template: DocumentTemplate, generated: GeneratedInput) -> list[InputEntity]:
    """Entity table of one generated input: substituted names where the
    entity was replaced, original inferred names otherwise."""
    assigned = generated.assignment_map()
    out = []
    for e in template.entities:
        a = assigned.get(e.id)
        if a is not None:
            out.append(InputEntity(e.id, a.first, a.last, a.group))
        else:
            out.append(InputEntity(e.id, e.first, e.last, None))
    return out


def align(
    summary_entity: SummaryEntity,
    entities: Sequence[InputEntity],
    source_tokens: Iterable[str],
) -> AlignmentResult:
    tokens_lower = [t.lower() for t in summary_entity.tokens]
    surface = " ".join(summary_entity.tokens)
    matches: list[tuple[int, int, InputEntity]] = []
    for position, ie in enumerate(entities):
        if not ie.last or ie.last.lower() not in tokens_lower:
            continue
        others = [t for t in tokens_lower if t != ie.last.lower()]
        first_lower = ie.first.lower() if ie.first else None
        if all(t == first_lower or t in TITLE_SET for t in others):
            corroborated = 0 if (first_lower and first_lower in tokens_lower) else 1
            matches.append((corroborated, position, ie))
    if matches:
        _, _, best = min(matches, key=lambda m: (m[0], m[1]))
        return AlignmentResult(
            summary_entity,
            ALIGNED,
            best.id,
            f"{surface!r} contains last name {best.last!r}; remaining tokens are "
            "the assigned first name or titles",
        )
    source_lower = {t.lower() for t in source_tokens}
    missing = [t for t in tokens_lower if t not in source_lower]
    if missing:
        return AlignmentResult(
            summary_entity,
            HALLUCINATED,
            None,
            f"{surface!r} matches no input entity and token(s) {missing} do not "
            "occur in the source",
        )
    return AlignmentResult(
        summary_entity,
        UNRESOLVED,
        None,
        f"{surface!r} matches no input entity but every token occurs in the source",
    )


def align_corpus(
    summaries: Iterable[SummaryRecord],
    entity_index: dict[str, list[InputEntity]],
    source_tokens: dict[str, list[str]],
) -> tuple[list[AlignedSummary], dict[str, Counter]]:
    """Align every record; returns per-system diagnostic counts in the
    shape of the alignment-validation table."""
    aligned: list[AlignedSummary] = []
    counts: dict[str, Counter] = {}
    for record in summaries:
        entities, sources = entity_index[record.input_id], source_tokens[record.input_id]
        res = AlignedSummary(record, [align(se, entities, sources) for se in record.entities])
        aligned.append(res)
        c = counts.setdefault(record.system, Counter())
        c["input_entities"] += len(entities)
        c["summary_entities"] += len(record.entities)
        c["aligned_summary_entities"] += sum(r.status == ALIGNED for r in res.results)
        c["input_entities_with_alignment"] += len(
            {r.matched for r in res.results if r.status == ALIGNED}
        )
        c["hallucinated"] += sum(r.status == HALLUCINATED for r in res.results)
        c["unresolved"] += sum(r.status == UNRESOLVED for r in res.results)
    return aligned, counts


def inclusion_rows(
    aligned: Iterable[AlignedSummary],
    entity_index: dict[str, list[InputEntity]],
) -> list[dict[str, tuple[int, int]]]:
    """Per-record {group: (included, total)} entity counts (bootstrap unit)."""
    rows = []
    for a in aligned:
        hit = {r.matched for r in a.results if r.status == ALIGNED}
        per_group: dict[str, list[int]] = {}
        for ie in entity_index[a.record.input_id]:
            if ie.group is None:
                continue
            counts = per_group.setdefault(ie.group, [0, 0])
            counts[1] += 1
            if ie.id in hit:
                counts[0] += 1
        rows.append({g: tuple(v) for g, v in per_group.items()})
    return rows


def write_alignments(aligned: Iterable[AlignedSummary], path: str | Path) -> None:
    write_rows(path, (
        {
            "input_id": a.record.input_id,
            "system": a.record.system,
            "entity_tokens": list(r.entity.tokens),
            "start": r.entity.start,
            "end": r.entity.end,
            "status": r.status,
            "matched_entity": r.matched,
            "reason": r.reason,
        }
        for a in aligned
        for r in a.results
    ))
