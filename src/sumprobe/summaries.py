"""Load summarizer outputs, tokenize them and detect person-name mentions.

Detection is lexicon-driven (injected names, census names, titles) over
maximal runs of capitalized tokens; a sidecar file with externally
detected entity spans can replace it (docs/formats.md).

A tokenizer and a detector each do their per-token work once per distinct
token for as long as they are kept, and `load_summaries` keeps one of each
for its call. Equal tokens of all the records that one call loads are one
shared `str` object; the memos go when the call returns.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .corpus import bad_entity_span
from .generate import GeneratedInput
from .jsonio import DataError, read_rows
from .names import GenderNameTable
from .templates import TITLE_SET

_PUNCT = set(string.punctuation)


@dataclass(frozen=True)
class SummaryEntity:
    start: int
    end: int  # inclusive
    tokens: tuple[str, ...]


@dataclass
class SummaryRecord:
    input_id: str
    system: str
    tokens: list[str]
    entities: list[SummaryEntity] = field(default_factory=list)


_SENTENCE_ENDERS = set(".!?")


def summary_tokenizer() -> Callable[[str], list[str]]:
    """Whitespace split with edge punctuation stripped.

    The trailing period of title tokens (Mr./Mrs./Ms.) survives, and any
    sentence-ending punctuation leaves a normalized "." token behind so
    capitalized-run detection cannot merge names across sentences. For as
    long as it is kept, the tokenizer gives equal tokens back as one object
    and splits each distinct raw token with edge punctuation once.
    """
    shared: dict[str, str] = {}

    @functools.cache
    def split(raw: str) -> tuple[str, ...]:
        return tuple(shared.setdefault(tok, tok) for tok in _strip_raw(raw))

    def tokenize(text: str) -> list[str]:
        out: list[str] = []
        for raw in text.split():
            if raw[0] in _PUNCT or raw[-1] in _PUNCT:
                out += split(raw)
            else:  # nothing to strip, so nothing ends a sentence
                out.append(shared.setdefault(raw, raw))
        return out

    return tokenize


def _strip_raw(raw: str) -> list[str]:
    """The summary tokens of a whitespace-delimited raw token with
    punctuation at an edge."""
    tok = raw.lstrip(string.punctuation)
    if not tok:
        return ["."] if _SENTENCE_ENDERS & set(raw) else []
    trailing = ""
    while tok and tok[-1] in _PUNCT and tok.lower() not in TITLE_SET:
        trailing = tok[-1] + trailing
        tok = tok[:-1]
    out = [tok] if tok else []
    if tok.lower() not in TITLE_SET and _SENTENCE_ENDERS & set(trailing):
        out.append(".")
    return out


def build_lexicon(
    *name_sources: Iterable[str | None], census: GenderNameTable
) -> frozenset[str]:
    """Lowercased name lexicon for entity detection."""
    words: set[str] = set()
    for source in name_sources:
        for name in source:
            if name:
                words.add(name.lower())
    words.update(census.male)
    words.update(census.female)
    return frozenset(words)


def entity_detector(lexicon: frozenset[str]) -> Callable[[list[str]], list[SummaryEntity]]:
    """Maximal capitalized runs containing at least one lexicon name or
    title. The detector looks each distinct token up in `lexicon` and the
    titles once, for as long as it is kept."""

    @functools.cache
    def named(token: str) -> bool:
        low = token.lower()
        return low in lexicon or low in TITLE_SET

    def detect(tokens: list[str]) -> list[SummaryEntity]:
        entities: list[SummaryEntity] = []
        run_start: int | None = None
        for i, token in enumerate([*tokens, ""]):  # the "" closes a final run
            if token[:1].isupper():
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                run = tokens[run_start:i]
                if any(map(named, run)):
                    entities.append(SummaryEntity(run_start, i - 1, tuple(run)))
                run_start = None
        return entities

    return detect


def _sidecar_problem(row: dict) -> str | None:
    """What keeps a sidecar row's spans from being [start, end, label]
    triples with 0 <= start <= end, or None; the end is checked against
    the summary once it is read."""
    problem = bad_entity_span(row)
    if problem is None:
        for start, end, label in row["entities"]:
            if not 0 <= start <= end:
                return f"entity [{start}, {end}, {label!r}] must have 0 <= start <= end"
    return problem


def _once_per_input(check: Callable[[dict], str | None]) -> Callable[[dict], str | None]:
    """`check`, plus: a row repeating an earlier row's input id is malformed."""
    seen: set[str] = set()

    def problem(row: dict) -> str | None:
        if row["input_id"] in seen:
            return f"input {row['input_id']} appears twice"
        seen.add(row["input_id"])
        return check(row)

    return problem


def load_ner_sidecar(path: str | Path) -> dict[str, list[tuple[int, int, str]]]:
    """Optional externally produced entity spans per input id, one row per id."""
    return {
        row["input_id"]: [(s, e, label) for s, e, label in row["entities"]]
        for row in read_rows(path, {"input_id": str, "entities": list},
                             _once_per_input(_sidecar_problem))
    }


def load_dense_vectors(path: str | Path) -> dict[str, np.ndarray]:
    """A system's dense vector per input id, one row per id; every entry a
    finite real number, every vector as long as the first row's."""
    first: dict[str, int] = {}  # the first row's length

    def problem(row: dict) -> str | None:
        vector = row["vector"]
        if not all(type(x) in (int, float) for x in vector):
            return "vector entries must be numbers"
        try:
            finite = all(map(math.isfinite, vector))
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            return "vector entries must be finite floats"
        length = first.setdefault("length", len(vector))
        if len(vector) != length:
            return f"vector has {len(vector)} entries, the first row's has {length}"
        return None

    return {row["input_id"]: np.asarray(row["vector"], dtype=float)
            for row in read_rows(path, {"input_id": str, "vector": list},
                                 _once_per_input(problem))}


def load_summaries(
    path: str | Path,
    inputs: dict[str, GeneratedInput],
    *,
    system: str,
    lexicon: frozenset[str] | None = None,
    ner_sidecar: str | Path | None = None,
) -> list[SummaryRecord]:
    """Read `system`'s summary JSONL ({input_id, system, summary}, all
    strings) and join each record to its generated input by id. Records come
    in the order of `inputs`, whatever the order of the rows. Rows naming
    another system, unknown ids and duplicate inputs are a `DataError`
    naming `path`, `system` and the offenders. A record's person entities
    come from `ner_sidecar` where it has the input, else from `lexicon`; a
    sidecar row for an id that is not in `inputs`, or a sidecar span past the
    end of its summary, is a `DataError` naming the sidecar, `system` and
    the inputs. Equal tokens of all the records are one shared object."""
    ner_spans = load_ner_sidecar(ner_sidecar) if ner_sidecar is not None else {}
    unjoined = [input_id for input_id in ner_spans if input_id not in inputs]
    if unjoined:
        raise DataError(f"{ner_sidecar}: system {system!r}: sidecar rows reference unknown "
                        "input ids: " + ", ".join(sorted(unjoined)))
    records: list[SummaryRecord] = []
    strays: list[str] = []
    unknown: list[str] = []
    seen: set[str] = set()
    duplicates: list[str] = []
    tokenize = summary_tokenizer()
    for row in read_rows(path, {"input_id": str, "system": str, "summary": str}):
        input_id, text = row["input_id"], row["summary"]
        if row["system"] != system:
            strays.append(row["system"])
            continue
        if input_id not in inputs:
            unknown.append(input_id)
            continue
        if input_id in seen:
            duplicates.append(f"{input_id}/{system}")
            continue
        seen.add(input_id)
        records.append(SummaryRecord(input_id, system, tokenize(text)))
    for problem, offenders in (("rows name another system", strays),
                               ("summaries reference unknown input ids", unknown),
                               ("duplicate (input, system) summaries", duplicates)):
        if offenders:
            raise DataError(f"{path}: system {system!r}: {problem}: "
                            + ", ".join(sorted(set(offenders))))
    position = {input_id: i for i, input_id in enumerate(inputs)}
    records.sort(key=lambda rec: position[rec.input_id])

    overlong: list[str] = []
    detect = entity_detector(lexicon) if lexicon is not None else None
    for rec in records:
        if rec.input_id in ner_spans:
            spans = ner_spans[rec.input_id]
            if any(e >= len(rec.tokens) for _, e, _ in spans):
                overlong.append(rec.input_id)
            rec.entities = [SummaryEntity(s, e, tuple(rec.tokens[s : e + 1]))
                            for s, e, label in spans if label == "PERSON"]
        elif detect is not None:
            rec.entities = detect(rec.tokens)
    if overlong:
        raise DataError(f"{ner_sidecar}: system {system!r}: entity spans end past their "
                        "summary: " + ", ".join(sorted(overlong)))
    return records
