"""Document model and readers for column-annotated news corpora.

The input format is a CoNLL-2012-style column file, documented in
docs/formats.md. Tokenization, sentence boundaries, named entities and
coreference chains are taken as given by the annotation file; nothing is
re-tokenized or re-tagged here.

A document holds its tokens as three parallel columns, the way an `ingest`
JSONL row does: token texts, sentence ids and POS tags, a token's index
being its position. `from_json` keeps a row's own lists, with no copy and
no per-token object, and `to_json` and `build_template` hand the columns
on as they are, so no code may mutate a column once a document holds it.
A corpus repeats a small vocabulary, so each reader keeps one `str` per
distinct token text and POS tag while a read runs: a repeated token costs a
list slot, not a string of its own.

Each reader checks a document once, as it reads it: a fault is a
`DataError` naming the file and the line, and a document either returns
needs no further check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from .jsonio import DataError, once_each, read_lines, read_rows, write_rows


class Token(NamedTuple):
    """One token of a document built by hand, the form `AnnotatedDocument`
    takes as input. It stays for callers that assemble a document token by
    token; the package itself builds no `Token` and reads columns only."""

    index: int
    text: str
    sentence: int
    pos: str = ""


@dataclass(frozen=True, order=True)
class MentionSpan:
    start: int
    end: int  # inclusive
    chain: str | None = None


@dataclass(frozen=True, order=True)
class NamedEntitySpan:
    start: int
    end: int  # inclusive
    label: str


@dataclass(init=False)
class AnnotatedDocument:
    """A document as three parallel token columns (`tokens` texts,
    `sentences` ids, `pos` tags; a token's index is its position) plus its
    coreference chains and named entities.

    `AnnotatedDocument(id, [Token, ...], chains, entities)` splits a hand-built
    token list into new columns; each token's `index` must be its position.
    The readers use `from_columns`, which keeps the lists it is given: they
    may be shared with a JSON row or a template, and are never mutated.
    """

    id: str
    tokens: list[str]
    sentences: list[int]
    pos: list[str]
    chains: dict[str, list[MentionSpan]]
    entities: list[NamedEntitySpan]

    def __init__(self, id: str, tokens: Iterable[Token],
                 chains: dict[str, list[MentionSpan]], entities: list[NamedEntitySpan]):
        tokens = list(tokens)
        if [t.index for t in tokens] != list(range(len(tokens))):
            raise ValueError(f"document {id}: token indices are not their positions")
        self._fill(id, [t.text for t in tokens], [t.sentence for t in tokens],
                   [t.pos for t in tokens], chains, entities)

    @classmethod
    def from_columns(cls, id: str, tokens: list[str], sentences: list[int], pos: list[str],
                     chains: dict[str, list[MentionSpan]],
                     entities: list[NamedEntitySpan]) -> AnnotatedDocument:
        """A document over these very lists, not copies of them."""
        doc = cls.__new__(cls)
        doc._fill(id, tokens, sentences, pos, chains, entities)
        return doc

    def _fill(self, id, tokens, sentences, pos, chains, entities) -> None:
        self.id, self.tokens, self.sentences, self.pos = id, tokens, sentences, pos
        self.chains, self.entities = chains, entities

    def person_entities(self) -> list[NamedEntitySpan]:
        return [e for e in self.entities if e.label == "PERSON"]


_NO_COREF = "-"
_NO_NE = "*"
_NUM_COLUMNS = 7


def _fault(path: str | Path, line_no: int, problem: str) -> DataError:
    """The error for a bad corpus line; built only when one is found."""
    return DataError(f"{path}: line {line_no}: {problem}")


class _DocBuilder:
    """The document that a `#begin document` marker opens, built row by row;
    a fault in a row is a `DataError` naming `path` and the row's line."""

    def __init__(self, marker: str, path: str | Path, line_no: int, shared: dict[str, str]):
        # "#begin document (name); part 012"
        try:
            head, part_text = marker.split(";")
            name = head[head.index("(") + 1 : head.rindex(")")]
            part = int(part_text.split()[-1])
        except (ValueError, IndexError):
            raise _fault(path, line_no, f"bad '#begin document' marker: {marker!r}")
        self.path = path
        self.shared = shared  # the read's one str per distinct token text and POS tag
        self.id = f"{name}#{part}"
        self.tokens: list[str] = []
        self.sentences: list[int] = []
        self.pos: list[str] = []
        self.sentence = 0
        self.open_ne: tuple[str, int] | None = None  # (label, start)
        self.open_chains: dict[str, list[int]] = {}
        self.mentions: list[MentionSpan] = []
        self.entities: list[NamedEntitySpan] = []

    def add_row(self, columns: list[str], line_no: int) -> None:
        _, _, _, text, pos, ne_field, coref_field = columns
        index = len(self.tokens)
        self.tokens.append(self.shared.setdefault(text, text))
        self.sentences.append(self.sentence)
        # "-" is the empty-POS placeholder in the column format
        self.pos.append("" if pos == "-" else self.shared.setdefault(pos, pos))
        self._add_ne(ne_field, index, line_no)
        if coref_field != _NO_COREF:
            self._add_coref(coref_field, index, line_no)

    def _add_ne(self, field_text: str, index: int, line_no: int) -> None:
        if field_text.startswith("("):
            if self.open_ne is not None:
                raise _fault(self.path, line_no,
                             "named-entity bracket opened while another is open")
            if field_text.endswith(")"):
                self.entities.append(NamedEntitySpan(index, index, field_text[1:-1].rstrip("*")))
            elif field_text.endswith("*"):
                self.open_ne = (field_text[1:-1], index)
            else:
                raise _fault(self.path, line_no, f"bad named-entity field {field_text!r}")
        elif field_text == "*)":
            if self.open_ne is None:
                raise _fault(self.path, line_no, "named-entity bracket closed but none open")
            label, start = self.open_ne
            self.entities.append(NamedEntitySpan(start, index, label))
            self.open_ne = None
        elif field_text != _NO_NE:
            raise _fault(self.path, line_no, f"bad named-entity field {field_text!r}")

    def _add_coref(self, field_text: str, index: int, line_no: int) -> None:
        for part in field_text.split("|"):
            opens = part.startswith("(")
            closes = part.endswith(")")
            chain = part.strip("()")
            if not chain or not chain.isdigit() or not (opens or closes):
                raise _fault(self.path, line_no, f"bad coreference field {field_text!r}")
            if opens and closes:
                self.mentions.append(MentionSpan(index, index, chain))
            elif opens:
                self.open_chains.setdefault(chain, []).append(index)
            else:
                stack = self.open_chains.get(chain)
                if not stack:
                    raise _fault(self.path, line_no,
                                 f"coreference chain {chain} closed but never opened")
                self.mentions.append(MentionSpan(stack.pop(), index, chain))

    def _dangling(self) -> str:
        return ", ".join(sorted(c for c, stack in self.open_chains.items() if stack))

    def end_sentence(self, line_no: int) -> None:
        """A blank line: no named entity or mention may span it."""
        if self.open_ne is not None:
            raise _fault(self.path, line_no, "named-entity bracket still open at a sentence break")
        dangling = self._dangling()
        if dangling:
            raise _fault(self.path, line_no, f"coreference bracket(s) for chain(s) {dangling} "
                         "still open at a sentence break")
        if self.sentences and self.sentences[-1] == self.sentence:
            self.sentence += 1

    def finish(self, line_no: int) -> AnnotatedDocument:
        if self.open_ne is not None:
            raise _fault(self.path, line_no,
                         f"document {self.id} ends with an open named-entity bracket")
        dangling = self._dangling()
        if dangling:
            raise _fault(self.path, line_no, f"document {self.id} ends with open coreference "
                         f"bracket(s) for chain(s) {dangling}")
        chains: dict[str, list[MentionSpan]] = {}
        for m in sorted(self.mentions):
            chains.setdefault(m.chain, []).append(m)
        return AnnotatedDocument.from_columns(self.id, self.tokens, self.sentences, self.pos,
                                              chains, sorted(self.entities))


def parse_conll_corpus(path: str | Path) -> list[AnnotatedDocument]:
    """Parse a column-annotated corpus file into documents.

    A malformed row, an unbalanced annotation bracket, a named entity or a
    mention across a sentence break or a document id seen before is a
    `DataError` naming `path` and the line. Equal token texts, and equal POS
    tags, are one `str` across the documents read.
    """
    docs: list[AnnotatedDocument] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}
    builder: _DocBuilder | None = None
    for line_no, raw in read_lines(path):
        line = raw.rstrip("\n")
        if line.startswith("#begin document"):
            if builder is not None:
                raise _fault(path, line_no, "nested '#begin document'")
            builder = _DocBuilder(line, path, line_no, shared)
            if builder.id in seen:
                raise _fault(path, line_no, f"document {builder.id} appears twice")
            seen.add(builder.id)
            continue
        if line.startswith("#end document"):
            if builder is None:
                raise _fault(path, line_no, "'#end document' without begin")
            docs.append(builder.finish(line_no))
            builder = None
            continue
        if not line.strip():
            if builder is not None:
                builder.end_sentence(line_no)
            continue
        if builder is None:
            raise _fault(path, line_no, "token row outside a document block")
        columns = line.split()
        if len(columns) != _NUM_COLUMNS:
            raise _fault(path, line_no, f"expected {_NUM_COLUMNS} columns, got {len(columns)}")
        builder.add_row(columns, line_no)
    if builder is not None:
        raise DataError(f"{path}: document {builder.id} has no '#end document' marker")
    return docs


def write_conll_corpus(docs: Iterable[AnnotatedDocument], out: TextIO) -> None:
    """Serialize documents back to the column format (round-trip safe)."""
    for doc in docs:
        name, part = doc.id.rsplit("#", 1)
        out.write(f"#begin document ({name}); part {int(part):03d}\n")
        ne_open = {e.start: e for e in doc.entities}
        ne_close = {e.end for e in doc.entities}
        starts: dict[int, list[str]] = {}
        ends: dict[int, list[str]] = {}
        units: dict[int, list[str]] = {}
        for chain, spans in doc.chains.items():
            for m in spans:
                if m.start == m.end:
                    units.setdefault(m.start, []).append(chain)
                else:
                    starts.setdefault(m.start, []).append(chain)
                    ends.setdefault(m.end, []).append(chain)
        word = 0
        prev_sentence = 0
        for i, (text, sentence, pos) in enumerate(zip(doc.tokens, doc.sentences, doc.pos)):
            if sentence != prev_sentence:
                out.write("\n")
                word = 0
                prev_sentence = sentence
            if i in ne_open:
                e = ne_open[i]
                ne = f"({e.label})" if e.end == i else f"({e.label}*"
            elif i in ne_close:
                ne = "*)"
            else:
                ne = _NO_NE
            parts = (
                [f"({c}" for c in sorted(starts.get(i, []), key=int)]
                + [f"({c})" for c in sorted(units.get(i, []), key=int)]
                + [f"{c})" for c in sorted(ends.get(i, []), key=int)]
            )
            coref = "|".join(parts) if parts else _NO_COREF
            out.write(f"{name} {int(part)} {word} {text} {pos or '-'} {ne} {coref}\n")
            word += 1
        out.write("#end document\n")


def to_json(doc: AnnotatedDocument) -> dict:
    return {
        "id": doc.id,
        "tokens": doc.tokens,
        "sentences": doc.sentences,
        "pos": doc.pos,
        "chains": {c: [[m.start, m.end] for m in spans] for c, spans in doc.chains.items()},
        "entities": [[e.start, e.end, e.label] for e in doc.entities],
    }


def from_json(data: dict) -> AnnotatedDocument:
    chains = {
        chain: [MentionSpan(s, e, chain) for s, e in spans]
        for chain, spans in data["chains"].items()
    }
    entities = [NamedEntitySpan(s, e, label) for s, e, label in data["entities"]]
    return AnnotatedDocument.from_columns(data["id"], data["tokens"], data["sentences"],
                                          data["pos"], chains, sorted(entities))


def write_jsonl(docs: Iterable[AnnotatedDocument], path: str | Path) -> None:
    write_rows(path, map(to_json, docs))


# each key of a document row, and the type of its value
_DOCUMENT_KEYS = {"id": str, "tokens": list, "sentences": list, "pos": list,
                  "chains": dict, "entities": list}


def _document_problem(row: dict) -> str | None:
    """What else keeps `row` from being a document that `ingest` could have
    written: `from_json` labels the mentions itself."""
    n = len(row["tokens"])
    sentences = row["sentences"]
    if len(sentences) != n or len(row["pos"]) != n:
        return "tokens, sentences and pos differ in length"
    if not {*map(type, row["tokens"]), *map(type, row["pos"])} <= {str}:
        return "tokens and pos must be strings"
    if not set(map(type, sentences)) <= {int}:
        return "sentences must be integers"
    if sentences and (sentences[0] != 0 or sorted(sentences) != sentences):
        return "sentences must start at 0 and never decrease"
    for chain, spans in row["chains"].items():
        if not (isinstance(spans, list) and spans and all(
                isinstance(s, list) and len(s) == 2 and type(s[0]) is int and type(s[1]) is int
                for s in spans)):
            return f"chain {chain!r} is not a non-empty list of [start, end] spans"
        for start, end in spans:
            if not 0 <= start <= end < n:
                return f"chain {chain!r}: mention [{start}, {end}] out of range"
            if sentences[start] != sentences[end]:
                return f"chain {chain!r}: mention [{start}, {end}] crosses a sentence break"
    problem = bad_entity_span(row)
    if problem is None:
        for start, end, label in row["entities"]:
            if not 0 <= start <= end < n:
                return f"entity [{start}, {end}, {label!r}] out of range"
            if sentences[start] != sentences[end]:
                return f"entity [{start}, {end}, {label!r}] crosses a sentence break"
    return problem


def bad_entity_span(row: dict) -> str | None:
    """The problem with the first of `row["entities"]` that is not a
    [start, end, label] triple, if any."""
    for span in row["entities"]:
        if not (isinstance(span, list) and len(span) == 3 and type(span[0]) is int
                and type(span[1]) is int and isinstance(span[2], str)):
            return f"entity {span!r} is not a [start, end, label] triple"
    return None


def read_jsonl(path: str | Path) -> Iterator[AnnotatedDocument]:
    """The documents of an `ingest` output file; a row `ingest` could not
    have written, or that repeats an id, is a `DataError` naming its line.
    Equal token texts, and equal POS tags, are one `str` across the
    documents read: each row's columns are swapped to them in place, so a
    document still holds its row's own lists."""
    shared: dict[str, str] = {}
    for row in read_rows(path, _DOCUMENT_KEYS, once_each("id", "document", _document_problem)):
        for column in row["tokens"], row["pos"]:
            column[:] = map(shared.setdefault, column, column)
        yield from_json(row)
