"""Seeded workload generator for the benchmark.

Writes, under one work directory, everything a user of sumprobe would hand
to the CLI: an annotated corpus in the column format, the JSONL outputs of
two simulated summarizers, a dense-vector sidecar, a pipeline config, and
for the input-bias workload a synthetic topic/gender corpus in ingest JSONL.

The same seed gives byte-identical files. Document names, filler text and
the summarizers are defined here; only the corpus/template/generation code
of sumprobe is used, because the summaries must join to the input ids that
the program itself generates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Invented names, none of them in the bundled census sample, so original
# names never collide with the census first names the generator assigns.
SURNAMES = (
    "Abernethy", "Blackwood", "Carrow", "Daventry", "Elphick", "Fennimore",
    "Garside", "Halloran", "Inchbald", "Jephcott", "Kilbride", "Larkworthy",
    "Mountjoy", "Nettleship", "Ormerod", "Pargeter", "Quennell", "Rushworth",
    "Satterly", "Tregarthen", "Uttley", "Vellacott", "Wadsworth", "Yelland",
)
FIRST = {
    "male": ("Anselm", "Bertram", "Casimir", "Dorian", "Evander", "Gideon",
             "Horatio", "Isidore", "Jasper", "Lucian"),
    "female": ("Adela", "Briony", "Cordelia", "Delphine", "Esme", "Fenella",
               "Georgina", "Honora", "Imogen", "Juliet"),
}
# Surnames for hallucinated people whose verdict must come from the census.
INVENTED_SURNAMES = ("Quillfeather", "Brackenbury", "Thistlewood", "Marchbanks")
# Hallucinated people found in neither the encyclopedia cache nor the census;
# the title makes the entity detector pick them up.
UNKNOWN_PEOPLE = ("Sir Tobren Vasquell", "Lady Orsolya Kettering")

FILLER = (
    "The council approved the budget after a long debate .",
    "Officials expect the new bridge to open next spring .",
    "The market closed slightly higher on the news .",
    "Residents gathered outside the town hall on Tuesday .",
    "The committee will publish its findings next month .",
    "Several schools reported a rise in enrolment this year .",
)

VARIANTS = 20  # per original, as in the paper

PRONOUNS = {
    "male": {"subj": "He", "obj": "him", "poss": "his", "refl": "himself"},
    "female": {"subj": "She", "obj": "her", "poss": "her", "refl": "herself"},
}


@dataclass(frozen=True)
class Size:
    """How big one workload is."""

    originals: int
    replicates: int = 1000
    synthetic_docs: int = 0


def rng_for(seed: int, *parts: object) -> random.Random:
    """Independent stream per purpose; str seeds hash with sha512, so the
    stream does not depend on PYTHONHASHSEED."""
    return random.Random(":".join(["perfbench", str(seed)] + [str(p) for p in parts]))


# --- annotated corpus ---------------------------------------------------------


class _Doc:
    def __init__(self, name: str):
        self.name = name
        self.tokens: list = []
        self.sentence = 0
        self.mentions: list[tuple[int, int, str]] = []
        self.entities: list[tuple[int, int]] = []

    def sentence_of(self, words: list[str], pos: list[str],
                    mentions=(), persons=()) -> None:
        from sumprobe.corpus import Token

        offset = len(self.tokens)
        for i, (w, p) in enumerate(zip(words, pos)):
            self.tokens.append(Token(offset + i, w, self.sentence, p))
        self.mentions += [(offset + s, offset + e, c) for s, e, c in mentions]
        self.entities += [(offset + s, offset + e) for s, e in persons]
        self.sentence += 1

    def filler(self, text: str) -> None:
        words = text.split()
        self.sentence_of(words, ["NN"] * (len(words) - 1) + ["."])

    def build(self):
        from sumprobe.corpus import AnnotatedDocument, MentionSpan, NamedEntitySpan

        chains: dict[str, list] = {}
        for s, e, c in sorted(self.mentions):
            chains.setdefault(c, []).append(MentionSpan(s, e, c))
        entities = sorted(NamedEntitySpan(s, e, "PERSON") for s, e in self.entities)
        return AnnotatedDocument(f"{self.name}#0", self.tokens, chains, entities)


def _titled(doc: _Doc, chain: str, gender: str, last: str) -> None:
    p = PRONOUNS[gender]
    doc.sentence_of(
        ["Mr." if gender == "male" else "Ms.", last, "said", "the", "plan", "would", "work", "."],
        ["NNP", "NNP", "VBD", "DT", "NN", "MD", "VB", "."],
        mentions=[(0, 1, chain)], persons=[(1, 1)],
    )
    doc.sentence_of(
        [p["subj"], "added", "that", p["poss"], "team", "agreed", "."],
        ["PRP", "VBD", "IN", "PRP$", "NN", "VBD", "."],
        mentions=[(0, 0, chain), (3, 3, chain)],
    )


def _full_name(doc: _Doc, chain: str, gender: str, first: str, last: str) -> None:
    p = PRONOUNS[gender]
    doc.sentence_of(
        [first, last, "joined", "the", "board", "in", "March", "."],
        ["NNP", "NNP", "VBD", "DT", "NN", "IN", "NNP", "."],
        mentions=[(0, 1, chain)], persons=[(0, 1)],
    )
    doc.sentence_of(
        ["Analysts", "praised", p["obj"], ",", "and", last, "thanked", p["refl"], "."],
        ["NNS", "VBD", "PRP", ",", "CC", "NNP", "VBD", "PRP", "."],
        mentions=[(2, 2, chain), (5, 5, chain), (7, 7, chain)], persons=[(5, 5)],
    )


def _quoted(doc: _Doc, chain: str, gender: str, first: str, last: str) -> None:
    p = PRONOUNS[gender]
    doc.sentence_of(
        ["According", "to", first, last, ",", "the", "deal", "is", "sound", "."],
        ["VBG", "TO", "NNP", "NNP", ",", "DT", "NN", "VBZ", "JJ", "."],
        mentions=[(2, 3, chain)], persons=[(2, 3)],
    )
    doc.sentence_of(
        [p["poss"].capitalize(), "office", "confirmed", "the", "figures", "."],
        ["PRP$", "NN", "VBD", "DT", "NNS", "."],
        mentions=[(0, 0, chain)],
    )


def _bare(doc: _Doc, chain: str, last: str) -> None:
    doc.sentence_of(
        [last, "declined", "to", "comment", "."],
        ["NNP", "VBD", "TO", "VB", "."],
        mentions=[(0, 0, chain)], persons=[(0, 0)],
    )


def make_document(seed: int, index: int):
    """One news-like document with one to four person entities. Every tenth
    document names a single person by surname only, so it has no gendered
    slot and the template stage rejects it. How many entities a document
    has and whether it is eligible depend on its index only, so the amount
    of work in a workload hardly changes with the seed."""
    rng = rng_for(seed, "doc", index)
    doc = _Doc(f"bench_{index:05d}")
    lasts = rng.sample(SURNAMES, 4)
    kinds = ["bare"] if index % 10 == 9 else [rng.choice(("titled", "full", "quoted"))] + [
        rng.choice(("titled", "full", "quoted", "bare")) for _ in range(index % 4)
    ]
    firsts = {g: rng.sample(FIRST[g], 4) for g in FIRST}
    for n, kind in enumerate(kinds):
        gender = rng.choice(("male", "female"))
        chain = str(n)
        if kind == "titled":
            _titled(doc, chain, gender, lasts[n])
        elif kind == "full":
            _full_name(doc, chain, gender, firsts[gender][n], lasts[n])
        elif kind == "quoted":
            _quoted(doc, chain, gender, firsts[gender][n], lasts[n])
        else:
            _bare(doc, chain, lasts[n])
        if rng.random() < 0.5:
            doc.filler(rng.choice(FILLER))
    doc.filler(rng.choice(FILLER))
    return doc.build()


# --- simulated summarizers ----------------------------------------------------


def _census_first_names(data_dir: Path) -> dict[str, set[str]]:
    out = {}
    for gender in ("male", "female"):
        text = (data_dir / f"census_{gender}.txt").read_text(encoding="utf-8")
        out[gender] = {line.split()[0].lower() for line in text.splitlines() if line.strip()}
    return out


def hallucination_pool(data_dir: Path) -> dict[str, list[str]]:
    """Invented people for the skewed system, grouped by the verdict source
    the classifier should reach for them: encyclopedia pages from the bundled
    cache whose first name the entity detector knows, census first names
    with surnames found nowhere, and titled names found in neither."""
    census = _census_first_names(data_dir)
    known = census["male"] | census["female"]
    unambiguous = {g: sorted(census[g] - census[o])
                   for g, o in (("male", "female"), ("female", "male"))}
    cache = json.loads((data_dir / "wiki_cache.json").read_text(encoding="utf-8"))
    encyclopedia = sorted(
        title for title, entry in cache.items()
        if len(title.split()) == 2
        and title.replace(" ", "").isalpha()
        and title.split()[0].lower() in known
        and any(w in c.lower() for c in entry.get("categories", ())
                for w in ("births", "deaths", "people"))
    )
    census_people = [
        f"{unambiguous[g][i].capitalize()} {INVENTED_SURNAMES[k]}"
        for k, (g, i) in enumerate((("male", 0), ("female", 0), ("male", 5), ("female", 5)))
    ]
    return {"encyclopedia": encyclopedia, "census": census_people, "none": list(UNKNOWN_PEOPLE)}


def skewed_summary(gi, rng: random.Random, pool: dict[str, list[str]]) -> str:
    """Keeps male entities at twice the rate of female ones, uses gendered
    pronouns, and sometimes credits a person who is not in the input. The
    first variants of every original each credit one from another verdict
    source, so every source occurs at any corpus size."""
    parts = []
    for a in gi.assignments:
        if rng.random() < (0.9 if a.gender == "male" else 0.45):
            pronoun = PRONOUNS[a.gender]["subj"].lower()
            parts.append(f"{a.first} {a.last} said {pronoun} would stay on .")
    sources = sorted(pool)
    if gi.variant < len(sources) or rng.random() < 0.35:
        source = sources[gi.variant] if gi.variant < len(sources) else rng.choice(sources)
        parts.append(f"Observers credited {rng.choice(pool[source])} with the idea .")
    parts.append(rng.choice(FILLER))
    return " ".join(parts)


def dense_vector(gi, seed: int, dim: int = 16) -> list[float]:
    """A stand-in sentence embedding: per-original base, a small shift along
    one direction by assigned gender, and per-input noise."""
    base = rng_for(seed, "dense-base", gi.original_id)
    noise = rng_for(seed, "dense-noise", gi.id)
    gender = gi.assignments[0].gender if gi.assignments else "male"
    shift = 0.3 if gender == "male" else -0.3
    return [
        round(base.gauss(0, 1) + (shift if k == 0 else 0.0) + noise.gauss(0, 0.5), 5)
        for k in range(dim)
    ]


# --- writers ------------------------------------------------------------------


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def write_pipeline_workload(root: Path, work: Path, scheme: str, size: Size,
                            seed: int, jobs: int) -> Path:
    """Corpus, two systems' summaries, a dense sidecar for one of them, and
    the config. Paths in the config are relative to `root`, the directory
    the CLI runs in, so scores.json does not depend on where it lies."""
    from sumprobe.corpus import write_conll_corpus
    from sumprobe.generate import generate_corpus, make_scheme
    from sumprobe.names import load_census, resolve_ambiguous
    from sumprobe.templates import build_template

    work.mkdir(parents=True, exist_ok=True)
    docs = [make_document(seed, i) for i in range(size.originals)]
    corpus = work / "corpus.conll"
    with corpus.open("w", encoding="utf-8") as fh:
        write_conll_corpus(docs, fh)

    inputs = generate_corpus(
        [build_template(d) for d in docs],
        make_scheme(scheme, variants=VARIANTS),
        seed,
        census=resolve_ambiguous(load_census()),
    )
    pool = hallucination_pool(root / "src" / "sumprobe" / "data")
    summaries = {}
    for system in ("faithful", "skewed"):
        path = work / f"summaries.{system}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for gi in inputs:
                text = gi.text if system == "faithful" else skewed_summary(
                    gi, rng_for(seed, "summary", gi.id), pool)
                fh.write(json.dumps({"input_id": gi.id, "system": system,
                                     "summary": text}) + "\n")
        summaries[system] = _rel(path, root)

    config = {
        "corpus": _rel(corpus, root),
        "scheme": scheme,
        "seed": seed,
        "variants": VARIANTS,
        "replicates": size.replicates,
        "summaries": summaries,
        "out_dir": _rel(work / "out", root),
        "jobs": jobs,
    }
    if scheme == "gender_global":
        dense = work / "dense.skewed.jsonl"
        with dense.open("w", encoding="utf-8") as fh:
            for gi in inputs:
                fh.write(json.dumps({"input_id": gi.id, "vector": dense_vector(gi, seed)}) + "\n")
        config["dense_vectors"] = {"skewed": _rel(dense, root)}
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_synthetic_corpus(work: Path, size: Size, seed: int) -> Path:
    """Topic/gender-correlated corpus in ingest JSONL, from the program's own
    synthetic generator with its default rates."""
    from sumprobe.corpus import write_jsonl
    from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus

    work.mkdir(parents=True, exist_ok=True)
    path = work / "synthetic.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=size.synthetic_docs),
                                      seed=seed), path)
    return path
