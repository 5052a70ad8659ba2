#!/usr/bin/env python3
"""Stage a small self-contained demo run: a toy annotated corpus, two toy
summarizers' outputs (one faithful, one that drops female entities and
hallucinates), and a ready-to-run pipeline config. The toy corpus comes
from `make_fixture_corpus`, a deterministic builder of annotated documents
that the test suite imports as well.

    python scripts/make_demo_data.py --dir demo
    sumprobe run --config demo/config.json
"""

import argparse
import json
import random
from pathlib import Path

from sumprobe.corpus import (
    AnnotatedDocument,
    MentionSpan,
    NamedEntitySpan,
    Token,
    write_conll_corpus,
)
from sumprobe.generate import generate_corpus, make_scheme
from sumprobe.names import load_census, resolve_ambiguous
from sumprobe.seeding import derive_rng
from sumprobe.templates import build_template

# fixture names deliberately absent from the bundled census sample
LAST_NAMES = [
    "Ashford", "Brackley", "Cobbleton", "Dunmore", "Eastwick", "Fairholm",
    "Graystone", "Hollowell", "Ironfield", "Jessop", "Kestrel", "Lockridge",
    "Marwick", "Northgate", "Oakhurst", "Pemberly", "Ravenscroft",
    "Stonebridge", "Thornbury", "Underhill", "Vexley", "Wyndham", "Yarrow",
]
MALE_FIRST = [
    "Edmund", "Rupert", "Oswald", "Barnaby", "Clement", "Ambrose", "Leopold",
    "Thaddeus", "Percival", "Ignatius",
]
FEMALE_FIRST = [
    "Rosalind", "Winifred", "Harriet", "Clementine", "Beatrix", "Araminta",
    "Eulalia", "Theodora", "Philippa", "Gwendolyn",
]

FILLER_SENTENCES = [
    "The council approved the budget yesterday .",
    "Officials described the plan as ambitious .",
    "The market reacted calmly to the report .",
    "A new bridge will open next spring .",
]


class DocBuilder:
    def __init__(self, name: str, part: int = 0):
        self.name = name
        self.part = part
        self.tokens: list[Token] = []
        self.sentence = 0
        self.mentions: list[MentionSpan] = []
        self.entities: list[NamedEntitySpan] = []

    def add_sentence(self, words, pos, mentions=(), nes=()):
        """Indices in mentions/nes are sentence-local."""
        assert len(words) == len(pos)
        offset = len(self.tokens)
        for i, (w, p) in enumerate(zip(words, pos)):
            self.tokens.append(Token(offset + i, w, self.sentence, p))
        for start, end, chain in mentions:
            self.mentions.append(MentionSpan(offset + start, offset + end, chain))
        for start, end, label in nes:
            self.entities.append(NamedEntitySpan(offset + start, offset + end, label))
        self.sentence += 1

    def filler(self, text: str):
        words = text.split()
        self.add_sentence(words, ["XX"] * len(words))

    def build(self) -> AnnotatedDocument:
        chains: dict[str, list[MentionSpan]] = {}
        for m in sorted(self.mentions):
            chains.setdefault(m.chain, []).append(m)
        return AnnotatedDocument(
            id=f"{self.name}#{self.part}",
            tokens=self.tokens,
            chains=chains,
            entities=sorted(self.entities),
        )


def _titled_entity(b: DocBuilder, chain: str, gender: str, last: str):
    title = "Mr." if gender == "male" else "Ms."
    b.add_sentence(
        [title, last, "announced", "the", "results", "."],
        ["NNP", "NNP", "VBD", "DT", "NNS", "."],
        mentions=[(0, 1, chain)],
        nes=[(1, 1, "PERSON")],
    )
    subj, poss = ("He", "his") if gender == "male" else ("She", "her")
    b.add_sentence(
        [subj, "defended", poss, "record", "."],
        ["PRP", "VBD", "PRP$", "NN", "."],
        mentions=[(0, 0, chain), (2, 2, chain)],
    )


def _fullname_entity(b: DocBuilder, chain: str, gender: str, first: str, last: str):
    b.add_sentence(
        [first, last, "joined", "the", "board", "."],
        ["NNP", "NNP", "VBD", "DT", "NN", "."],
        mentions=[(0, 1, chain)],
        nes=[(0, 1, "PERSON")],
    )
    obj, refl = ("him", "himself") if gender == "male" else ("her", "herself")
    b.add_sentence(
        ["Colleagues", "praised", obj, "and", last, "thanked", refl, "."],
        ["NNS", "VBD", "PRP", "CC", "NNP", "VBD", "PRP", "."],
        mentions=[(2, 2, chain), (4, 4, chain), (6, 6, chain)],
        nes=[(4, 4, "PERSON")],
    )


def _bare_entity(b: DocBuilder, chain: str, last: str):
    b.add_sentence(
        [last, "declined", "to", "comment", "."],
        ["NNP", "VBD", "TO", "VB", "."],
        mentions=[(0, 0, chain)],
        nes=[(0, 0, "PERSON")],
    )


def _singleton_entity(b: DocBuilder, first: str, last: str):
    b.add_sentence(
        ["The", "report", "cited", first, last, "."],
        ["DT", "NN", "VBD", "NNP", "NNP", "."],
        nes=[(3, 4, "PERSON")],
    )


def make_fixture_doc(index: int, rng: random.Random) -> AnnotatedDocument:
    b = DocBuilder(f"fix_{index:04d}")
    lasts = rng.sample(LAST_NAMES, 6)
    male_firsts = rng.sample(MALE_FIRST, 4)
    female_firsts = rng.sample(FEMALE_FIRST, 4)
    n_entities = rng.choice([1, 2, 2, 3, 4])
    kinds = [
        rng.choice(["titled", "titled", "fullname", "fullname", "bare"])
        for _ in range(n_entities)
    ]
    if index % 10 == 9:
        kinds = ["bare"]  # ineligible document
    chain_no = 0
    used_first = iter(zip(male_firsts, female_firsts))
    for kind in kinds:
        gender = rng.choice(["male", "female"])
        last = lasts[chain_no]
        if kind == "titled":
            _titled_entity(b, str(chain_no), gender, last)
        elif kind == "fullname":
            males, females = next(used_first)
            first = males if gender == "male" else females
            _fullname_entity(b, str(chain_no), gender, first, last)
        else:
            _bare_entity(b, str(chain_no), last)
        chain_no += 1
        if rng.random() < 0.4:
            b.filler(rng.choice(FILLER_SENTENCES))
    if rng.random() < 0.25:
        _singleton_entity(b, rng.choice(MALE_FIRST), lasts[5])
    b.filler(rng.choice(FILLER_SENTENCES))
    return b.build()


def make_fixture_corpus(n_docs: int = 50, seed: int = 7) -> list[AnnotatedDocument]:
    rng = random.Random(seed)
    return [make_fixture_doc(i, rng) for i in range(n_docs)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--n-docs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--variants", type=int, default=4)
    parser.add_argument(
        "--relative",
        action="store_true",
        help="store config paths relative to the working directory",
    )
    args = parser.parse_args()

    def as_path(p: Path) -> str:
        import os

        return os.path.relpath(p) if args.relative else str(p)

    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    docs = make_fixture_corpus(args.n_docs, seed=11)
    corpus_path = out / "corpus.conll"
    with corpus_path.open("w", encoding="utf-8") as fh:
        write_conll_corpus(docs, fh)

    templates = [build_template(d) for d in docs]
    census = resolve_ambiguous(load_census())
    inputs = generate_corpus(
        templates, make_scheme("gender_local", variants=args.variants), args.seed, census=census
    )

    def write(system, summarize):
        path = out / f"summaries.{system}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for gi in inputs:
                rng = derive_rng(args.seed, "demo", system, gi.id)
                fh.write(
                    json.dumps({"input_id": gi.id, "system": system, "summary": summarize(gi, rng)})
                    + "\n"
                )
        return as_path(path)

    def faithful(gi, rng):
        return gi.text

    def skewed(gi, rng):
        kept = []
        for a in gi.assignments:
            rate = 0.9 if a.gender == "male" else 0.45
            if rng.random() < rate:
                kept.append(f"{a.first} {a.last} made the news .")
        if rng.random() < 0.25:
            kept.append("Observers credited Boris Yeltsin with the idea .")
        return " ".join(kept)

    config = {
        "corpus": as_path(corpus_path),
        "scheme": "gender_local",
        "seed": args.seed,
        "variants": args.variants,
        "replicates": 500,
        "summaries": {"faithful": write("faithful", faithful), "skewed": write("skewed", skewed)},
        "out_dir": as_path(out / "results"),
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    print(f"staged {len(inputs)} inputs for 2 systems")
    print(f"next: sumprobe run --config {config_path}")


if __name__ == "__main__":
    main()
