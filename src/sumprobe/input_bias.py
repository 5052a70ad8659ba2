"""Lexical input-bias analysis and the baseline-summarizer simulation.

Contains the informed-Dirichlet log-odds contrast (z-scores per token)
between identifier-majority splits, the keyword topic heuristic, four
deliberately simple extractive baselines, and a synthetic topic/gender
correlated corpus generator that makes the simulation reproducible
without licensed news data.

The simulation cleans each document's tokens once, and one pass over them
finds every identifier and topic keyword: each sentence's identifier
counts and the document's topic label come from those alone. Every
baseline summary is whole sentences, so a summary's counts are the sum of
its sentences' rows, and each baseline's score is that of one summed
statistics row, which `words.word_list_score` computes without numpy: no
part of this module loads numpy or `measures`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, groupby
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .corpus import AnnotatedDocument
from .names import load_topic_tokens, load_word_lists
from .seeding import derive_rng
from .words import (NEUTRAL_OBJECT, clean_token, count_identifiers, word_list_score,
                    word_list_stats, word_sets)

# POS-ambiguous pronouns excluded from the lexical contrast
IGNORED_PRONOUNS = NEUTRAL_OBJECT

ALGORITHMS = ("random", "lead", "topic", "sexist")

_TOPIC_SENTENCES = {"family": 1, "unknown": 3, "sport": 6}


# --- corpus split and log-odds contrast --------------------------------------


def split_by_identifier_majority(
    docs: Sequence[Sequence[str]], word_lists: dict[str, list[str]]
) -> dict[str, list[Sequence[str]]]:
    """Partition documents by which group's identifiers are more frequent;
    exact ties (including all-zero) are excluded."""
    out: dict[str, list[Sequence[str]]] = {g: [] for g in word_lists}
    sets = word_sets(word_lists)
    for tokens in docs:
        counts = count_identifiers(tokens, sets)
        best = max(counts.values())
        winners = [g for g, c in counts.items() if c == best]
        if best > 0 and len(winners) == 1:
            out[winners[0]].append(tokens)
    return out


@dataclass(frozen=True)
class FightinWordsResult:
    zscores: dict[str, float]  # > 0: associated with the first corpus
    docs_a: int
    docs_b: int

    def top(self, direction: str, k: int = 10) -> list[tuple[str, float]]:
        reverse = direction == "a"
        items = sorted(
            self.zscores.items(),
            key=lambda kv: (-kv[1], kv[0]) if reverse else (kv[1], kv[0]),
        )
        return [(t, z if reverse else -z) for t, z in items[:k]]


def _contrast_tokens(
    docs: Iterable[Sequence[str]], marker: dict[str, str]
) -> tuple[Counter, int]:
    """Cleaned-token counts of `docs`, paired identifiers under their marker.
    Raw tokens are counted first and each distinct one cleaned once, so a
    contrast of the documents `split_by_identifier_majority` cleaned to
    count identifiers cleans no occurrence a second time."""
    counts: Counter = Counter()
    for raw, n in Counter(chain.from_iterable(docs)).items():
        t = clean_token(raw)
        if t and t not in IGNORED_PRONOUNS:
            counts[marker.get(t, t)] += n
    return counts, sum(counts.values())


def fightin_words(
    docs_a: Sequence[Sequence[str]],
    docs_b: Sequence[Sequence[str]],
    pairs: Sequence[tuple[str, str]] = (),
    alpha: float = 0.01,
) -> FightinWordsResult:
    """Per-token log-odds z-scores between two corpora under an
    uninformative Dirichlet prior.

    Paired identifier variants (e.g. father/mother) are folded into one
    shared marker token before counting, so the contrast compares the
    male variant's frequency in corpus A against the female variant's in
    corpus B rather than each word against its own counterpart.
    """
    marker = {}
    for male_word, female_word in pairs:
        name = f"{male_word}/{female_word}"
        marker[male_word] = name
        marker[female_word] = name
    counts_a, n_a = _contrast_tokens(docs_a, marker)
    counts_b, n_b = _contrast_tokens(docs_b, marker)
    vocab = sorted(set(counts_a) | set(counts_b))
    alpha0 = alpha * len(vocab)
    zscores: dict[str, float] = {}
    for word in vocab:
        ya = counts_a[word]
        yb = counts_b[word]
        delta = (
            math.log((ya + alpha) / (n_a + alpha0 - ya - alpha))
            - math.log((yb + alpha) / (n_b + alpha0 - yb - alpha))
        )
        sigma2 = 1.0 / (ya + alpha) + 1.0 / (yb + alpha)
        zscores[word] = delta / math.sqrt(sigma2)
    return FightinWordsResult(
        zscores=zscores,
        docs_a=len(docs_a),
        docs_b=len(docs_b),
    )


# --- topic heuristic and baselines --------------------------------------------


def _sentence_ends(sentences: Sequence[int]) -> list[int]:
    """The end of each run of equal sentence ids: sentence k of a document
    is its tokens from the end of run k - 1 up to the end of run k."""
    return list(accumulate(len(list(run)) for _, run in groupby(sentences)))


WordIndex = dict[str, tuple[tuple[str, ...], int]]


def word_index(groups: Mapping[str, Collection[str]], sport: Collection[str],
               family: Collection[str]) -> WordIndex:
    """Each identifier and topic keyword -> the groups whose word list holds
    it, and its topic vote: 1 for a sport keyword, -1 for a family one, 0
    for both or neither."""
    return {word: (tuple(g for g, words in groups.items() if word in words),
                   (word in sport) - (word in family))
            for word in {*chain.from_iterable(groups.values()), *sport, *family}}


def document_counts(
    doc: AnnotatedDocument, index: WordIndex, groups: Iterable[str]
) -> tuple[list[dict[str, int]], str]:
    """Each sentence's identifier count per group, as `count_identifiers`
    gives it, and the document's topic label: "sport" or "family" where that
    keyword list has more whole-token occurrences than the other, else
    "unknown". One pass over the cleaned tokens finds every indexed word,
    and both come from those words alone."""
    cleaned = list(map(clean_token, doc.tokens))
    ends = _sentence_ends(doc.sentences)
    zero = dict.fromkeys(groups, 0)
    rows = [zero.copy() for _ in ends]
    lead = 0
    for i in compress(range(len(cleaned)), map(index.__contains__, cleaned)):
        found, vote = index[cleaned[i]]
        lead += vote
        row = rows[bisect_right(ends, i)]
        for group in found:
            row[group] += 1
    return rows, "sport" if lead > 0 else "family" if lead < 0 else "unknown"


def baseline_summarize(
    sentence_counts: Sequence[dict[str, int]],
    algorithm: str,
    rng,
    label: str,
) -> list[int]:
    """Sentence indices (document order) selected by one baseline, given the
    identifier counts of each of a document's sentences and the document's
    topic label, both as `document_counts` gives them."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown baseline {algorithm!r}")
    n = len(sentence_counts)
    if algorithm == "lead":
        return list(range(min(3, n)))
    if algorithm == "random":
        return sorted(rng.sample(range(n), min(3, n)))
    if algorithm == "topic":
        want = _TOPIC_SENTENCES[label]
        return sorted(rng.sample(range(n), min(want, n)))

    # sexist: maximize one gender's identifiers depending on topic
    if label == "unknown":
        return sorted(rng.sample(range(n), min(3, n)))
    target = "male" if label == "sport" else "female"
    order = list(range(n))
    rng.shuffle(order)  # randomize ties before the stable sort
    order.sort(key=lambda i: -sentence_counts[i][target])
    return sorted(order[: min(3, n)])


def simulation_experiment(
    docs: Sequence[AnnotatedDocument],
    word_lists: dict[str, list[str]],
    seed: int = 0,
) -> dict:
    """Word-list inclusion of each baseline under uniform and adjusted
    (input-distribution) references, plus corpus composition stats.

    Each document's sentence rows and topic label come from
    `document_counts`, and the sexist baseline ranks sentences by those
    rows. A summary's counts are the sum of its picked rows. Every baseline
    summarizes every document, so each one's `word_list_stats` row, summed
    over the documents, is its summaries' counts then the corpus's, and
    `word_list_score` scores that one row."""
    topics = load_topic_tokens()
    index = word_index(word_sets(word_lists), topics["sport"], topics["family"])
    groups = sorted(word_lists)
    summaries = {algorithm: dict.fromkeys(groups, 0) for algorithm in ALGORITHMS}
    by_topic: dict[str, Counter] = {}
    for doc in docs:
        rows, label = document_counts(doc, index, groups)
        c = by_topic.setdefault(label, Counter())
        c["docs"] += 1
        c.update({g: sum(map(itemgetter(g), rows)) for g in groups})
        for algorithm in ALGORITHMS:
            # lead draws nothing, so it gets no rng
            rng = None if algorithm == "lead" else derive_rng(seed, "baseline", algorithm, doc.id)
            summary = summaries[algorithm]
            for i in baseline_summarize(rows, algorithm, rng, label):
                for g, n in rows[i].items():
                    summary[g] += n
    stats: dict[str, dict] = {}
    for label, c in sorted(by_topic.items()):
        idents = c["male"] + c["female"]
        stats[label] = {
            "docs": c["docs"],
            "female_share": (c["female"] / idents) if idents else None,
        }

    corpus = {g: sum(c[g] for c in by_topic.values()) for g in groups}
    scores: dict[str, dict] = {}
    for algorithm in ALGORITHMS:
        summed = word_list_stats(summaries[algorithm], corpus, groups)
        scores[algorithm] = {reference: word_list_score(summed, reference)
                             for reference in ("uniform", "adjusted")}
    return {"stats": stats, "scores": scores}


# --- synthetic topic/gender corpus ---------------------------------------------


_FILLER = (
    "the a an officials said yesterday city report market plan new old people "
    "country government week street house music travel weather food school work "
    "road light water night morning paper letter phone idea question answer "
    "story number group part time day council budget committee minister vote "
    "study record price growth building bridge river region museum festival"
).split()


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    n_docs: int = 5000
    topic_shares: tuple[float, float, float] = (0.4, 0.4, 0.2)  # sport, family, neutral
    male_rate: dict[str, float] = field(
        default_factory=lambda: {"sport": 0.85, "family": 0.3, "neutral": 0.5}
    )
    sentences: tuple[int, int] = (6, 12)
    sentence_length: tuple[int, int] = (8, 14)
    topic_token_prob: float = 0.6
    identifier_prob: float = 0.5


def make_synthetic_corpus(config: SyntheticCorpusConfig, seed: int = 0) -> list[AnnotatedDocument]:
    """Documents with a planted topic/identifier-gender correlation.

    Identifier tokens are drawn from the word lists minus any overlap with
    the topic keyword lists, so planted topic signal and planted gender
    signal stay independent knobs.
    """
    word_lists = load_word_lists()
    topic_tokens = load_topic_tokens()
    topic_vocab = {t for words in topic_tokens.values() for t in words}
    ident_pool = {
        g: sorted(set(words) - topic_vocab) for g, words in word_lists.items()
    }
    topics = ("sport", "family", "neutral")
    docs: list[AnnotatedDocument] = []
    for i in range(config.n_docs):
        rng = derive_rng(seed, "synthdoc", i)
        topic = rng.choices(topics, weights=config.topic_shares, k=1)[0]
        tokens: list[str] = []
        sentences: list[int] = []
        n_sentences = rng.randint(*config.sentences)
        for s in range(n_sentences):
            words: list[str] = []
            length = rng.randint(*config.sentence_length)
            if topic != "neutral" and rng.random() < config.topic_token_prob:
                words.extend(
                    rng.choices(topic_tokens[topic], k=rng.randint(1, 2))
                )
            if rng.random() < config.identifier_prob:
                gender = (
                    "male" if rng.random() < config.male_rate[topic] else "female"
                )
                words.extend(rng.choices(ident_pool[gender], k=rng.randint(1, 2)))
            while len(words) < length:
                words.append(rng.choice(_FILLER))
            rng.shuffle(words)
            words.append(".")
            tokens += words
            sentences += [s] * len(words)
        docs.append(AnnotatedDocument.from_columns(f"synth_{i:05d}#0", tokens, sentences,
                                                   [""] * len(tokens), {}, []))
    return docs
