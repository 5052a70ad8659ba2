"""Lexical input-bias analysis and the baseline-summarizer simulation.

Contains the informed-Dirichlet log-odds contrast (z-scores per token)
between identifier-majority splits, the keyword topic heuristic, four
deliberately simple extractive baselines, and a synthetic topic/gender
correlated corpus generator that makes the simulation reproducible
without licensed news data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import AnnotatedDocument, Token
from .measures import clean_token, count_identifiers, word_list_score
from .names import load_topic_tokens, load_word_lists
from .seeding import derive_rng

# POS-ambiguous pronouns excluded from the lexical contrast
IGNORED_PRONOUNS = {"him", "her", "his", "hers"}

ALGORITHMS = ("random", "lead", "topic", "sexist")

_TOPIC_SENTENCES = {"family": 1, "unknown": 3, "sport": 6}


# --- corpus split and log-odds contrast --------------------------------------


def split_by_identifier_majority(
    docs: Sequence[Sequence[str]], word_lists: dict[str, list[str]]
) -> dict[str, list[Sequence[str]]]:
    """Partition documents by which group's identifiers are more frequent;
    exact ties (including all-zero) are excluded."""
    out: dict[str, list[Sequence[str]]] = {g: [] for g in word_lists}
    for tokens in docs:
        counts = count_identifiers(tokens, word_lists)
        best = max(counts.values())
        winners = [g for g, c in counts.items() if c == best]
        if best > 0 and len(winners) == 1:
            out[winners[0]].append(tokens)
    return out


@dataclass(frozen=True)
class FightinWordsResult:
    zscores: dict[str, float]  # > 0: associated with the first corpus
    tokens_a: int
    tokens_b: int
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
    counts: Counter = Counter()
    for tokens in docs:
        for token in tokens:
            t = clean_token(token)
            if not t or t in IGNORED_PRONOUNS:
                continue
            counts[marker.get(t, t)] += 1
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
        tokens_a=n_a,
        tokens_b=n_b,
        docs_a=len(docs_a),
        docs_b=len(docs_b),
    )


# --- topic heuristic and baselines --------------------------------------------


def classify_topic(
    tokens: Iterable[str], sport: Sequence[str], family: Sequence[str]
) -> str:
    counts = count_identifiers(tokens, {"sport": sport, "family": family})
    if counts["sport"] > counts["family"]:
        return "sport"
    if counts["family"] > counts["sport"]:
        return "family"
    return "unknown"


def _sentence_tokens(doc: AnnotatedDocument) -> list[list[str]]:
    return [[t.text for t in doc.tokens[s : e + 1]] for s, e in doc.sentence_spans()]


def baseline_summarize(
    sentences: Sequence[Sequence[str]],
    algorithm: str,
    rng,
    label: str,
    word_lists: dict[str, list[str]],
) -> list[int]:
    """Sentence indices (document order) selected by one baseline from a
    document's sentence tokens; `label` is the document's `classify_topic`."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown baseline {algorithm!r}")
    n = len(sentences)
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
    per_sentence = [
        count_identifiers(sent, word_lists)[target] for sent in sentences
    ]
    order = list(range(n))
    rng.shuffle(order)  # randomize ties before the stable sort
    order.sort(key=lambda i: -per_sentence[i])
    return sorted(order[: min(3, n)])


def simulation_experiment(
    docs: Sequence[AnnotatedDocument],
    word_lists: dict[str, list[str]] | None = None,
    seed: int = 0,
) -> dict:
    """Word-list inclusion of each baseline under uniform and adjusted
    (input-distribution) references, plus corpus composition stats."""
    if word_lists is None:
        word_lists = load_word_lists()
    topic_tokens = load_topic_tokens()
    payloads: dict[str, list] = {algorithm: [] for algorithm in ALGORITHMS}
    by_topic: dict[str, Counter] = {}
    for doc in docs:
        tokens = doc.token_texts()
        counts = count_identifiers(tokens, word_lists)
        label = classify_topic(tokens, topic_tokens["sport"], topic_tokens["family"])
        c = by_topic.setdefault(label, Counter())
        c["docs"] += 1
        c.update(counts)
        sentences = _sentence_tokens(doc)
        for algorithm in ALGORITHMS:
            rng = derive_rng(seed, "baseline", algorithm, doc.id)
            picked = baseline_summarize(sentences, algorithm, rng, label, word_lists)
            summary = [t for i in picked for t in sentences[i]]
            payloads[algorithm].append((count_identifiers(summary, word_lists), counts))
    stats: dict[str, dict] = {}
    for label, c in sorted(by_topic.items()):
        idents = c["male"] + c["female"]
        stats[label] = {
            "docs": c["docs"],
            "female_share": (c["female"] / idents) if idents else None,
        }

    scores = {
        algorithm: {
            reference: word_list_score(payloads[algorithm], reference)
            for reference in ("uniform", "adjusted")
        }
        for algorithm in ALGORITHMS
    }
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
        tokens: list[Token] = []
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
            for w in words:
                tokens.append(Token(len(tokens), w, s, ""))
        docs.append(
            AnnotatedDocument(id=f"synth_{i:05d}#0", tokens=tokens, chains={}, entities=[])
        )
    return docs
