import hashlib
import math
import random
from collections import Counter

import pytest

from sumprobe.corpus import AnnotatedDocument, Token, write_jsonl
from sumprobe.input_bias import (
    SyntheticCorpusConfig,
    baseline_summarize,
    classify_topic,
    fightin_words,
    make_synthetic_corpus,
    simulation_experiment,
    split_by_identifier_majority,
)
from sumprobe.measures import count_identifiers
from sumprobe.names import load_topic_tokens
from sumprobe.seeding import derive_rng

WL = {"male": ["he", "him", "man"], "female": ["she", "her", "woman"]}


# --- split ---------------------------------------------------------------------


def test_split_majority():
    docs = [
        ["she", "she", "she", "he"],
        ["he", "him", "plan"],
        ["plan", "vote"],
        ["he", "she"],
    ]
    split = split_by_identifier_majority(docs, WL)
    assert split["female"] == [docs[0]]
    assert split["male"] == [docs[1]]


def test_split_excludes_all_ties():
    split = split_by_identifier_majority([["plan"], ["he", "she"]], WL)
    assert split == {"male": [], "female": []}


# --- log-odds contrast ------------------------------------------------------------


def brute_z(docs_a, docs_b, word, alpha, marker):
    def count(docs):
        c = Counter()
        for tokens in docs:
            for t in tokens:
                t = t.lower().strip(".,")
                if t in ("him", "her", "his", "hers") or not t:
                    continue
                c[marker.get(t, t)] += 1
        return c

    ca, cb = count(docs_a), count(docs_b)
    vocab = set(ca) | set(cb)
    a0 = alpha * len(vocab)
    na, nb = sum(ca.values()), sum(cb.values())
    delta = math.log((ca[word] + alpha) / (na + a0 - ca[word] - alpha)) - math.log(
        (cb[word] + alpha) / (nb + a0 - cb[word] - alpha)
    )
    return delta / math.sqrt(1 / (ca[word] + alpha) + 1 / (cb[word] + alpha))


TOY_A = [["game", "game", "win", "plan", "he"], ["game", "city", "vote"]]
TOY_B = [["family", "baby", "plan", "she"], ["vote", "city", "baby"]]


def test_fightin_words_matches_direct_formula():
    result = fightin_words(TOY_A, TOY_B, pairs=[("he", "she")])
    for word in ("game", "baby", "plan", "he/she"):
        expected = brute_z(TOY_A, TOY_B, word, 0.01, {"he": "he/she", "she": "he/she"})
        assert result.zscores[word] == pytest.approx(expected, abs=1e-9)


def test_fightin_words_one_sided_token_direction():
    result = fightin_words(TOY_A, TOY_B, pairs=[])
    assert result.zscores["game"] > 0
    assert result.zscores["baby"] < 0


def test_fightin_words_balanced_token_near_zero():
    docs_a = [["plan", "vote", "city"] * 4]
    docs_b = [["plan", "vote", "city"] * 4]
    result = fightin_words(docs_a, docs_b)
    assert result.zscores["plan"] == pytest.approx(0.0, abs=1e-9)


def test_fightin_words_swap_negates():
    ab = fightin_words(TOY_A, TOY_B, pairs=[("he", "she")])
    ba = fightin_words(TOY_B, TOY_A, pairs=[("he", "she")])
    for word, z in ab.zscores.items():
        assert ba.zscores[word] == pytest.approx(-z, abs=1e-12)


def test_paired_tokens_fold_into_single_marker():
    docs_a = [["father", "father", "game"]]
    docs_b = [["mother", "baby"]]
    result = fightin_words(docs_a, docs_b, pairs=[("father", "mother")])
    assert "father" not in result.zscores
    assert "mother" not in result.zscores
    assert "father/mother" in result.zscores


def test_ambiguous_pronouns_ignored():
    result = fightin_words([["him", "his", "game"]], [["her", "hers", "baby"]])
    for word in ("him", "his", "her", "hers"):
        assert word not in result.zscores


# --- topic heuristic ---------------------------------------------------------------


SPORT = ["league", "season", "club", "game", "win", "team", "shot"]
FAMILY = ["family", "husband", "wife", "father", "mother", "children", "boys", "girls", "baby"]


def test_topic_majority():
    assert classify_topic(["game", "team", "win", "family"], SPORT, FAMILY) == "sport"
    assert classify_topic(["family", "baby"], SPORT, FAMILY) == "family"


def test_topic_ties_unknown():
    assert classify_topic(["plan"], SPORT, FAMILY) == "unknown"
    assert classify_topic(["game", "family"], SPORT, FAMILY) == "unknown"
    assert classify_topic(["game", "game", "family", "baby"], SPORT, FAMILY) == "unknown"


def test_topic_depends_only_on_token_multiset():
    a = classify_topic(["game", "plan", "team"], SPORT, FAMILY)
    b = classify_topic(["team", "game", "plan"], SPORT, FAMILY)
    assert a == b == "sport"


# --- baselines -----------------------------------------------------------------------


def doc_with_sentences(sentences, doc_id="bl_0#0"):
    tokens = []
    for s, words in enumerate(sentences):
        for w in words:
            tokens.append(Token(len(tokens), w, s, ""))
    return AnnotatedDocument(doc_id, tokens, {}, [])


TOPICS = load_topic_tokens()


def summarize(sentences, algorithm, rng):
    """One baseline's selection, given the topic label `simulation_experiment`
    computes for the document."""
    label = classify_topic([w for s in sentences for w in s], TOPICS["sport"], TOPICS["family"])
    return baseline_summarize([count_identifiers(s, WL) for s in sentences], algorithm, rng, label)


def test_lead_takes_first_three():
    assert summarize([["a"], ["b"], ["c"], ["d"], ["e"]], "lead", derive_rng(0)) == [0, 1, 2]


def test_lead_short_document():
    assert summarize([["a"], ["b"]], "lead", derive_rng(0)) == [0, 1]


def test_random_three_distinct():
    picked = summarize([["w"] for _ in range(10)], "random", derive_rng(1))
    assert len(picked) == 3 and len(set(picked)) == 3
    assert picked == sorted(picked)


def test_topic_sentence_budgets():
    sport_doc = [["game", "team"]] + [["x"]] * 9
    family_doc = [["family", "baby"]] + [["x"]] * 9
    plain_doc = [["x"]] * 9
    assert len(summarize(sport_doc, "topic", derive_rng(2))) == 6
    assert len(summarize(family_doc, "topic", derive_rng(2))) == 1
    assert len(summarize(plain_doc, "topic", derive_rng(2))) == 3


def test_sexist_maximizes_target_identifiers():
    # sentence 4 holds all the male identifiers of this sport document
    sentences = [["game", "plan"], ["vote"], ["city"], ["plan"], ["he", "him", "man", "game"]]
    for seed in range(5):
        picked = summarize(sentences, "sexist", derive_rng(seed))
        assert 4 in picked
        assert len(picked) == 3


def test_sexist_family_targets_female():
    sentences = [["family", "baby"], ["she", "her", "woman"], ["he", "him"], ["plan"]]
    picked = summarize(sentences, "sexist", derive_rng(3))
    assert 1 in picked


def test_sexist_unknown_topic_acts_randomly():
    sentences = [["plan"], ["vote"], ["city"], ["market"], ["he", "she"]]
    seen = set()
    for seed in range(30):
        seen.add(tuple(summarize(sentences, "sexist", derive_rng(seed))))
    assert len(seen) > 3


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        summarize([["a"]], "fancy", derive_rng(0))


# --- simulation ----------------------------------------------------------------------


def test_simulation_identity_corpus_lead_adjusted_zero(word_lists):
    # one-sentence documents: lead output == input, adjusted score exactly 0
    rng = random.Random(3)
    docs = []
    for i in range(40):
        words = [rng.choice(["he", "she", "plan", "vote", "game"]) for _ in range(8)]
        docs.append(doc_with_sentences([words], doc_id=f"one_{i}#0"))
    result = simulation_experiment(docs, word_lists, seed=0)
    assert result["scores"]["lead"]["adjusted"] == pytest.approx(0.0)


def test_simulation_sexist_skews_uncorrelated_corpus(word_lists):
    # gender balanced and independent of topic, but topics unevenly sized:
    # per-topic maximization cannot cancel out, so the adjusted score moves
    config = SyntheticCorpusConfig(
        n_docs=800,
        topic_shares=(0.5, 0.25, 0.25),
        male_rate={"sport": 0.5, "family": 0.5, "neutral": 0.5},
    )
    docs = make_synthetic_corpus(config, seed=5)
    result = simulation_experiment(docs, word_lists, seed=1)
    assert result["scores"]["sexist"]["adjusted"] > 0.04
    assert result["scores"]["random"]["adjusted"] < 0.02
    assert result["scores"]["lead"]["adjusted"] < 0.02


def test_synthetic_corpus_shape_and_determinism():
    config = SyntheticCorpusConfig(n_docs=30)
    docs = make_synthetic_corpus(config, seed=9)
    again = make_synthetic_corpus(config, seed=9)
    assert [d.id for d in docs] == [f"synth_{i:05d}#0" for i in range(30)]
    assert docs == again
    for doc in docs:
        assert 6 <= len(set(doc.sentences)) <= 12
        assert doc.tokens[-1] == "."


def test_synthetic_corpus_bytes_are_pinned(tmp_path):
    """scripts/make_synthetic_corpus.py writes exactly this generator's
    output; the digest was taken before documents held token columns."""
    path = tmp_path / "synth.jsonl"
    write_jsonl(make_synthetic_corpus(SyntheticCorpusConfig(n_docs=20), seed=3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3da4b50e8a8790ce4f33751aea8d2d79af54d64ab90589e67648ff4c38fe8d3d")


def test_synthetic_corpus_plants_correlation(word_lists):
    topics = load_topic_tokens()
    docs = make_synthetic_corpus(SyntheticCorpusConfig(n_docs=600), seed=2)
    shares = {}
    for label in ("sport", "family"):
        members = [
            d.tokens
            for d in docs
            if classify_topic(d.tokens, topics["sport"], topics["family"]) == label
        ]
        counts = Counter()
        for tokens in members:
            from sumprobe.measures import count_identifiers

            counts.update(count_identifiers(tokens, word_lists))
        shares[label] = counts["male"] / (counts["male"] + counts["female"])
    assert shares["sport"] > 0.7
    assert shares["family"] < 0.45
