"""Independent oracles of the four measures and of the per-token work
beneath them, which the tests compare the package against.

brute_*                      each measure from its definition, over raw
                             summaries, group tables, verdicts or points;
                             agreement is checked within a tolerance
reference_*                  each measure over a list of per-record payloads,
                             summed in Python and scored with dict
                             distributions in the order of float operations
                             that the row scorers keep, so the statistics
                             bootstrap must equal them bit for bit
pairwise_distinguishability  per-original (n, wins) of the pairwise cosine
                             loop, which the Gram-matrix kernel must equal
                             exactly, ties included
loop_*                       tokenization, entity detection and
                             neutralization redoing every token's work at
                             every occurrence, which the package's
                             once-per-distinct-token versions must equal
token_*                      a document's JSON row and sentences read off a
                             list of `corpus.Token`s, as the package did
                             before documents held token columns
classify_topic               a document's topic label counted over its whole
                             token list, as the simulation did before one
                             pass gave each sentence's counts and the label
"""

import math
import string
from collections import Counter
from itertools import groupby
from operator import attrgetter

from sumprobe.measures import FIRST_MARKER, LAST_MARKER, cosine_counts, cosine_dense
from sumprobe.summaries import SummaryEntity
from sumprobe.templates import TITLE_SET
from sumprobe.words import (NEUTRAL_OBJECT, NEUTRAL_REFLEXIVE, NEUTRAL_SUBJECT, clean_token,
                            count_identifiers)

# --- from the definitions ------------------------------------------------------


def brute_word_list(summaries, word_lists, p_ref):
    per_group = {g: 0 for g in word_lists}
    for tokens in summaries:
        for raw in tokens:
            t = raw.strip("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~").lower()
            for g, words in word_lists.items():
                if t in list(words):
                    per_group[g] += 1
    total = sum(per_group.values())
    if total == 0:
        return None
    acc = 0.0
    for g in set(per_group) | set(p_ref):
        acc += abs(per_group.get(g, 0) / total - p_ref.get(g, 0.0))
    return acc / 2.0


def brute_inclusion(table, smoothing=0.5):
    odds = []
    for g in table:
        included, total = table[g]
        if total <= 0:
            continue
        p = (included + smoothing) / (total + 2 * smoothing)
        odds.append(p / (1 - p))
    if len(odds) < 2:
        return None
    best = None
    for x in odds:
        for y in odds:
            value = x / y - 1
            best = value if best is None else max(best, value)
    return best


def brute_hallucination(verdicts, groups=("male", "female")):
    kept = [v for v in verdicts if v in groups]
    if not kept:
        return None
    acc = 0.0
    for g in groups:
        acc += abs(kept.count(g) / len(kept) - 1 / len(groups))
    return acc / 2.0


def brute_distinguishability(points):
    def cos(a, b):
        keys = set(a) | set(b)
        dot = sum(a.get(k, 0) * b.get(k, 0) for k in keys)
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        if na == 0 or nb == 0:
            return 0.0
        return dot / (na * nb)

    groups = {}
    for p in points:
        groups.setdefault(p.original_id, []).append(p)
    wins = total = 0
    for members in groups.values():
        sizes = Counter(m.group for m in members)
        if len(sizes) < 2 or min(sizes.values()) < 2:
            continue
        for i, p in enumerate(members):
            same = [
                cos(p.vector, q.vector)
                for j, q in enumerate(members)
                if j != i and q.group == p.group
            ]
            other = [
                cos(p.vector, q.vector)
                for j, q in enumerate(members)
                if q.group != p.group
            ]
            total += 1
            if sum(same) / len(same) > sum(other) / len(other):
                wins += 1
    if total == 0:
        return None
    return 2 * wins / total - 1


# --- bit for bit over payload lists ----------------------------------------------
#
# Counters and group tables summed in Python and scored through dict
# distributions; a total variation distance adds its terms in sorted key
# order, as the scorers add columns, so set iteration order cannot move it.


def _tvd(p, q):
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _normalize(counts):
    total = sum(counts.values())
    if total <= 0:
        return None
    dist = {k: v / total for k, v in counts.items()}
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    return dist


def _uniform(groups):
    groups = list(groups)
    return {g: 1.0 / len(groups) for g in groups}


def reference_word_list(payloads, reference):
    obs, ref = Counter(), Counter()
    for summary_counts, input_counts in payloads:
        obs.update(summary_counts)
        ref.update(input_counts)
    p_obs = _normalize(obs)
    if p_obs is None:
        return None
    p_ref = _uniform(p_obs) if reference == "uniform" else _normalize(ref)
    return None if p_ref is None else _tvd(p_obs, p_ref)


def reference_inclusion(payloads, smoothing=0.5):
    table = {}
    for payload in payloads:
        for group, (inc, tot) in payload.items():
            cell = table.setdefault(group, [0, 0])
            cell[0] += inc
            cell[1] += tot
    odds = [(inc + smoothing) / ((tot - inc) + smoothing)
            for inc, tot in table.values() if tot > 0]
    return max(odds) / min(odds) - 1.0 if len(odds) >= 2 else None


def reference_hallucination(payloads):
    total = Counter()
    for genders in payloads:
        total.update(genders)
    p_obs = _normalize({g: total[g] for g in ("male", "female")})
    return None if p_obs is None else _tvd(p_obs, _uniform(("male", "female")))


def reference_distinguishability(payloads):
    n = sum(n for n, _ in payloads)
    return None if n == 0 else 2.0 * sum(w for _, w in payloads) / n - 1.0


# --- the distinguishability kernel ------------------------------------------------


def _left_sum(values):
    """`sum` of floats as CPython before 3.12 adds them: left to right from 0."""
    total = 0
    for value in values:
        total = total + value
    return total


def pairwise_distinguishability(points):
    """The scalar definition: every cosine computed twice, pair by pair, and
    each summary's similarity lists averaged."""
    by_original = {}
    for p in points:
        by_original.setdefault(p.original_id, []).append(p)
    stats, diagnostics = {}, []
    for original in sorted(by_original):
        group_points = by_original[original]
        sizes = Counter(p.group for p in group_points)
        if len(sizes) < 2 or min(sizes.values()) < 2:
            diagnostics.append(
                f"original {original}: needs >=2 summaries per group, got {dict(sizes)}; skipped"
            )
            continue
        wins = 0
        for i, p in enumerate(group_points):
            same, other = [], []
            for j, q in enumerate(group_points):
                if i == j:
                    continue
                cosine = cosine_counts if isinstance(p.vector, Counter) else cosine_dense
                (same if q.group == p.group else other).append(cosine(p.vector, q.vector))
            if _left_sum(same) / len(same) > _left_sum(other) / len(other):
                wins += 1
        stats[original] = (len(group_points), wins)
    return stats, diagnostics


# --- per-occurrence token work -----------------------------------------------------

_PUNCT = set(string.punctuation)
_SENTENCE_ENDERS = set(".!?")


def loop_tokenize_summary(text):
    out = []
    for raw in text.split():
        if raw[0] not in _PUNCT and raw[-1] not in _PUNCT:
            out.append(raw)
            continue
        tok = raw.lstrip(string.punctuation)
        if not tok:
            if _SENTENCE_ENDERS & set(raw):
                out.append(".")
            continue
        trailing = ""
        while tok and tok[-1] in _PUNCT and tok.lower() not in TITLE_SET:
            trailing = tok[-1] + trailing
            tok = tok[:-1]
        if tok:
            out.append(tok)
        if tok.lower() not in TITLE_SET and _SENTENCE_ENDERS & set(trailing):
            out.append(".")
    return out


def loop_detect_entities(tokens, lexicon):
    entities = []
    run_start = None
    for i, token in enumerate([*tokens, ""]):  # the "" closes a final run
        if token[:1].isupper():
            if run_start is None:
                run_start = i
        elif run_start is not None:
            run = tokens[run_start:i]
            lowered = list(map(str.lower, run))
            if not (lexicon.isdisjoint(lowered) and TITLE_SET.isdisjoint(lowered)):
                entities.append(SummaryEntity(run_start, i - 1, tuple(run)))
            run_start = None
    return entities


def loop_neutralize_tokens(tokens, first_names, last_names):
    out = []
    for token in tokens:
        t = clean_token(token)
        if not t:
            continue
        if t in NEUTRAL_SUBJECT:
            out.append("they")
        elif t in NEUTRAL_OBJECT:
            out.append("them")
        elif t in NEUTRAL_REFLEXIVE:
            out.append("themself")
        elif t in first_names:
            out.append(FIRST_MARKER)
        elif t in last_names:
            out.append(LAST_MARKER)
        else:
            out.append(t)
    return out


# --- documents as per-token objects --------------------------------------------------


def token_to_json(doc_id, tokens, chains, entities):
    """The `ingest` row of a document given as `Token`s, chains and entities."""
    return {
        "id": doc_id,
        "tokens": [t.text for t in tokens],
        "sentences": [t.sentence for t in tokens],
        "pos": [t.pos for t in tokens],
        "chains": {c: [[m.start, m.end] for m in spans] for c, spans in chains.items()},
        "entities": [[e.start, e.end, e.label] for e in entities],
    }


def token_sentences(tokens):
    """Each sentence's token texts, from a list of `Token`s."""
    return [[t.text for t in sentence] for _, sentence in groupby(tokens, attrgetter("sentence"))]


def classify_topic(tokens, sport, family):
    """"sport" or "family" where that keyword list has more whole-token
    occurrences in `tokens` than the other, else "unknown"."""
    counts = count_identifiers(tokens, {"sport": sport, "family": family})
    if counts["sport"] > counts["family"]:
        return "sport"
    if counts["family"] > counts["sport"]:
        return "family"
    return "unknown"
