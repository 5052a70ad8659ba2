import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    distinguishability_point,
    hallucination_point,
    inclusion_point,
    inclusion_stats_of,
    lexicons,
    point,
    raw_tokens,
    word_list_point,
    word_list_stats_of,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_distinguishability,
    brute_hallucination,
    brute_inclusion,
    brute_word_list,
    loop_neutralize_tokens,
    pairwise_distinguishability,
    reference_distinguishability,
    reference_hallucination,
    reference_inclusion,
    reference_word_list,
)

from sumprobe.measures import (
    BootstrapRecord,
    SummaryPoint,
    bootstrap,
    cosine_counts,
    cosine_dense,
    count_identifiers,
    distinguishability,
    distinguishability_score,
    entity_inclusion_score,
    hallucination_bias_score,
    hallucination_stats,
    neutralizer,
    score_with_ci,
)
from sumprobe.seeding import derive_rng, derive_seed, seed_stream
from sumprobe.words import word_list_score

WL = {"male": ["he", "him", "man"], "female": ["she", "her", "woman"]}


def summary_payloads(summaries):
    """Word-list payloads with the summaries' counts and no input counts."""
    return [(count_identifiers(tokens, WL), Counter()) for tokens in summaries]


# --- tvd / word lists ---------------------------------------------------------


def test_tvd_identical():
    # summary and input identifier counts 1:1
    assert word_list_score([1, 1, 1, 1], "adjusted") == 0.0


def test_tvd_point_mass_vs_uniform():
    assert hallucination_bias_score([1, 0]) == pytest.approx(0.5)


def test_tvd_independent_of_hash_seed():
    # three groups: the float sum must not follow dict or set iteration
    # order, which changes with PYTHONHASHSEED (seeds 0, 1 and 2 order
    # {a, b, c} differently); the word lists are keyed in that order, as
    # count_identifiers returns its counts
    code = (
        "import random\n"
        "from sumprobe.words import count_identifiers, word_list_score, word_list_stats\n"
        "vocab = [g + str(k) for g in 'abc' for k in range(3)]\n"
        "lists = {g: {w for w in vocab if w[0] == g} for g in set('abc')}\n"
        "rng = random.Random(0)\n"
        "for _ in range(30):\n"
        "    rows = [word_list_stats(*(count_identifiers(rng.choices(vocab, k=9), lists)\n"
        "                              for _ in 'si'), sorted(lists)) for _ in range(3)]\n"
        "    stats = [sum(column) for column in zip(*rows)]\n"
        "    for ref in ('adjusted', 'uniform'):\n"
        "        print(repr(word_list_score(stats, ref)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_word_list_zero_when_ref_equals_obs():
    summaries = [["he", "spoke"], ["she", "agreed", "she", "did"]]
    payloads = [(count_identifiers(t, WL), count_identifiers(t, WL)) for t in summaries]
    assert word_list_point(payloads, "adjusted") == 0.0


def test_word_list_counts_case_insensitive_with_punct():
    counts = count_identifiers(["He", "saw", "her,", "quickly"], WL)
    assert counts == Counter({"male": 1, "female": 1})


def test_word_list_no_identifiers_is_no_data():
    assert word_list_point(summary_payloads([["nothing", "here"]]), "uniform") is None


def test_word_list_occurrence_counting():
    # occurrences, not per-summary presence: "he he he" counts three times
    summaries = [["he", "he", "he"], ["she"]]
    score = word_list_point(summary_payloads(summaries), "uniform")
    assert score == pytest.approx(abs(0.75 - 0.5))


# --- entity inclusion -----------------------------------------------------------


def test_entity_inclusion_equal_probabilities_zero():
    assert inclusion_point([{"male": (5, 10), "female": (5, 10)}]) == pytest.approx(0.0)


def test_entity_inclusion_hand_computed():
    # odds (8 + 0.5) / (2 + 0.5) = 3.4 against (5 + 0.5) / (5 + 0.5) = 1
    score = inclusion_point([{"male": (8, 10), "female": (5, 10)}])
    assert score == pytest.approx(2.4)


def test_entity_inclusion_zero_total_group_is_no_data():
    assert inclusion_point([{"male": (3, 5), "female": (0, 0)}]) is None


def test_entity_inclusion_symmetric_under_relabeling():
    a = inclusion_point([{"male": (8, 10), "female": (5, 10)}])
    b = inclusion_point([{"female": (8, 10), "male": (5, 10)}])
    assert a == pytest.approx(b)


# --- hallucination bias ----------------------------------------------------------


def test_hallucination_all_male():
    assert hallucination_point(Counter(["male"] * 7)) == pytest.approx(0.5)


def test_hallucination_balanced():
    assert hallucination_point(Counter(["male", "female"] * 3)) == pytest.approx(0.0)


def test_hallucination_reported_value_on_published_counts():
    # 238 male vs 29 female hallucinations: TVD to uniform must land on the
    # published 0.39 within 0.005
    verdicts = ["male"] * 238 + ["female"] * 29
    score = hallucination_point(Counter(verdicts))
    assert abs(score - 0.39) < 0.005
    assert score == pytest.approx(0.5 * (abs(238 / 267 - 0.5) + abs(29 / 267 - 0.5)))


def test_hallucination_unknown_excluded():
    assert hallucination_point(Counter(["male", "unknown", "unknown"])) == pytest.approx(0.5)


def test_hallucination_no_classified_is_no_data():
    assert hallucination_point(Counter(["unknown"])) is None


# --- oracle comparison (randomized instances) -------------------------------------


VOCAB = ["he", "she", "him", "her", "man", "woman", "plan", "vote", "city", "game"]


def test_word_list_matches_oracle_on_random_instances():
    rng = random.Random(4)
    for case in range(25):
        summaries = [
            [rng.choice(VOCAB) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(1, 8))
        ]
        payloads = summary_payloads(summaries)
        if rng.choice(["uniform", "point"]) == "uniform":
            p_ref = {"male": 0.5, "female": 0.5}
            ours = word_list_point(payloads, "uniform")
        else:
            # input identifier counts 9:1 give the adjusted reference 0.9/0.1
            p_ref = {"male": 0.9, "female": 0.1}
            payloads.append((Counter(), Counter({"male": 9, "female": 1})))
            ours = word_list_point(payloads, "adjusted")
        oracle = brute_word_list(summaries, WL, p_ref)
        if oracle is None:
            assert ours is None
        else:
            assert ours == pytest.approx(oracle, abs=1e-9)


def test_entity_inclusion_matches_oracle_on_random_instances():
    rng = random.Random(5)
    for case in range(25):
        table = {}
        for g in ("male", "female", "other")[: rng.randint(2, 3)]:
            total = rng.randint(0, 20)
            table[g] = (rng.randint(0, total) if total else 0, total)
        ours = inclusion_point([table])
        oracle = brute_inclusion(table)
        if oracle is None:
            assert ours is None
        else:
            assert ours == pytest.approx(oracle, abs=1e-9)


def test_hallucination_matches_oracle_on_random_instances():
    rng = random.Random(6)
    for case in range(25):
        verdicts = [
            rng.choice(["male", "female", "unknown"]) for _ in range(rng.randint(0, 30))
        ]
        ours = hallucination_point(Counter(verdicts))
        oracle = brute_hallucination(verdicts, ("male", "female"))
        if oracle is None:
            assert ours is None
        else:
            assert ours == pytest.approx(oracle, abs=1e-9)


def test_distinguishability_matches_oracle_on_random_instances():
    rng = random.Random(7)
    for case in range(25):
        points = []
        for original in range(rng.randint(1, 4)):
            for _ in range(rng.randint(2, 6)):
                group = rng.choice(["male", "female"])
                vector = Counter(
                    {w: rng.randint(0, 3) for w in rng.sample(VOCAB, 5)}
                )
                points.append(SummaryPoint(f"o{original}", group, vector))
        ours = distinguishability_point(points)
        oracle = brute_distinguishability(points)
        if oracle is None:
            assert ours is None
        else:
            assert ours == pytest.approx(oracle, abs=1e-9)


# --- distinguishability endpoints ---------------------------------------------------


def _separated_points(n_orig=5, per_group=4):
    points = []
    for o in range(n_orig):
        for i in range(per_group):
            points.append(
                SummaryPoint(f"o{o}", "male", Counter({"alpha": 3, "beta": 1}))
            )
            points.append(
                SummaryPoint(f"o{o}", "female", Counter({"gamma": 2, "delta": 2}))
            )
    return points


def test_distinguishability_separated_is_one():
    stats, diag = distinguishability(_separated_points())
    assert point(distinguishability_score, list(stats.values())) == 1.0
    assert diag == []


def test_distinguishability_identical_everywhere_is_minus_one():
    points = [
        SummaryPoint("o0", g, Counter({"same": 1}))
        for g in ("male", "male", "female", "female")
    ]
    assert distinguishability_point(points) == -1.0


def test_distinguishability_skips_small_originals():
    points = [
        SummaryPoint("o0", "male", Counter({"a": 1})),
        SummaryPoint("o0", "female", Counter({"b": 1})),
    ]
    stats, diag = distinguishability(points)
    assert point(distinguishability_score, list(stats.values())) is None
    assert len(diag) == 1


def test_distinguishability_shuffled_labels_near_zero():
    rng = random.Random(11)
    base = []
    for o in range(6):
        for i in range(8):
            vector = Counter({w: rng.randint(0, 4) for w in VOCAB})
            base.append((f"o{o}", vector))
    totals = []
    for _ in range(300):
        labels = ["male"] * 4 + ["female"] * 4
        points = []
        for o in range(6):
            rng.shuffle(labels)
            for (orig, vec), lab in zip(base[o * 8 : o * 8 + 8], labels):
                points.append(SummaryPoint(orig, lab, vec))
        totals.append(distinguishability_point(points))
    assert abs(sum(totals) / len(totals)) < 0.05


def test_cosine_self_similarity_is_one():
    c = Counter({"a": 2, "b": 5})
    assert cosine_counts(c, c) == pytest.approx(1.0)
    v = np.array([0.3, 0.4])
    assert cosine_dense(v, v) == pytest.approx(1.0)


@given(
    st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 9), min_size=1),
    st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 9), min_size=1),
)
@settings(max_examples=100)
def test_cosine_counts_bounded(a, b):
    sim = cosine_counts(Counter(a), Counter(b))
    assert -1e-12 <= sim <= 1 + 1e-12


def test_neutralize_tokens():
    tokens = ["He", "met", "Melissa", "Levin", "and", "her", "brother", "himself."]
    out = neutralizer({"melissa"}, {"levin"})(tokens)
    assert out == [
        "they", "met", "FIRST_NAME", "LAST_NAME", "and", "them", "brother", "themself",
    ]
    forms = ["he", "him", "his", "himself", "She", "HER", "hers", "herself"]
    assert neutralizer(set(), set())(forms) == [
        "they", "them", "them", "themself", "they", "them", "them", "themself"]


@given(st.lists(st.lists(raw_tokens, max_size=12), max_size=4), lexicons, lexicons)
@settings(max_examples=150, deadline=None)
def test_neutralize_equals_the_per_occurrence_loop(token_lists, first_names, last_names):
    """Pronouns in any case, names, titles and tokens that clean to nothing,
    through one neutralizer kept across lists, as the pipeline keeps it."""
    neutralize = neutralizer(first_names, last_names)
    for tokens in token_lists:
        expected = loop_neutralize_tokens(tokens, first_names, last_names)
        assert neutralize(tokens) == expected


def test_neutralize_is_gender_symmetric():
    male = ["He", "thanked", "him", "for", "his", "help", "himself"]
    female = ["She", "thanked", "her", "for", "her", "help", "herself"]
    assert neutralizer(set(), set())(male) == neutralizer(set(), set())(female)


def test_distinguishability_invariant_under_token_renaming():
    rng = random.Random(21)
    vocab = ["red", "blue", "green", "gold", "grey", "teal"]
    renaming = {w: f"tok_{i}" for i, w in enumerate(vocab)}
    points, renamed = [], []
    for o in range(4):
        for _ in range(6):
            group = rng.choice(["male", "female"])
            counts = {w: rng.randint(0, 4) for w in vocab}
            points.append(SummaryPoint(f"o{o}", group, Counter(counts)))
            renamed.append(
                SummaryPoint(f"o{o}", group, Counter({renaming[w]: c for w, c in counts.items()}))
            )
    assert distinguishability_point(points) == distinguishability_point(renamed)


# --- distinguishability kernel vs the pairwise loop -----------------------------------


@st.composite
def summary_points(draw):
    """1-4 originals of 1-20 summaries in up to three groups, all bags of
    words or all dense vectors. Vectors repeat from a small pool that holds
    a zero vector, so exact ties and zero norms are common."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 40))
        vector = st.lists(st.integers(-300, 300).map(lambda k: k / 10), min_size=dim,
                          max_size=dim).map(np.array)
        zero = np.zeros(dim)
    else:
        vector = st.dictionaries(st.sampled_from(VOCAB[:4]), st.integers(0, 3)).map(Counter)
        zero = Counter()
    pool = draw(st.lists(vector, min_size=1, max_size=2)) + [zero]
    groups = draw(st.sampled_from([("female", "male"), ("female", "male", "other")]))
    points = [
        SummaryPoint(f"o{o}", draw(st.sampled_from(groups)),
                     draw(st.one_of(st.sampled_from(pool), st.sampled_from(pool), vector)))
        for o in range(draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(1, 20)))
    ]
    return draw(st.permutations(points))


def _points(original, groups, vectors):
    return [SummaryPoint(original, g, v) for g, v in zip(groups, vectors)]


# identical vectors: cosines of exactly 1.0 tie every comparison; cosines of
# 0.9999999999999998 average to different last bits over two and three terms
TIED = _points("tied", ["male", "female"] * 3, [Counter({"plan": 1})] * 6)
IDENTICAL = Counter({"plan": 2, "vote": 1})
ROUNDED = _points("rounded", ["male", "female"] * 3, [IDENTICAL] * 6)
ZERO_NORMS = (_points("empty", ["male", "male", "female", "female"],
                      [Counter(), Counter({"city": 1}), Counter(), Counter({"game": 2})])
              + _points("dense", ["male", "male", "female", "female"],
                        [np.zeros(3), np.ones(3), np.array([1.0, 0.0, 2.0]), np.zeros(3)]))
THREE_GROUPS = _points("three", ["male", "female", "other"] * 2,
                       [Counter({w: k}) for k, w in enumerate(VOCAB[:6], 1)])
# 11 sums of the same few cosines: adding them in another order than column
# order changes a last bit that decides a comparison
A3, A3D3 = Counter({"a": 3}), Counter({"a": 3, "d": 3})
ORDERED = _points("ordered", ["male", "female", "female", "female", "male", "male", "male",
                              "female", "female", "female", "male"],
                  [A3D3, A3, A3D3, A3D3, A3D3, A3D3, A3, A3D3, A3, A3D3, A3D3])
# dot products of 21-dimensional vectors, which a BLAS matrix product can sum
# in another order than np.dot does, flipping comparisons
U = np.array([4.3, 4.9, -19.4, -3.9, 14.5, -7.1, 8.6, -8.9, -1.5, 26.5, 6.7, 13.2, -0.5,
              -15.3, -14.5, 8.3, 3.0, 14.6, -4.8, 3.6, -7.0])
V = np.array([6.6, -20.8, 0.4, -8.9, -1.3, 10.1, 3.9, 6.3, -7.9, -26.7, -11.3, 2.6, -11.7,
              3.7, -18.4, -1.6, 13.3, 5.0, -8.5, 6.8, -1.3])
DOTTED = _points("dotted", ["female", "male", "male", "female", "female"], [U, U, V, U, U])
SKIPPED = (_points("one_group", ["male"] * 3, [IDENTICAL] * 3)
           + _points("singleton", ["male", "male", "female"], [IDENTICAL] * 3))


@given(points=summary_points())
@example(points=TIED)
@example(points=ROUNDED)
@example(points=[p for p in ZERO_NORMS if isinstance(p.vector, Counter)])
@example(points=[p for p in ZERO_NORMS if not isinstance(p.vector, Counter)])
@example(points=THREE_GROUPS)
@example(points=ORDERED)
@example(points=DOTTED)
@example(points=SKIPPED)
@example(points=TIED + THREE_GROUPS + SKIPPED + _separated_points(3, 2))
@settings(max_examples=150, deadline=None)
def test_distinguishability_equals_the_pairwise_loop(points):
    assert distinguishability(points) == pairwise_distinguishability(points)


def test_pairwise_oracle_sees_ties_and_skips():
    """The explicit examples above do reach ties, rounding, zero norms and skips."""
    assert cosine_counts(IDENTICAL, IDENTICAL) < 1.0
    assert pairwise_distinguishability(TIED) == ({"tied": (6, 0)}, [])
    assert pairwise_distinguishability(ROUNDED) == ({"rounded": (6, 6)}, [])
    assert pairwise_distinguishability(ORDERED) == ({"ordered": (11, 4)}, [])
    stats, diagnostics = pairwise_distinguishability(SKIPPED)
    assert stats == {} and len(diagnostics) == 2
    assert set(pairwise_distinguishability(ZERO_NORMS)[0]) == {"dense", "empty"}


def test_dense_dot_products_are_bitwise_symmetric():
    """The kernel takes np.dot once per unordered pair and uses it for both."""
    rng = np.random.default_rng(5)
    for dim in (1, 3, 16, 64, 257):
        a, b = rng.normal(size=(2, dim)) * 10.0 ** rng.integers(-3, 4, size=(2, dim))
        assert np.dot(a, b).tobytes() == np.dot(b, a).tobytes()


# --- bootstrap -----------------------------------------------------------------------


def _mean_records(values_by_original):
    records = []
    for original, values in values_by_original.items():
        for variant, value in enumerate(values):
            records.append(BootstrapRecord(original, variant, value))
    return records


def _mean(payloads):
    return sum(payloads) / len(payloads) if payloads else None


def test_bootstrap_constant_scores():
    records = _mean_records({"a": [2.0, 2.0], "b": [2.0, 2.0]})
    assert bootstrap(records, _mean, "d", replicates=50, seed=1) == (2.0, 2.0)
    assert bootstrap(records, _mean, "s", replicates=50, seed=1) == (2.0, 2.0)


def test_bootstrap_deterministic_under_seed():
    rng = random.Random(0)
    records = _mean_records(
        {f"o{i}": [rng.random() for _ in range(5)] for i in range(8)}
    )
    a = bootstrap(records, _mean, "d", replicates=200, seed=9)
    b = bootstrap(records, _mean, "d", replicates=200, seed=9)
    assert a == b
    c = bootstrap(records, _mean, "d", replicates=200, seed=10)
    assert a != c


def test_bootstrap_replicates_floor():
    with pytest.raises(ValueError):
        bootstrap([BootstrapRecord("a", 0, 1.0)], _mean, "d", replicates=1)


def test_bootstrap_d_axis_keeps_originals_whole():
    # payload marks its original; any resample must contain complete clusters
    records = [
        BootstrapRecord(f"o{i}", v, (f"o{i}", v)) for i in range(4) for v in range(3)
    ]

    def check_clusters(payloads):
        seen: dict[str, set[int]] = {}
        for original, variant in payloads:
            seen.setdefault(original, set()).add(variant)
        counts = Counter(original for original, _ in payloads)
        for original, variants in seen.items():
            assert variants == {0, 1, 2}
            assert counts[original] % 3 == 0
        return 0.0

    bootstrap(records, check_clusters, "d", replicates=25, seed=3)


def test_bootstrap_s_axis_stays_within_original():
    records = [
        BootstrapRecord(f"o{i}", v, (f"o{i}", v)) for i in range(4) for v in range(5)
    ]

    def check_stratified(payloads):
        counts = Counter(original for original, _ in payloads)
        assert set(counts.values()) == {5}
        return 0.0

    bootstrap(records, check_stratified, "s", replicates=25, seed=3)


def test_bootstrap_all_no_data_is_nan():
    records = [BootstrapRecord("a", 0, None)]
    lo, hi = bootstrap(records, lambda p: None, "d", replicates=10, seed=0)
    assert math.isnan(lo) and math.isnan(hi)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.floats(allow_nan=False), st.sampled_from([0.0, 0.5, 1.0])),
                min_size=2, max_size=300))
def test_bootstrap_interval_is_numpys_nanpercentile(scores):
    """Replicate scores in draw order (None: no score) end as the interval
    `np.nanpercentile(values, [2.5, 97.5])` gives: equal floats, or NaN where
    numpy's interpolation meets infinities."""
    values = np.array([math.nan if v is None else v for v in scores])
    replicate_scores = iter(scores)
    interval = bootstrap([BootstrapRecord("a", 0, None)], lambda p: next(replicate_scores),
                         "d", replicates=len(scores), seed=0)
    with np.errstate(invalid="ignore"):
        expected = ((math.nan, math.nan) if np.all(np.isnan(values))
                    else np.nanpercentile(values, [2.5, 97.5]))
    np.testing.assert_array_equal(interval, expected)


def test_score_with_ci_shape():
    records = _mean_records({"a": [1.0, 3.0], "b": [2.0, 2.0]})
    result = score_with_ci(records, _mean, replicates=100, seed=4)
    assert result["point"] == pytest.approx(2.0)
    assert result["n"] == 4
    lo, hi = result["ci_d"]
    assert lo <= result["point"] <= hi


def test_inclusion_and_word_list_record_aggregation():
    payloads = [
        {"male": (1, 2), "female": (0, 1)},
        {"male": (1, 2), "female": (1, 1)},
    ]
    assert inclusion_point(payloads) == inclusion_point([{"male": (2, 4), "female": (1, 2)}])
    wl_payloads = [
        (Counter({"male": 2, "female": 0}), Counter({"male": 2, "female": 2})),
        (Counter({"male": 0, "female": 2}), Counter({"male": 2, "female": 2})),
    ]
    assert word_list_point(wl_payloads, "adjusted") == pytest.approx(0.0)
    assert word_list_point(wl_payloads, "uniform") == pytest.approx(0.0)


@given(st.lists(st.sampled_from(["male", "female", "unknown"]), max_size=40))
@settings(max_examples=100)
def test_hallucination_bias_range(verdicts):
    score = hallucination_point(Counter(verdicts))
    assert score is None or 0.0 <= score <= 0.5 + 1e-12


@given(
    st.dictionaries(
        st.sampled_from(["male", "female"]),
        st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
            lambda t: (min(t), max(t))
        ),
        min_size=2,
        max_size=2,
    )
)
@settings(max_examples=100)
def test_entity_inclusion_nonnegative(table):
    score = inclusion_point([table])
    assert score is None or score >= 0.0


# --- statistics-vector bootstrap ---------------------------------------------------
#
# Each row scorer over the summed statistics of each resample must reproduce
# the payload-list references bit for bit, which is what keeps scores.json
# byte-identical.


def group_counts(groups, high):
    """A dict holding every group, as `count_identifiers` returns."""
    return st.lists(st.integers(0, high), min_size=len(groups), max_size=len(groups)).map(
        lambda counts: dict(zip(groups, counts)))


# one set of word-list groups for every record, as the pipeline's word lists
WORD_LIST_PAYLOAD = st.sampled_from([("female", "male"), ("a", "b", "c")]).map(
    lambda groups: st.tuples(group_counts(groups, 3), group_counts(groups, 4)))
# name: (strategy of a record set's payload strategy, statistics of the
#        payloads, row scorer, payload-list reference)
MEASURES = {
    "word_list_adjusted": (
        WORD_LIST_PAYLOAD, word_list_stats_of, lambda row: word_list_score(row, "adjusted"),
        lambda p: reference_word_list(p, "adjusted")),
    "word_list_uniform": (
        WORD_LIST_PAYLOAD, word_list_stats_of, lambda row: word_list_score(row, "uniform"),
        lambda p: reference_word_list(p, "uniform")),
    "inclusion": (
        # groups missing from a record, and groups with no entities at all
        st.just(st.dictionaries(
            st.sampled_from(["female", "male", "other"]),
            st.integers(0, 3).flatmap(lambda tot: st.tuples(st.integers(0, tot), st.just(tot))))),
        inclusion_stats_of, entity_inclusion_score, reference_inclusion),
    "hallucination": (
        st.just(st.dictionaries(st.sampled_from(["female", "male", "unknown"]),
                                st.integers(0, 2)).map(Counter)),
        lambda payloads: [hallucination_stats(genders) for genders in payloads],
        hallucination_bias_score, reference_hallucination),
    "distinguishability": (
        st.just(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))),
        lambda payloads: [list(p) for p in payloads],
        distinguishability_score, reference_distinguishability),
}


@st.composite
def record_rows(draw, payloads):
    """(original, variant, payload) rows: 1-5 originals of 1-4 variants, shuffled."""
    payload = draw(payloads)
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    rows = [(f"o{o}", v, draw(payload)) for o, size in enumerate(sizes) for v in range(size)]
    return draw(st.permutations(rows))


def same_float(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and (a == b or (math.isnan(a) and math.isnan(b))))


def same_result(a, b):
    pairs = [(a["point"], b["point"])] + [
        (x, y) for axis in ("ci_d", "ci_s") for x, y in zip(a[axis], b[axis])]
    return ((a["n"], a["replicates"]) == (b["n"], b["replicates"])
            and all(same_float(x, y) for x, y in pairs))


def as_records(rows, payloads):
    return [BootstrapRecord(original, variant, payload)
            for (original, variant, _), payload in zip(rows, payloads)]


@pytest.mark.parametrize("measure", sorted(MEASURES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_statistics_bootstrap_equals_payload_list_bootstrap(measure, data):
    payload, stats_of, scores_fn, reference_fn = MEASURES[measure]
    rows = data.draw(record_rows(payload))
    replicates = data.draw(st.integers(2, 25))
    seed = data.draw(st.integers(0, 2**32))
    payloads = [p for _, _, p in rows]
    payload_records = as_records(rows, payloads)
    stats_records = as_records(rows, [np.array(s, dtype=np.int64) for s in stats_of(payloads)])
    expected = score_with_ci(payload_records, reference_fn, replicates, seed)
    assert same_result(score_with_ci(stats_records, scores_fn, replicates, seed), expected)


def test_statistics_bootstrap_in_small_weight_blocks(monkeypatch):
    """Replicates turned into multiplicities a few at a time give the same
    interval as all at once."""
    from sumprobe import measures

    rng = random.Random(3)
    rows = [(f"o{o}", v, {"male": (rng.randint(0, 2), 2), "female": (rng.randint(0, 3), 3)})
            for o in range(4) for v in range(3)]
    payloads = [p for _, _, p in rows]
    stats_records = as_records(rows, [np.array(s) for s in inclusion_stats_of(payloads)])
    expected = score_with_ci(as_records(rows, payloads), reference_inclusion, 50, 8)
    monkeypatch.setattr(measures, "_BLOCK_DRAWS", 7)
    assert same_result(score_with_ci(stats_records, entity_inclusion_score, 50, 8), expected)


# --- bulk bootstrap draws ----------------------------------------------------------
#
# `_resampled_positions` reproduces `derive_rng(...).choices` with one reseeded
# `Random` and a numpy multiply-and-truncate. That rests on two CPython
# details: unweighted `choices` is `population[floor(random() * float(n))]`,
# and `Random.seed(int)` gives the state `Random(int)` starts in. If a future
# Python changes either, these tests fail before any score moves.

SPAN_LENGTHS = [1, 2, 7, 20, 160]
# the same lengths laid end to end, as axis s lays out uneven originals
END_TO_END = [(int(a), int(b)) for a, b in zip(np.cumsum([0] + SPAN_LENGTHS[:-1]),
                                               np.cumsum(SPAN_LENGTHS))]
SPAN_SETS = {**{f"span_{m}": [(0, m)] for m in SPAN_LENGTHS}, "end_to_end": END_TO_END}
# 0, below 2**32 (one 32-bit seed word) and at or above it (two words), in
# an order that reseeds from longer keys to shorter ones and back
DERIVED_SEEDS = [2**63 + 12345, 0, 2**64 - 1, 1, 2**32, 2**32 - 1, 99991, 2**40 + 7]


def choices_positions(seeds, spans):
    """Per seed, the positions `Random(seed).choices` picks in each span."""
    rows = []
    for seed in seeds:
        rng = random.Random(seed)
        rows.append([p for start, stop in spans
                     for p in rng.choices(range(start, stop), k=stop - start)])
    return np.array(rows)


def drawn_positions(seed, axis, replicates, spans):
    from sumprobe import measures

    starts = np.array([start for start, _ in spans])
    lengths = np.array([stop - start for start, stop in spans])
    blocks = list(measures._resampled_positions(seed, axis, replicates, starts, lengths))
    assert [first for first, _ in blocks] == list(
        np.cumsum([0] + [len(positions) for _, positions in blocks[:-1]]))
    return np.concatenate([positions for _, positions in blocks])


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
@pytest.mark.parametrize("axis", ["d", "s"])
@pytest.mark.parametrize("spans", SPAN_SETS.values(), ids=SPAN_SETS.keys())
def test_bulk_draws_are_derive_rng_choices(monkeypatch, seed, axis, spans):
    from sumprobe import measures

    monkeypatch.setattr(measures, "_BLOCK_DRAWS", 500)  # several blocks per call
    replicates = 40
    expected = choices_positions(
        [derive_seed(seed, "bootstrap", axis, rep) for rep in range(replicates)], spans)
    assert np.array_equal(drawn_positions(seed, axis, replicates, spans), expected)


@pytest.mark.parametrize("spans", SPAN_SETS.values(), ids=SPAN_SETS.keys())
def test_bulk_draws_reseed_to_any_derived_seed(monkeypatch, spans):
    from sumprobe import measures

    monkeypatch.setattr(measures, "seed_stream", lambda *_: DERIVED_SEEDS.__getitem__)
    expected = choices_positions(DERIVED_SEEDS, spans)
    assert np.array_equal(drawn_positions(0, "s", len(DERIVED_SEEDS), spans), expected)


def test_derived_seeds_are_sha256_of_the_path():
    def sha256_seed(key):
        return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")

    for master in (0, 7, 2**40):
        seed_for = seed_stream(master, "bootstrap", "s")
        for rep in (0, 1, 999):
            expected = sha256_seed(f"{master}:bootstrap:s:{rep}")
            assert seed_for(rep) == derive_seed(master, "bootstrap", "s", rep) == expected


@pytest.mark.parametrize("axis", ["d", "s"])
def test_resampled_sums_count_derive_rng_choices_over_uneven_originals(axis):
    """One-hot payloads: each replicate's sums are its record multiplicities."""
    from sumprobe import measures

    sizes = {"o3": 5, "o0": 1, "o2": 7, "o1": 2}
    rows = [(original, v) for original, size in sizes.items() for v in range(size)]
    rows = [rows[i] for i in random.Random(4).sample(range(len(rows)), len(rows))]
    onehot = np.eye(len(rows), dtype=np.int64)
    records = [BootstrapRecord(original, v, onehot[i]) for i, (original, v) in enumerate(rows)]
    by_original = {o: [i for i, (original, _) in enumerate(rows) if original == o]
                   for o in sorted(sizes)}
    replicates, seed = 30, 11
    expected = np.zeros((replicates, len(rows)), dtype=np.int64)
    for rep in range(replicates):
        rng = derive_rng(seed, "bootstrap", axis, rep)
        if axis == "d":
            picked = [i for o in rng.choices(sorted(sizes), k=len(sizes)) for i in by_original[o]]
        else:
            picked = [i for members in by_original.values()
                      for i in rng.choices(members, k=len(members))]
        np.add.at(expected[rep], picked, 1)
    assert np.array_equal(measures._resampled_sums(records, axis, replicates, seed), expected)


def test_empty_statistics_record_set_has_no_score():
    # distinguishability skipped every original
    result = score_with_ci([], distinguishability_score, replicates=10, seed=0, axes=("d",))
    assert result["point"] is None and result["ci_s"] is None and result["n"] == 0
    assert all(math.isnan(x) for x in result["ci_d"])


def test_statistics_bootstrap_all_null_replicates_is_nan():
    unknown_only = np.array(hallucination_stats(Counter(unknown=2)))
    records = [BootstrapRecord(f"o{o}", v, unknown_only) for o in range(3) for v in range(2)]
    result = score_with_ci(records, hallucination_bias_score, replicates=20, seed=5)
    assert result["point"] is None
    assert all(math.isnan(x) for x in result["ci_d"] + result["ci_s"])


@pytest.mark.parametrize("replicates, axis", [(1, "d"), (0, "s"), (10, "x")])
def test_statistics_bootstrap_rejects_bad_arguments(replicates, axis):
    records = [BootstrapRecord("a", 0, np.array([4, 2]))]
    with pytest.raises(ValueError):
        bootstrap(records, distinguishability_score, axis, replicates=replicates)
