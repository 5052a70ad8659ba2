#!/usr/bin/env python3
"""Run the input-bias demonstration end to end on a synthetic corpus.

Generates a topic/gender-correlated corpus, scores the four baseline
summarizers under uniform and adjusted references, and prints the table.
Content-agnostic baselines (random/lead) should stay near zero after
adjustment, while the topic-driven baseline inherits the corpus
correlation and outscores the overtly skewed one.
"""

import argparse
import json

from sumprobe.input_bias import (
    ALGORITHMS,
    SyntheticCorpusConfig,
    make_synthetic_corpus,
    simulation_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-docs", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="optional JSON output path")
    args = parser.parse_args()

    docs = make_synthetic_corpus(SyntheticCorpusConfig(n_docs=args.n_docs), seed=args.seed)
    result = simulation_experiment(docs, seed=args.seed)

    def show(value, spec):
        return "n/a" if value is None else format(value, spec)

    print(f"{args.n_docs} documents, seed {args.seed}")
    print(f"{'topic':>8} {'docs':>6} {'%F idents':>10}")
    for topic, stats in sorted(result["stats"].items()):
        print(f"{topic:>8} {stats['docs']:>6} {show(stats['female_share'], '.0%'):>10}")
    print()
    print(f"{'algorithm':>10} {'uniform':>8} {'adjusted':>9}")
    for algorithm in ALGORITHMS:
        scores = result["scores"][algorithm]
        print(f"{algorithm:>10} {show(scores['uniform'], '.3f'):>8} "
              f"{show(scores['adjusted'], '.3f'):>9}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True, indent=1)
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
