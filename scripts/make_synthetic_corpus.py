#!/usr/bin/env python3
"""Emit a synthetic topic/gender-correlated corpus as ingest-format JSONL.

The defaults plant the sport<->male identifier correlation used by the
baseline simulation; tweak the rates for counterfactual corpora.
"""

import argparse

from sumprobe.corpus import write_jsonl
from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--n-docs", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sport-male-rate", type=float, default=0.85)
    parser.add_argument("--family-male-rate", type=float, default=0.3)
    parser.add_argument("--neutral-male-rate", type=float, default=0.5)
    parser.add_argument("--sport-share", type=float, default=0.4)
    parser.add_argument("--family-share", type=float, default=0.4)
    args = parser.parse_args()

    for name in ("sport_male_rate", "family_male_rate", "neutral_male_rate",
                 "sport_share", "family_share"):
        value = getattr(args, name)
        if not 0 <= value <= 1:
            parser.error(f"--{name.replace('_', '-')} must lie in [0, 1], got {value}")
    if args.sport_share + args.family_share > 1:
        parser.error("topic shares exceed 1")
    # 1.0 - 0.8 - 0.2 is -5.6e-17: a rounding residue, not a negative share
    neutral_share = max(0.0, 1.0 - args.sport_share - args.family_share)
    config = SyntheticCorpusConfig(
        n_docs=args.n_docs,
        topic_shares=(args.sport_share, args.family_share, neutral_share),
        male_rate={
            "sport": args.sport_male_rate,
            "family": args.family_male_rate,
            "neutral": args.neutral_male_rate,
        },
    )
    docs = make_synthetic_corpus(config, seed=args.seed)
    write_jsonl(docs, args.out)
    print(f"wrote {len(docs)} documents -> {args.out}")


if __name__ == "__main__":
    main()
