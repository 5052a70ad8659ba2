#!/usr/bin/env python3
"""Emit a synthetic topic/gender-correlated corpus as ingest-format JSONL.

The defaults plant the sport<->male identifier correlation used by the
baseline simulation; tweak the rates for counterfactual corpora.
"""

import argparse

from sumprobe.corpus import write_jsonl
from sumprobe.input_bias import SyntheticCorpusConfig, make_synthetic_corpus


def main() -> None:
    default = SyntheticCorpusConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--n-docs", type=int, default=default.n_docs)
    parser.add_argument("--seed", type=int, default=0)
    for topic, rate in default.male_rate.items():  # sport, family, neutral
        parser.add_argument(f"--{topic}-male-rate", type=float, default=rate)
    parser.add_argument("--sport-share", type=float, default=default.topic_shares[0])
    parser.add_argument("--family-share", type=float, default=default.topic_shares[1])
    args = parser.parse_args()

    if args.n_docs < 1:
        parser.error(f"--n-docs must be at least 1, got {args.n_docs}")
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
        male_rate={topic: getattr(args, f"{topic}_male_rate") for topic in default.male_rate},
    )
    docs = make_synthetic_corpus(config, seed=args.seed)
    write_jsonl(docs, args.out)
    print(f"wrote {len(docs)} documents -> {args.out}")


if __name__ == "__main__":
    main()
