#!/usr/bin/env python3
"""Time one fresh-process set-up of sumprobe and print it in seconds.

Set-up is what every CLI invocation pays before its first stage: import the
CLI, then either load a pipeline config and construct `Pipeline` (which loads
the word lists, census and race tables), or, with no config, load the word
lists and topic tokens the input-bias commands use.

    python3 perfbench/probe_setup.py [--config cfg.json --out-dir DIR]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config")
    parser.add_argument("--out-dir")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))

    import sumprobe.cli  # noqa: F401

    if args.config:
        from sumprobe.pipeline import Pipeline, PipelineConfig

        Pipeline(PipelineConfig.from_file(args.config, out_dir=args.out_dir))
    else:
        from sumprobe.names import load_topic_tokens, load_word_lists

        load_word_lists()
        load_topic_tokens()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
