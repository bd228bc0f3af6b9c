"""Generate the benchmark's synthetic ELF corpus in a clean interpreter.

``python3 perfbench/gen_corpus.py --seed N --out FILE`` writes a pickled
list of ``(relative_path, class_name, data)`` triples covering all 92
catalogue classes with at most ``SAMPLES_PER_CLASS`` samples per class.

The corpus generator formats some embedded strings with the builtin
``hash()``, which Python salts per process, so the same seed can give
different bytes in two processes.  ``common.generate_corpus`` therefore
runs this script as a subprocess with ``PYTHONHASHSEED=0``: the bytes
become a pure function of ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from dataclasses import replace

#: Samples per class.
SAMPLES_PER_CLASS = 5
#: Range of each class's typical ``.text`` size.  Narrower than the
#: ``medium`` preset's 3-16 KiB so that a run's cost depends on the
#: seed's classes as little as possible.
TEXT_BYTES = (10_240, 14_336)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("gen_corpus.py must run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2

    from repro.config import default_config
    from repro.corpus.builder import CorpusBuilder

    config = default_config("medium", seed=args.seed)
    config = replace(config, scale=replace(
        config.scale, max_samples_per_class=SAMPLES_PER_CLASS,
        binary_size_range=TEXT_BYTES))
    samples = [(s.relative_path, s.class_name, s.data)
               for s in CorpusBuilder(config=config).iter_samples()]
    with open(args.out, "wb") as fh:
        pickle.dump(samples, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
