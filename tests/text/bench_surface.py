"""How often analysis still pays the stemmer, by count.

``bench/`` times ``text.analyze`` whole; what decides that time on a long
document is how many of its tokens miss the analyzer's surface-form table
and run the stop-word/stemmer chain.  This script feeds one ``Analyzer``
``--warm`` documents of a workload's text (seed 7 by default), then
``--documents`` more, and prints for the second stretch the misses per
document and the share of tokens that hit, with the table's entries at the
end -- for the ``text_heavy`` shape (more surface forms than the table
holds) and the news shape of the other five workloads.

It also splits every one of those texts with the tokenizer, whose fast
path (ASCII text without an apostrophe: ``str.translate``, then
``str.split``) must give exactly the regex's ``findall`` tokens, and prints
the tokens that differ and the share of texts that took the fast path.

The counts do not depend on the host or on ``PYTHONHASHSEED``, so they are
checked on every run: it exits non-zero unless ``text_heavy`` misses at most
``MAX_TEXT_HEAVY_MISSES`` per document, the news table holds at most
``MAX_NEWS_ENTRIES`` entries and no fast-path token differs from
``findall``.  ``PYTHONPATH`` wins over this checkout's
``src/``, so the same script reads another commit's analyzer.

    python tests/text/bench_surface.py [--seed N] [--warm N] [--documents N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # run as a script: no install, and PYTHONPATH's repro wins
    ROOT = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(ROOT))
    sys.path.append(str(ROOT / "src"))

from repro.text.analyzer import Analyzer  # noqa: E402
from repro.text.tokenizer import RegexTokenizer  # noqa: E402
from tests.text.bench_text import NEWS, TEXT_HEAVY, TextGenerator  # noqa: E402

MAX_TEXT_HEAVY_MISSES = 45.0
MAX_NEWS_ENTRIES = 15_000


def differing_tokens(tokenizer: RegexTokenizer, text: str) -> int:
    """Tokens of ``text`` where ``tokenizer.words`` and the regex disagree."""
    words, matches = tokenizer.words(text), tokenizer._WORD_RE.findall(text)
    return sum(word != match for word, match in zip(words, matches)) + abs(len(words) - len(matches))


def measure(shape, seed: int, warm: int, documents: int) -> Dict[str, float]:
    """One analyzer over ``warm`` then ``documents`` texts of ``shape``."""
    generator = TextGenerator(seed, shape)
    analyzer = Analyzer()
    tokenizer = analyzer.tokenizer
    differing = fast = 0
    texts = generator.documents(warm)
    for text in texts:
        analyzer.term_frequencies(text)
    before = analyzer.surface_table_stats()
    texts += generator.documents(documents)
    for text in texts[warm:]:
        analyzer.term_frequencies(text)
    after = analyzer.surface_table_stats()
    for text in texts:
        differing += differing_tokens(tokenizer, text)
        fast += text.isascii() and "'" not in text
    misses = after["misses"] - before["misses"]
    tokens = after["tokens"] - before["tokens"]
    return {
        "misses_per_doc": round(misses / documents, 2),
        "hit_share": round(1 - misses / tokens, 4),
        "entries": after["entries"],
        "capacity": after["capacity"],
        "differing_tokens": differing,
        "fast_path_share": round(fast / len(texts), 4),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--warm", type=int, default=1400, help="documents analysed before counting")
    parser.add_argument("--documents", type=int, default=600, help="documents counted")
    args = parser.parse_args(argv)

    report = {
        name: measure(shape, args.seed, args.warm, args.documents)
        for name, shape in (("text_heavy", TEXT_HEAVY), ("news", NEWS))
    }
    for name, row in report.items():
        print(f"{name:>10}: {row['misses_per_doc']:6.2f} misses/doc, {row['hit_share']:.1%} of tokens hit, "
              f"{row['entries']:,} of {row['capacity']:,} entries; {row['fast_path_share']:.1%} of texts "
              f"split without the regex, {row['differing_tokens']} tokens differ from findall")
    print(json.dumps(report))
    failures = []
    if report["text_heavy"]["misses_per_doc"] > MAX_TEXT_HEAVY_MISSES:
        failures.append(f"text_heavy misses {report['text_heavy']['misses_per_doc']} per document "
                        f"(at most {MAX_TEXT_HEAVY_MISSES})")
    if report["news"]["entries"] > MAX_NEWS_ENTRIES:
        failures.append(f"the news table holds {report['news']['entries']:,} entries "
                        f"(at most {MAX_NEWS_ENTRIES:,})")
    for name, row in report.items():
        if row["differing_tokens"]:
            failures.append(f"{name}: {row['differing_tokens']} tokens differ from findall (must be 0)")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
