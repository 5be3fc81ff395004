"""Synthetic corpora with known analogical structure, for end-to-end checks.

Each generated problem consists of two disjoint term domains of size m
with the intended bijection i -> i. For every planted index pair (i, j)
a connective word unique to that (problem, i, j) is emitted between
the source terms and, with the same frequency, between the target
terms, so the corresponding pairs share connective patterns that no
other pair generates. Sentences are separated by enough filler tokens
that no retrieval window can bridge two of them.

pair_mode "all" plants every i < j; "star" plants only pairs touching
term 0, which leaves subproblems that exclude term 0 with no internal
relational signal at all.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from .problems import MappingProblem

_SENTENCE_GAP = 4  # filler tokens between sentences; > max window gap
_FILES = 40  # corpus files the tokens are split across
_POS_CYCLE = ("NN", "VB", "JJ", "NNS", "VBG")  # the tags a domain's terms take in turn


@dataclass(frozen=True)
class PlantedConfig:
    n_problems: int = 5
    m: int = 5
    pair_mode: str = "all"            # "all" or "star"
    occurrences: tuple[int, int] = (30, 60)
    target_tokens: int = 100_000
    seed: int = 0


@dataclass
class PlantedData:
    corpus_dir: Path
    problems: list[MappingProblem]


def _word_factory(rng: random.Random, taken: set[str]):
    consonants = "bcdfghjklmnpqrstvwz"
    vowels = "aeiou"

    def make() -> str:
        while True:
            n = rng.randint(2, 4)
            word = "".join(rng.choice(consonants) + rng.choice(vowels)
                           for _ in range(n))
            if word not in taken:
                taken.add(word)
                return word

    return make


def _planted_pairs(m: int, mode: str) -> list[tuple[int, int]]:
    if mode == "all":
        return [(i, j) for i in range(m) for j in range(i + 1, m)]
    if mode == "star":
        return [(0, j) for j in range(1, m)]
    raise ValueError(f"unknown pair_mode {mode!r}")


def generate_planted_corpus(out_dir: str | Path,
                            cfg: PlantedConfig = PlantedConfig()) -> PlantedData:
    """Write the corpus files and return them with the planted problems."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(cfg.seed)
    taken: set[str] = set()
    make_word = _word_factory(rng, taken)

    # Filler tokens are all distinct (the syllable words never contain
    # digits, so the two vocabularies cannot collide). A repeated filler
    # word would let two unrelated pairs share a context pattern, and a
    # lucky pile-up of such patterns can outrank the planted connective
    # words at the column-selection cutoff.
    filler_counter = itertools.count()

    def filler() -> str:
        return f"fl{next(filler_counter)}"

    problems: list[MappingProblem] = []
    sentences: list[list[str]] = []

    for p in range(cfg.n_problems):
        source = [make_word() for _ in range(cfg.m)]
        target = [make_word() for _ in range(cfg.m)]
        pos = {}
        for i in range(cfg.m):
            tag = _POS_CYCLE[i % len(_POS_CYCLE)]
            pos[source[i]] = tag
            pos[target[i]] = tag
        pid = f"P{p + 1}"
        problems.append(MappingProblem.build(
            id=pid, source=source, target=target, pos=pos,
            intended=dict(zip(source, target)),
            mnemonic=f"planted domain {p + 1}"))
        for i, j in _planted_pairs(cfg.m, cfg.pair_mode):
            conn = make_word()
            count = rng.randint(*cfg.occurrences)
            for _ in range(count):
                sentences.append([source[i], conn, source[j]])
                sentences.append([target[i], conn, target[j]])

    rng.shuffle(sentences)
    tokens: list[str] = []
    for sent in sentences:
        tokens.extend(sent)
        tokens.extend(filler() for _ in range(_SENTENCE_GAP))
    while len(tokens) < cfg.target_tokens:
        tokens.append(filler())

    per_file = max(1, len(tokens) // _FILES + 1)
    width = len(str(_FILES))
    for idx in range(0, len(tokens), per_file):
        chunk = tokens[idx:idx + per_file]
        name = out / f"planted_{idx // per_file:0{width}d}.txt"
        name.write_text(" ".join(chunk) + "\n", encoding="utf-8")

    return PlantedData(corpus_dir=out, problems=problems)
