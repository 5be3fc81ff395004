import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import PUNCTUATION, as_scipy, decode

from relmap.corpus import _index_tokens, corpus_files, ingest
from relmap.dataset import Dataset
from relmap.errors import CorpusError
from relmap.patterns import build_frequency_matrix, select_columns
from relmap.planted import PlantedConfig, generate_planted_corpus

WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]

# Text built from the pieces that decide a token's bounds and its
# lowercasing: every whitespace character, edge punctuation, repeated
# words, and capital sigma where a word ends.
token_texts = st.lists(st.one_of(
    st.text(max_size=6),
    st.sampled_from(WHITESPACE),
    st.sampled_from(PUNCTUATION),
    st.sampled_from(["Sun", "sun.", "SUN", "«sun»", "ΟΔΟΣ", "ΣΑ", "Σ", "'Σ", "Σ'", "İ", "ß"]),
), max_size=30).map("".join)


def write_corpus(tmp_path, texts, prefix="doc"):
    """One file per text snippet; returns the ingested index."""
    paths = []
    for i, text in enumerate(texts):
        p = tmp_path / f"{prefix}{i:03d}.txt"
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return ingest(paths)


def index_token_lists(documents):
    """The index of tokenized documents, in the given order.

    Each document's tokens are joined by "\\n" as UTF-8 bytes and indexed
    as `ingest` indexes a file's tokens. An empty token, or one holding a
    newline, is refused with CorpusError; nothing else is checked, so the
    tokens need not be words `tokenize` could emit, but mining assumes
    that none is a slot marker (`terms.MARKERS`).
    """
    return _index_tokens(map(_joined_tokens, documents))


def _joined_tokens(tokens):
    """The tokens as (bytes, starts, sizes), each token's UTF-8 bytes
    followed by a "\\n"; an empty token, or one holding a newline, is
    refused with CorpusError."""
    data = np.frombuffer("\n".join([*tokens, ""]).encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.zeros(ends.size, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    sizes = ends - starts
    if ends.size != len(tokens) or not sizes.all():
        raise CorpusError("a vocabulary word is empty or holds a newline")
    return data, starts, sizes


def problem_by_id(dataset, pid):
    """The dataset's problem with this id."""
    return next(p for p in dataset if p.id == pid)


def assignment(result):
    """A solve result's mapping, source term text -> target term text."""
    problem = result.problem
    return {problem.source[i].text: problem.target[j].text
            for i, j in enumerate(result.mapping.perm)}


def mined_counts(stats, pairs):
    """{pair: {pattern: count}} of mined statistics, read through the matrix."""
    cols = select_columns(stats, t=max(1, len(stats.column_order)), n_r=1)
    F = as_scipy(build_frequency_matrix(pairs, cols, stats))
    patterns = decode(stats, cols)
    return {pair: {patterns[j]: int(F[i, j]) for j in F[i].indices}
            for i, pair in enumerate(pairs)}


def column_ids(stats, patterns):
    """The ids of mined patterns given as slot tuples, looked up through `oracles.decode`."""
    every = np.arange(len(stats.starts) - 1)
    id_of = {pattern: i for i, pattern in zip(every.tolist(), decode(stats, every))}
    return np.array([id_of[p] for p in patterns], dtype=np.int64)


def occurrences(index, term):
    """All (doc, start) positions where the term's token run occurs."""
    pos = index._starts([term])[term]
    doc = index._doc_of(pos)
    return list(zip(doc.tolist(), (pos - index.doc_offsets[doc]).tolist()))


@pytest.fixture(scope="session")
def planted_all(tmp_path_factory):
    """Five m=5 problems with every index pair planted; ~100k tokens."""
    root = tmp_path_factory.mktemp("planted_all")
    data = generate_planted_corpus(root, PlantedConfig(seed=11))
    index = ingest(corpus_files(data.corpus_dir))
    return data, index


@pytest.fixture(scope="session")
def planted_star(tmp_path_factory):
    """Five m=7 problems planted as a star around term 0; for coherence."""
    root = tmp_path_factory.mktemp("planted_star")
    data = generate_planted_corpus(
        root, PlantedConfig(n_problems=5, m=7, pair_mode="star",
                            target_tokens=60_000, seed=12))
    index = ingest(corpus_files(data.corpus_dir))
    return data, index


@pytest.fixture(scope="session")
def planted_dataset(planted_all):
    data, _ = planted_all
    return Dataset(data.problems)
