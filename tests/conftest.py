import random
import time
from dataclasses import dataclass

import pytest

from dyncolor.embedding import (
    EmbeddedGraph,
    c3c3_torus,
    find_embedding,
    k5_torus,
    k7_torus,
    petersen_torus,
)
from dyncolor.families import all_connected_graphs, random_connected_graph


@dataclass
class Corpus:
    embeddings: list[EmbeddedGraph]
    build_seconds: float

    def __iter__(self):
        return iter(self.embeddings)

    def __len__(self):
        return len(self.embeddings)


@pytest.fixture(scope="session")
def toroidal_corpus():
    """Genus <= 1 embeddings: all connected graphs on <= 6 vertices up to
    isomorphism, seeded random n=7 and n=8 samples, and the four named
    torus embeddings."""
    start = time.monotonic()
    corpus = []
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            emb = find_embedding(g, max_genus=1)
            if emb is not None:
                corpus.append(emb)
    for i in range(40):
        g = random_connected_graph(7, 0.25, random.Random(10_000 + i))
        emb = find_embedding(g, max_genus=1)
        if emb is not None:
            corpus.append(emb)
    for i in range(25):
        g = random_connected_graph(8, 0.2, random.Random(20_000 + i))
        emb = find_embedding(g, max_genus=1)
        if emb is not None:
            corpus.append(emb)
    corpus += [c3c3_torus(), k5_torus(), k7_torus(), petersen_torus()]
    return Corpus(corpus, time.monotonic() - start)
