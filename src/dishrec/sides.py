"""Side-dish affinity mining: item co-mention graph with Louvain community
detection, and per-restaurant LDA topic models via collapsed Gibbs sampling.

Louvain uses a fixed ascending scan order and lowest-community-id
tie-breaking so identical inputs always give identical partitions; the Gibbs
sampler is driven by a seeded PRNG for the same reason.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul, truediv

from .errors import EmptyCorpus, EmptyGraph, InvalidConfig, ModularityDecreased


class WeightedGraph:
    """Undirected graph with positive, finite edge weights and no self-loops."""

    def __init__(self):
        self._adj: dict = defaultdict(dict)
        self._nodes: set = set()

    @property
    def nodes(self):
        return self._nodes

    def add_node(self, u):
        self._nodes.add(u)

    def add_edge(self, u, v, weight=1):
        if u == v:
            raise ValueError(f"self-loop on node {u!r}")
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError("edge weight must be positive and finite")
        self._nodes.add(u)
        self._nodes.add(v)
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight

    def neighbors(self, u) -> dict:
        return self._adj.get(u, {})

    def weight(self, u, v):
        return self._adj.get(u, {}).get(v, 0)

    def degree(self, u) -> float:
        return float(sum(self._adj.get(u, {}).values()))

    def total_weight(self) -> float:
        return sum(sum(nbrs.values()) for nbrs in self._adj.values()) / 2.0

    def edges(self):
        seen = set()
        for u in sorted(self._nodes):
            for v, w in sorted(self._adj.get(u, {}).items()):
                if (v, u) not in seen:
                    seen.add((u, v))
                    yield u, v, w


def build_comention_graph(fragments, all_items=None) -> WeightedGraph:
    """One unit of edge weight per review co-mentioning an item pair.

    ``all_items`` optionally forces extra (possibly isolated) nodes into the
    graph; otherwise nodes are exactly the items seen in fragments.
    """
    g = WeightedGraph()
    if all_items:
        for item_id in all_items:
            g.add_node(item_id)
    by_review = defaultdict(set)
    for f in fragments:
        by_review[f.review_id].add(f.item_id)
        g.add_node(f.item_id)
    for review_id in sorted(by_review):
        items = sorted(by_review[review_id])
        for a_i in range(len(items)):
            for b_i in range(a_i + 1, len(items)):
                g.add_edge(items[a_i], items[b_i], 1)
    return g


def modularity(graph: WeightedGraph, partition: dict) -> float:
    """Newman weighted modularity of a total partition; 0 for edgeless graphs."""
    missing = graph.nodes - set(partition)
    if missing:
        raise ValueError(f"partition misses nodes {sorted(missing)}")
    m = graph.total_weight()
    if m == 0:
        return 0.0
    internal = defaultdict(float)  # community -> 2 * intra-community weight
    tot = defaultdict(float)       # community -> summed degree
    for u in graph.nodes:
        tot[partition[u]] += graph.degree(u)
    for u, v, w in graph.edges():
        if partition[u] == partition[v]:
            internal[partition[u]] += 2.0 * w
    q = 0.0
    for c in tot:
        q += internal.get(c, 0.0) / (2.0 * m) - (tot[c] / (2.0 * m)) ** 2
    return q


_GAIN_EPS = 1e-12


def _one_level(adj, self_w):
    """One pass of repeated local moves; returns a contiguous assignment."""
    n = len(adj)
    degree = [sum(adj[i].values()) + 2.0 * self_w[i] for i in range(n)]
    m = sum(degree) / 2.0
    comm = list(range(n))
    tot = degree[:]
    if m == 0:
        return comm

    moved = True
    while moved:
        moved = False
        for i in range(n):
            old = comm[i]
            links = defaultdict(float)
            for j, w in adj[i].items():
                links[comm[j]] += w
            tot[old] -= degree[i]

            def gain(c):
                return links.get(c, 0.0) / m - tot[c] * degree[i] / (2.0 * m * m)

            stay = gain(old)
            # ascending scan + strict improvement keeps the lowest community
            # id among (near-)equal gains
            best_c, best_gain = None, None
            for c in sorted(links):
                g = gain(c)
                if best_gain is None or g > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, g
            if best_c is not None and best_c != old and best_gain - stay > _GAIN_EPS:
                comm[i] = best_c
                tot[best_c] += degree[i]
                moved = True
            else:
                comm[i] = old
                tot[old] += degree[i]

    relabel = {}
    out = []
    for c in comm:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return out


def _aggregate(adj, self_w, assignment):
    n_comm = max(assignment) + 1
    new_adj = [defaultdict(float) for _ in range(n_comm)]
    new_self = [0.0] * n_comm
    for i in range(len(adj)):
        new_self[assignment[i]] += self_w[i]
        for j, w in adj[i].items():
            if i < j:
                ci, cj = assignment[i], assignment[j]
                if ci == cj:
                    new_self[ci] += w
                else:
                    new_adj[ci][cj] += w
                    new_adj[cj][ci] += w
    return [dict(d) for d in new_adj], new_self


def louvain(graph: WeightedGraph) -> dict:
    """Two-phase greedy modularity maximization.

    Phase 1 repeatedly moves nodes (ascending id scan, lowest-community-id
    tie-break, moves only for gains above 1e-12); phase 2 aggregates
    communities into super-nodes and recurses. Stops when a phase no longer
    improves modularity. Community ids are contiguous from 0, numbered by
    first appearance in ascending node order.
    """
    nodes = sorted(graph.nodes)
    if not nodes:
        raise EmptyGraph("graph has no nodes")
    index = {u: i for i, u in enumerate(nodes)}
    adj = [dict() for _ in nodes]
    for u, v, w in graph.edges():
        adj[index[u]][index[v]] = float(w)
        adj[index[v]][index[u]] = float(w)
    self_w = [0.0] * len(nodes)

    flat = list(range(len(nodes)))
    q_prev = modularity(graph, {u: flat[index[u]] for u in nodes})
    while True:
        assignment = _one_level(adj, self_w)
        candidate = [assignment[flat[i]] for i in range(len(nodes))]
        q_new = modularity(graph, {u: candidate[index[u]] for u in nodes})
        if q_new < q_prev - 1e-9:
            raise ModularityDecreased(f"modularity fell from {q_prev} to {q_new} across a phase")
        if q_new <= q_prev + _GAIN_EPS:
            break
        flat = candidate
        q_prev = q_new
        if max(assignment) + 1 == len(adj):  # nothing merged; a fixed point
            break
        adj, self_w = _aggregate(adj, self_w, assignment)

    relabel = {}
    partition = {}
    for u in nodes:
        c = flat[index[u]]
        if c not in relabel:
            relabel[c] = len(relabel)
        partition[u] = relabel[c]
    return partition


# ---------------------------------------------------------------------------
# LDA via collapsed Gibbs sampling

@dataclass
class TopicModel:
    n_topics: int
    alpha: float
    beta: float
    vocab_tokens: list[str]
    docs: list[list[int]]                 # token ids per document
    doc_topic: list[list[int]] = field(default_factory=list)   # n_{d,k}
    word_topic: list[list[int]] = field(default_factory=list)  # n_{w,k}
    topic_total: list[int] = field(default_factory=list)       # n_{k,.}
    assignments: list[list[int]] = field(default_factory=list)
    _rng: random.Random = field(default=None, repr=False)

    @property
    def vocab_size(self):
        return len(self.vocab_tokens)

    @property
    def topic_word(self) -> list[list[int]]:
        """n_{k,w}, transposed from the word-major counts."""
        return [list(row) for row in zip(*self.word_topic)]

    def init_assignments(self, seed: int):
        self._rng = random.Random(seed)
        K = self.n_topics
        self.doc_topic = [[0] * K for _ in self.docs]
        self.word_topic = [[0] * K for _ in range(self.vocab_size)]
        self.topic_total = [0] * K
        self.assignments = []
        for d, doc in enumerate(self.docs):
            zs = []
            for w in doc:
                k = self._rng.randrange(K)
                zs.append(k)
                self.doc_topic[d][k] += 1
                self.word_topic[w][k] += 1
                self.topic_total[k] += 1
            self.assignments.append(zs)

    def sweep(self):
        """Resample every token's topic once from the collapsed conditional.

        Topic k's weight is (n_{d,k} + alpha) * (n_{w,k} + beta) / (n_{k,.} + beta V),
        without the token's own count, accumulated in topic order; the draw is
        the first topic whose cumulative weight exceeds random() * total, else
        the last topic. The three factors are kept as float lists beside the int
        counts, and each entry a token touches is recomputed from its count
        (never stepped by 1, which would round differently), so every weight is
        the same float as in the direct per-topic loop. A token that keeps its
        topic leaves every count as it was, so its three entries get back the
        floats they held. The bisect equals a linear scan because the
        cumulative weights never decrease (alpha, beta > 0); the one exception
        is random() returning exactly 0.0 while the total has overflowed to inf.
        """
        alpha, beta = self.alpha, self.beta
        beta_v = beta * self.vocab_size
        rand = self._rng.random
        last = self.n_topics - 1
        word_topic, nk = self.word_topic, self.topic_total
        word_f = [[n + beta for n in nwk] for nwk in word_topic]
        total_f = [n + beta_v for n in nk]
        for ndk, zs, doc in zip(self.doc_topic, self.assignments, self.docs):
            doc_f = [n + alpha for n in ndk]
            for j, w in enumerate(doc):
                k = zs[j]
                nwk, word_w = word_topic[w], word_f[w]
                kept = doc_f[k], word_w[k], total_f[k]
                doc_f[k] = ndk[k] - 1 + alpha
                word_w[k] = nwk[k] - 1 + beta
                total_f[k] = nk[k] - 1 + beta_v

                weights = list(accumulate(map(truediv, map(mul, doc_f, word_w), total_f)))
                k_new = bisect_right(weights, rand() * weights[-1], 0, last)
                if k_new == k:
                    doc_f[k], word_w[k], total_f[k] = kept
                    continue

                ndk[k] -= 1
                nwk[k] -= 1
                nk[k] -= 1
                zs[j] = k = k_new
                ndk[k] += 1
                doc_f[k] = ndk[k] + alpha
                nwk[k] += 1
                word_w[k] = nwk[k] + beta
                nk[k] += 1
                total_f[k] = nk[k] + beta_v

    def word_probabilities(self, topic: int) -> list[float]:
        beta_v = self.beta * self.vocab_size
        denom = self.topic_total[topic] + beta_v
        return [(nwk[topic] + self.beta) / denom for nwk in self.word_topic]


def lda_train(documents, n_topics: int = 10, alpha: float | None = None,
              beta: float = 0.01, iterations: int = 500, seed: int = 0) -> TopicModel:
    """Collapsed Gibbs sampling over token lists; returns the final-sweep model.

    alpha defaults to 50 / n_topics. n_topics must be >= 1, alpha and beta
    finite and > 0, and iterations >= 0 (InvalidConfig otherwise).
    """
    if n_topics < 1:
        raise InvalidConfig(f"n_topics must be >= 1, got {n_topics}")
    alpha = 50.0 / n_topics if alpha is None else alpha
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidConfig(f"{name} must be finite and > 0, got {value}")
    if iterations < 0:
        raise InvalidConfig(f"iterations must be >= 0, got {iterations}")
    docs_tokens = [list(doc) for doc in documents]
    if not docs_tokens or all(not d for d in docs_tokens):
        raise EmptyCorpus("no documents with tokens")
    vocab = sorted({t for doc in docs_tokens for t in doc})
    token_index = {t: i for i, t in enumerate(vocab)}
    docs = [[token_index[t] for t in doc] for doc in docs_tokens]
    model = TopicModel(
        n_topics=n_topics,
        alpha=alpha,
        beta=beta,
        vocab_tokens=vocab,
        docs=docs,
    )
    model.init_assignments(seed)
    for _ in range(iterations):
        model.sweep()
    return model


def top_words(model: TopicModel, topic: int, n: int = 10) -> list[str]:
    """Tokens by smoothed topic-word probability, descending; ties lexicographic."""
    probs = model.word_probabilities(topic)
    ranked = sorted(range(model.vocab_size), key=lambda w: (-probs[w], model.vocab_tokens[w]))
    return [model.vocab_tokens[w] for w in ranked[:n]]
