import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dishrec import sides
from dishrec.errors import (
    EmptyCorpus,
    EmptyGraph,
    InvalidConfig,
    ModularityDecreased,
    TrainingError,
)
from dishrec.fragmenter import ItemFragment
from dishrec.sides import (
    TopicModel,
    WeightedGraph,
    build_comention_graph,
    lda_train,
    louvain,
    modularity,
    top_words,
)

from oracles import best_partition_by_modularity, lda_train_reference


def frag(review, item):
    return ItemFragment(review, item, ("x",), 0)


def k_clique(graph, nodes):
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            graph.add_edge(nodes[i], nodes[j], 1)


class TestComentionGraph:
    def test_pair_counting(self):
        frags = [frag("v1", 1), frag("v1", 2), frag("v2", 1), frag("v2", 2), frag("v3", 3)]
        g = build_comention_graph(frags)
        assert g.weight(1, 2) == 2
        assert g.weight(1, 3) == 0
        assert g.nodes == {1, 2, 3}

    def test_triangle_from_three_way_review(self):
        frags = [frag("v1", 1), frag("v1", 2), frag("v1", 3)]
        g = build_comention_graph(frags)
        assert g.weight(1, 2) == g.weight(1, 3) == g.weight(2, 3) == 1

    def test_no_multi_item_reviews(self):
        frags = [frag("v1", 1), frag("v2", 2)]
        g = build_comention_graph(frags)
        assert g.total_weight() == 0
        assert g.nodes == {1, 2}

    def test_self_loops_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    @pytest.mark.parametrize("weight", [0, -1, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_weight_rejected(self, weight):
        g = WeightedGraph()
        g.add_edge(1, 2, 1)
        with pytest.raises(ValueError):
            g.add_edge(2, 3, weight)
        assert g.total_weight() == 1.0
        assert g.nodes == {1, 2}
        assert louvain(g) == {1: 0, 2: 0}


class TestModularity:
    def test_single_community_is_zero(self):
        g = WeightedGraph()
        k_clique(g, [1, 2, 3])
        g.add_edge(3, 4, 2)
        assert modularity(g, {1: 0, 2: 0, 3: 0, 4: 0}) == pytest.approx(0.0, abs=1e-12)

    def test_two_disjoint_triangles(self):
        g = WeightedGraph()
        k_clique(g, [1, 2, 3])
        k_clique(g, [4, 5, 6])
        p = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
        assert modularity(g, p) == pytest.approx(0.5, abs=1e-12)

    def test_singleton_partition_of_single_edge(self):
        g = WeightedGraph()
        g.add_edge(1, 2, 1)
        assert modularity(g, {1: 0, 2: 1}) == pytest.approx(-0.5, abs=1e-12)

    def test_partition_must_cover_graph(self):
        g = WeightedGraph()
        g.add_edge(1, 2, 1)
        with pytest.raises(ValueError):
            modularity(g, {1: 0})

    def test_edgeless_graph(self):
        g = WeightedGraph()
        g.add_node(1)
        g.add_node(2)
        assert modularity(g, {1: 0, 2: 1}) == 0.0


class TestLouvain:
    def test_two_bridged_cliques_found_exactly(self):
        g = WeightedGraph()
        k_clique(g, [0, 1, 2, 3])
        k_clique(g, [4, 5, 6, 7])
        g.add_edge(3, 4, 1)
        partition = louvain(g)
        assert len(set(partition.values())) == 2
        assert len({partition[n] for n in (0, 1, 2, 3)}) == 1
        assert len({partition[n] for n in (4, 5, 6, 7)}) == 1
        best_q, _ = best_partition_by_modularity(g, modularity)
        assert modularity(g, partition) == pytest.approx(best_q, abs=1e-9)

    def test_single_triangle_single_community(self):
        g = WeightedGraph()
        k_clique(g, [1, 2, 3])
        partition = louvain(g)
        assert set(partition.values()) == {0}
        best_q, _ = best_partition_by_modularity(g, modularity)
        assert modularity(g, partition) == pytest.approx(best_q, abs=1e-12)

    def test_isolated_nodes_stay_singletons(self):
        g = WeightedGraph()
        k_clique(g, [1, 2, 3])
        g.add_node(10)
        g.add_node(11)
        partition = louvain(g)
        assert partition[10] != partition[11]
        assert partition[10] not in {partition[1], partition[11]}

    def test_deterministic(self):
        g = WeightedGraph()
        k_clique(g, [0, 1, 2, 3])
        k_clique(g, [4, 5, 6, 7])
        g.add_edge(0, 4, 1)
        g.add_edge(2, 6, 1)
        assert louvain(g) == louvain(g)

    def test_at_least_as_good_as_singletons(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 3)
        g.add_edge(1, 2, 1)
        g.add_edge(2, 3, 2)
        g.add_edge(3, 0, 1)
        partition = louvain(g)
        singletons = {n: i for i, n in enumerate(sorted(g.nodes))}
        assert modularity(g, partition) >= modularity(g, singletons)

    def test_near_optimal_on_random_small_graphs(self):
        # heuristic gap bound on every graph up to 8 nodes in the suite
        import numpy as np
        rng = np.random.default_rng(17)
        for _ in range(8):
            g = WeightedGraph()
            n = int(rng.integers(4, 8))
            for i in range(n):
                g.add_node(i)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.45:
                        g.add_edge(i, j, int(rng.integers(1, 4)))
            if g.total_weight() == 0:
                continue
            partition = louvain(g)
            best_q, _ = best_partition_by_modularity(g, modularity)
            assert modularity(g, partition) >= best_q - 0.05

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraph):
            louvain(WeightedGraph())

    def test_modularity_decrease_raises_training_error(self, monkeypatch):
        # an explicit raise, not an assert, so `python -O` keeps the check
        values = iter([0.5, 0.1])
        monkeypatch.setattr(sides, "modularity", lambda graph, partition: next(values))
        g = WeightedGraph()
        k_clique(g, [0, 1, 2])
        with pytest.raises(ModularityDecreased):
            louvain(g)
        assert issubclass(ModularityDecreased, TrainingError)  # CLI exit 3

    def test_community_ids_contiguous(self):
        g = WeightedGraph()
        k_clique(g, [5, 6])
        k_clique(g, [8, 9])
        partition = louvain(g)
        assert sorted(set(partition.values())) == list(range(len(set(partition.values()))))


def planted_documents(seed=42, docs_per_group=50, doc_len=20):
    """Two disjoint vocabularies; documents draw from exactly one."""
    import numpy as np
    rng = np.random.default_rng(seed)
    vocab_a = [f"a{i}" for i in range(12)]
    vocab_b = [f"b{i}" for i in range(12)]
    docs = []
    for group, vocab in ((0, vocab_a), (1, vocab_b)):
        for _ in range(docs_per_group):
            docs.append([vocab[i] for i in rng.integers(0, len(vocab), size=doc_len)])
    return docs, set(vocab_a), set(vocab_b)


def check_count_invariants(model: TopicModel):
    for d, doc in enumerate(model.docs):
        assert sum(model.doc_topic[d]) == len(doc)
    for k in range(model.n_topics):
        assert sum(model.topic_word[k]) == model.topic_total[k]
        assert all(c >= 0 for c in model.topic_word[k])
    total_tokens = sum(len(doc) for doc in model.docs)
    assert sum(model.topic_total) == total_tokens


class TestLDA:
    def test_count_invariants_hold_each_sweep(self):
        docs, _, _ = planted_documents(seed=3, docs_per_group=10, doc_len=8)
        model = lda_train(docs, n_topics=3, iterations=0, seed=3)
        for _ in range(20):
            model.sweep()
            check_count_invariants(model)

    def test_topic_word_distributions_normalized(self):
        docs, _, _ = planted_documents(seed=5, docs_per_group=8, doc_len=6)
        model = lda_train(docs, n_topics=4, iterations=10, seed=5)
        for k in range(model.n_topics):
            assert sum(model.word_probabilities(k)) == pytest.approx(1.0, abs=1e-9)

    def test_single_topic_top_word_is_most_frequent(self):
        docs = [["x", "x", "y"], ["x", "z"]]
        model = lda_train(docs, n_topics=1, iterations=5, seed=0)
        assert top_words(model, 0, 1) == ["x"]

    def test_top_words_truncation(self):
        docs = [["x", "y"], ["z"]]
        model = lda_train(docs, n_topics=1, iterations=2, seed=0)
        assert sorted(top_words(model, 0, 99)) == ["x", "y", "z"]

    def test_planted_vocabulary_separation(self):
        docs, vocab_a, vocab_b = planted_documents(seed=42, docs_per_group=20, doc_len=15)
        model = lda_train(docs, n_topics=2, iterations=150, seed=42)
        for k in range(2):
            top = top_words(model, k, 10)
            purity = max(
                sum(1 for t in top if t in vocab_a),
                sum(1 for t in top if t in vocab_b),
            ) / len(top)
            assert purity >= 0.9

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            lda_train([], n_topics=2)
        with pytest.raises(EmptyCorpus):
            lda_train([[], []], n_topics=2)

    def test_seed_determinism(self):
        docs, _, _ = planted_documents(seed=9, docs_per_group=5, doc_len=6)
        a = lda_train(docs, n_topics=3, iterations=20, seed=11)
        b = lda_train(docs, n_topics=3, iterations=20, seed=11)
        assert a.assignments == b.assignments

    @pytest.mark.parametrize("kwargs", [
        {"n_topics": 0},
        {"n_topics": -2},
        {"alpha": -1.0},
        {"alpha": 0.0},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"beta": 0.0},
        {"beta": -0.5},
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"iterations": -1},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_invalid_settings_raise_invalid_config(self, kwargs):
        docs = [["x", "y"], ["y", "z"]]
        with pytest.raises(InvalidConfig):
            lda_train(docs, **{"n_topics": 2, "iterations": 1, **kwargs})


def assert_same_state(model, reference):
    assert model.assignments == reference.assignments
    assert model.doc_topic == reference.doc_topic
    assert model.topic_word == reference.topic_word
    assert model.topic_total == reference.topic_total
    for k in range(model.n_topics):
        assert model.word_probabilities(k) == reference.word_probabilities(k)


def assert_sweeps_match_reference(docs, sweeps, **kwargs):
    model = lda_train(docs, iterations=0, **kwargs)
    reference = lda_train_reference(docs, iterations=0, **kwargs)
    assert_same_state(model, reference)
    for _ in range(sweeps):
        model.sweep()
        reference.sweep()
        assert_same_state(model, reference)


class BoundaryDraws:
    """A ``random()`` for the reference sampler that puts each draw on one of
    the reference's own cumulative boundaries: for the token about to be
    drawn it recomputes the reference's weights (same expression, same order)
    and returns ``weights[k] / total`` for a seeded k below the last topic,
    moved by an ulp where that makes ``random() * total == weights[k]``
    exactly. Replaying the values to another sampler moves its draw across
    that boundary whenever its ``weights[k]`` differs in the last bit."""

    def __init__(self, reference, seed):
        self.reference = reference
        self.pick = random.Random(seed)
        self.tokens = iter(())
        self.drawn = []
        self.exact = 0

    def random(self):
        ref = self.reference
        try:
            d, w = next(self.tokens)
        except StopIteration:  # a new sweep
            self.tokens = iter([(d, w) for d, doc in enumerate(ref.docs) for w in doc])
            d, w = next(self.tokens)
        beta_v = ref.beta * ref.vocab_size
        total = 0.0
        weights = []
        for t in range(ref.n_topics):
            p = (ref.doc_topic[d][t] + ref.alpha) * (ref.topic_word[t][w] + ref.beta) \
                / (ref.topic_total[t] + beta_v)
            total += p
            weights.append(total)
        r = 0.5
        if ref.n_topics > 1:
            edge = weights[self.pick.randrange(ref.n_topics - 1)]
            r = edge / total
            for near in (r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)):
                if near * total == edge:
                    r = near
                    self.exact += 1
                    break
        self.drawn.append(r)
        return r


_TOKENS = st.sampled_from("abcdef")  # few types, so tokens repeat within documents


class TestLDAReferenceEquivalence:
    """The sampler must draw exactly the reference's topics, sweep by sweep."""

    @pytest.mark.parametrize("n_topics,alpha,beta,seed", [
        (2, None, 0.01, 42),
        (3, 0.1, 0.01, 7),
        (10, None, 0.01, 1),
        (1, None, 0.5, 0),
        (12, 1e308, 0.01, 5),
    ])
    def test_planted_documents_every_sweep(self, n_topics, alpha, beta, seed):
        docs, _, _ = planted_documents(seed=seed, docs_per_group=6, doc_len=12)
        assert_sweeps_match_reference(docs, 25, n_topics=n_topics, alpha=alpha, beta=beta,
                                      seed=seed)

    @pytest.mark.parametrize("n_topics,alpha,beta,seed", [
        (2, None, 0.01, 42),
        (3, 0.1, 0.01, 7),
        (10, None, 0.01, 1),
        (6, 0.3, 0.2, 11),
    ])
    def test_draws_on_exact_boundaries(self, n_topics, alpha, beta, seed):
        """Every draw lands on a boundary of the reference's weights, so the
        sampler matches only if each of its weights is the same float."""
        docs, _, _ = planted_documents(seed=seed, docs_per_group=6, doc_len=12)
        kwargs = dict(n_topics=n_topics, alpha=alpha, beta=beta, seed=seed, iterations=0)
        model = lda_train(docs, **kwargs)
        reference = lda_train_reference(docs, **kwargs)
        reference._rng = draws = BoundaryDraws(reference, seed)
        for _ in range(8):
            start = len(draws.drawn)
            reference.sweep()
            model._rng = SimpleNamespace(random=iter(draws.drawn[start:]).__next__)
            model.sweep()
            assert_same_state(model, reference)
        assert draws.exact >= 0.8 * len(draws.drawn)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        docs=st.lists(st.one_of(st.just([]), st.lists(_TOKENS, min_size=1, max_size=1),
                                st.lists(_TOKENS, max_size=9)), min_size=1, max_size=7)
        .filter(lambda docs: any(docs)),
        n_topics=st.integers(1, 12),
        alpha=st.one_of(st.floats(-6, 6).map(lambda e: 10.0 ** e), st.just(1e308)),
        beta=st.floats(-6, 6).map(lambda e: 10.0 ** e),
        seed=st.integers(0, 2 ** 32 - 1),
        sweeps=st.integers(0, 5),
    )
    def test_matches_reference_property(self, docs, n_topics, alpha, beta, seed, sweeps):
        assert_sweeps_match_reference(docs, sweeps, n_topics=n_topics, alpha=alpha, beta=beta,
                                      seed=seed)

