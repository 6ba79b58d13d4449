"""Fragment-level sentiment classifiers: Naive Bayes, BoW + logistic
regression, BoW + decision tree.

All three feed the same unified score scale in [-1, 1] through
classify_fragment(), so downstream rating derivation does not care which
classifier produced a score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import NEGATIVE, POSITIVE, Vocabulary, build_vocabulary
from .errors import DivergenceDetected, SingleClassCorpus


def bow_vectorize(tokens, vocab: Vocabulary) -> np.ndarray:
    """Binary presence vector over the vocabulary; OOV tokens are ignored."""
    x = np.zeros(len(vocab), dtype=np.float64)
    for t in tokens:
        i = vocab.index.get(t)
        if i is not None:
            x[i] = 1.0
    return x


def bow_matrix(token_lists, vocab: Vocabulary) -> np.ndarray:
    return np.stack([bow_vectorize(toks, vocab) for toks in token_lists]) if token_lists else np.zeros((0, len(vocab)))


def _require_both_classes(labels):
    present = set(labels)
    if POSITIVE not in present or NEGATIVE not in present:
        raise SingleClassCorpus(f"need both classes, got {sorted(present)}")


# ---------------------------------------------------------------------------
# Naive Bayes

@dataclass(frozen=True)
class NBModel:
    """Multinomial Naive Bayes with Laplace smoothing."""

    log_prior: dict[str, float]
    log_likelihood: dict[str, np.ndarray]  # class -> per-token log P(token|class)
    alpha: float
    vocab: Vocabulary


def nb_train(token_lists, labels, alpha: float = 1.0) -> NBModel:
    """Fit multinomial NB: P(token|class) = (count + alpha) / (total + alpha*|V|)."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    _require_both_classes(labels)
    vocab = build_vocabulary(token_lists, min_count=1)
    counts = {POSITIVE: np.zeros(len(vocab)), NEGATIVE: np.zeros(len(vocab))}
    n_docs = {POSITIVE: 0, NEGATIVE: 0}
    for tokens, label in zip(token_lists, labels):
        n_docs[label] += 1
        vec = counts[label]
        for t in tokens:
            i = vocab.index.get(t)
            if i is not None:
                vec[i] += 1.0
    total = len(labels)
    log_prior = {c: math.log(n_docs[c] / total) for c in (POSITIVE, NEGATIVE)}
    log_likelihood = {}
    for c in (POSITIVE, NEGATIVE):
        smoothed = counts[c] + alpha
        log_likelihood[c] = np.log(smoothed / smoothed.sum())
    return NBModel(log_prior, log_likelihood, alpha, vocab)


def nb_predict(tokens, model: NBModel) -> tuple[float, float]:
    """Posterior (p_pos, p_neg), computed in log space; OOV tokens skipped."""
    log_post = {}
    for c in (POSITIVE, NEGATIVE):
        score = model.log_prior[c]
        ll = model.log_likelihood[c]
        for t in tokens:
            i = model.vocab.index.get(t)
            if i is not None:
                score += ll[i]
        log_post[c] = score
    m = max(log_post.values())
    exp_pos = math.exp(log_post[POSITIVE] - m)
    exp_neg = math.exp(log_post[NEGATIVE] - m)
    z = exp_pos + exp_neg
    return exp_pos / z, exp_neg / z


# ---------------------------------------------------------------------------
# Logistic regression on binary bag-of-words

@dataclass
class LRModel:
    weights: np.ndarray
    bias: float
    l2: float
    loss_history: list[float] = field(default_factory=list, repr=False)


def _sigmoid(z):
    e = np.exp(-np.abs(z))  # only the safe exponent is ever evaluated
    return np.where(np.asarray(z) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lr_loss_and_grad(X, y01, weights, bias, l2):
    """Mean log loss with (l2/2)*||w||^2 penalty (bias unregularized)."""
    z = X @ weights + bias
    p = _sigmoid(z)
    eps = 1e-12
    loss = -np.mean(y01 * np.log(p + eps) + (1.0 - y01) * np.log(1.0 - p + eps))
    loss += 0.5 * l2 * float(weights @ weights)
    err = p - y01
    grad_w = X.T @ err / len(y01) + l2 * weights
    grad_b = float(np.mean(err))
    return float(loss), grad_w, grad_b


def _require_finite(loss, weights, bias):
    if not (math.isfinite(loss) and math.isfinite(bias) and np.isfinite(weights).all()):
        raise DivergenceDetected("non-finite logistic regression loss or parameters")


def lr_train(X, labels, l2: float = 1e-3, lr: float = 0.1, epochs: int = 500) -> LRModel:
    """Full-batch gradient descent from zero initialization.

    Raises DivergenceDetected once the loss or a parameter is not finite;
    the overflow that causes it is reported that way, not as warnings.
    """
    _require_both_classes(labels)
    X = np.asarray(X, dtype=np.float64)
    y01 = np.array([1.0 if lab == POSITIVE else 0.0 for lab in labels])
    w = np.zeros(X.shape[1])
    b = 0.0
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            loss, gw, gb = lr_loss_and_grad(X, y01, w, b, l2)
            history.append(loss)
            w = w - lr * gw
            b = b - lr * gb
            _require_finite(loss, w, b)
        final_loss, _, _ = lr_loss_and_grad(X, y01, w, b, l2)
    history.append(final_loss)
    _require_finite(final_loss, w, b)
    return LRModel(w, b, l2, history)


def lr_predict(x, model: LRModel) -> float:
    """P(positive) = sigmoid(w.x + b); decision threshold is 0.5."""
    return float(_sigmoid(np.asarray(x) @ model.weights + model.bias))


# ---------------------------------------------------------------------------
# Decision tree on binary bag-of-words

@dataclass
class DTNode:
    feature: int | None  # None for leaves
    label: str
    n_pos: int
    n_neg: int
    left: "DTNode | None" = None   # feature value 0
    right: "DTNode | None" = None  # feature value 1


@dataclass
class DTModel:
    root: DTNode
    max_depth: int
    min_samples_leaf: int
    n_features: int


def gini(n_pos, n_neg) -> float:
    total = n_pos + n_neg
    if total == 0:
        return 0.0
    p = n_pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _leaf(y):
    n_pos = int(np.sum(y))
    n_neg = len(y) - n_pos
    label = POSITIVE if n_pos >= n_neg else NEGATIVE  # ties go positive
    return DTNode(None, label, n_pos, n_neg)


def _best_split(X, y, min_samples_leaf):
    """Split minimizing weighted Gini; ties broken by lowest feature index.

    Gini is concave, so no split can increase weighted impurity; zero-gain
    splits are admitted (a depth-2 tree must be able to carve out XOR-style
    structure whose root split has zero immediate gain).
    """
    n = len(y)
    parent = gini(int(np.sum(y)), n - int(np.sum(y)))
    best = None  # (weighted_gini, feature)
    for j in range(X.shape[1]):
        mask = X[:, j] > 0.5
        n_right = int(np.sum(mask))
        n_left = n - n_right
        if n_left < min_samples_leaf or n_right < min_samples_leaf:
            continue
        pos_right = int(np.sum(y[mask]))
        pos_left = int(np.sum(y)) - pos_right
        weighted = (
            n_left * gini(pos_left, n_left - pos_left)
            + n_right * gini(pos_right, n_right - pos_right)
        ) / n
        if weighted > parent + 1e-15:
            continue
        if best is None or weighted < best[0] - 1e-15:
            best = (weighted, j)
    return best


def _grow(X, y, depth, max_depth, min_samples_leaf):
    n_pos = int(np.sum(y))
    if n_pos == 0 or n_pos == len(y) or depth >= max_depth:
        return _leaf(y)
    split = _best_split(X, y, min_samples_leaf)
    if split is None:
        return _leaf(y)
    _, j = split
    mask = X[:, j] > 0.5
    node = _leaf(y)
    node.feature = j
    node.left = _grow(X[~mask], y[~mask], depth + 1, max_depth, min_samples_leaf)
    node.right = _grow(X[mask], y[mask], depth + 1, max_depth, min_samples_leaf)
    return node


def dt_train(X, labels, max_depth: int = 10, min_samples_leaf: int = 2) -> DTModel:
    """Greedy recursive CART-style splitting on binary features."""
    X = np.asarray(X, dtype=np.float64)
    y = np.array([1 if lab == POSITIVE else 0 for lab in labels])
    root = _grow(X, y, 0, max_depth, max(1, min_samples_leaf))
    return DTModel(root, max_depth, min_samples_leaf, X.shape[1])


def _descend(x, model: DTModel) -> DTNode:
    node = model.root
    while node.feature is not None:
        node = node.right if x[node.feature] > 0.5 else node.left
    return node


# ---------------------------------------------------------------------------
# Unified scoring

def classify_fragment(tokens, model, vocab: Vocabulary | None = None) -> float:
    """Score fragment tokens on the unified [-1, 1] scale.

    NB and LR map p_pos -> 2*p_pos - 1; DT uses the leaf class proportion;
    an LSTM model returns its tanh output directly. LR, DT and LSTM need the
    corpus vocabulary to vectorize/encode the tokens.
    """
    from . import lstm as _lstm  # local import: lstm does not depend on this module

    if isinstance(model, NBModel):
        p_pos, _ = nb_predict(tokens, model)
        return 2.0 * p_pos - 1.0
    if isinstance(model, LRModel):
        if vocab is None:
            raise ValueError("vocab required to score with an LRModel")
        return 2.0 * lr_predict(bow_vectorize(tokens, vocab), model) - 1.0
    if isinstance(model, DTModel):
        if vocab is None:
            raise ValueError("vocab required to score with a DTModel")
        leaf = _descend(bow_vectorize(tokens, vocab), model)
        total = leaf.n_pos + leaf.n_neg
        return 2.0 * (leaf.n_pos / total) - 1.0 if total else 0.0
    if isinstance(model, _lstm.LSTMParams):
        if vocab is None:
            raise ValueError("vocab required to score with an LSTM model")
        indices = vocab.encode(tokens)
        if not indices:
            return 0.0  # nothing in vocabulary: neutral
        score, _ = _lstm.lstm_forward(indices, model)
        return score
    raise TypeError(f"unsupported model type {type(model).__name__}")
