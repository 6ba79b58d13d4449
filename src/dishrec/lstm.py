"""Single-layer LSTM sentiment regressor trained with exact backpropagation
through time.

The network embeds each token, runs the standard gated recurrence and maps
the final hidden state through a tanh head to a score in [-1, 1]. Sequences
are processed one at a time at natural length, which keeps BPTT exact.

The four gates are stacked (Hochreiter & Schmidhuber 1997; Graves 2013):
one input matrix W, one recurrent matrix U and one bias b hold a d_h-row
block per gate in GATES order, so a step costs two matvecs forward (W @ e,
U @ h) and one backward (U.T @ da) instead of eight and four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceDetected, EmptyCorpus, IndexOutOfVocabulary, InvalidConfig

GATES = ("i", "f", "o", "c")


@dataclass
class LSTMParams:
    E: np.ndarray        # |V| x d_e embedding
    W: np.ndarray        # 4*d_h x d_e input weights, one d_h-row block per gate
    U: np.ndarray        # 4*d_h x d_h recurrent weights, same blocks
    b: np.ndarray        # 4*d_h gate biases, same blocks
    w_out: np.ndarray    # d_h output head
    b_out: float

    @property
    def d_hidden(self):
        return self.W.shape[0] // len(GATES)

    @property
    def d_embed(self):
        return self.W.shape[1]

    @property
    def vocab_size(self):
        return self.E.shape[0]

    def copy(self) -> "LSTMParams":
        kwargs = {}
        for f in fields(self):
            v = getattr(self, f.name)
            kwargs[f.name] = v.copy() if isinstance(v, np.ndarray) else v
        return LSTMParams(**kwargs)


def init_params(vocab_size: int, d_embed: int = 16, d_hidden: int = 16, seed: int = 0) -> LSTMParams:
    """Uniform(-0.1, 0.1) everywhere; forget-gate bias starts at 1.0."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    # draw order: E, the W blocks, the U blocks, then the i, o, c biases
    E = u(vocab_size, d_embed)
    W = np.concatenate([u(d_hidden, d_embed) for _ in GATES])
    U = np.concatenate([u(d_hidden, d_hidden) for _ in GATES])
    b_i = u(d_hidden)
    b = np.concatenate([b_i, np.ones(d_hidden), u(d_hidden), u(d_hidden)])
    return LSTMParams(E=E, W=W, U=U, b=b, w_out=u(d_hidden), b_out=float(u(1)[0]))


def _sigmoid(z):
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)  # only the safe exponent, exp(-|z|), is ever evaluated
    d = e + 1.0
    out = np.divide(e, d)
    np.divide(1.0, d, out=out, where=z >= 0)
    return out


def lstm_forward(indices, params: LSTMParams):
    """Run the recurrence over a non-empty token-index sequence.

    Returns (score, cache); the cache holds the per-step activations needed
    by lstm_backward as arrays: the embedding rows (n x d_e), gates
    (n x 4*d_h, activated), H and C ((n+1) x d_h, row 0 the zero initial
    state) and tanh_C (n x d_h).
    """
    n = len(indices)
    if n == 0:
        raise ValueError("sequence must be non-empty")
    for t, idx in enumerate(indices):
        if not 0 <= idx < params.vocab_size:
            raise IndexOutOfVocabulary(f"token index {idx} at position {t}")
    d_h = params.d_hidden
    s3 = 3 * d_h
    W, U, b = params.W, params.U, params.b
    rows = params.E[np.asarray(indices)]
    gates = np.empty((n, 4 * d_h))
    H = np.zeros((n + 1, d_h))
    C = np.zeros((n + 1, d_h))
    tanh_C = np.empty((n, d_h))
    G4 = gates.reshape(n, len(GATES), d_h)
    for t in range(n):
        # One matvec per stacked matrix, summed in the per-gate kernel's
        # order, so forward scores equal its scores bit for bit. A single
        # (n x d_e) @ W.T product for all steps goes through a matrix-matrix
        # kernel that returns +-inf where these matvecs return nan on
        # overflow (inf - inf); lr=1e308 training then ran on with infinite
        # weights instead of stopping with DivergenceDetected.
        a = W @ rows[t]
        a += U @ H[t]
        a += b
        g = gates[t]
        g[:s3] = _sigmoid(a[:s3])
        i, f, o, c_tilde = G4[t]
        np.tanh(a[s3:], out=c_tilde)
        c = np.multiply(f, C[t], out=C[t + 1])
        c += i * c_tilde
        np.multiply(o, np.tanh(c, out=tanh_C[t]), out=H[t + 1])
    score = float(np.tanh(params.w_out @ H[n] + params.b_out))
    cache = {"indices": indices, "rows": rows, "gates": gates, "H": H, "C": C, "tanh_C": tanh_C,
             "score": score, "params": params}
    return score, cache


def lstm_loss(score: float, label: float) -> float:
    return (score - label) ** 2


@dataclass
class LSTMGrads:
    E: np.ndarray
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: float

    def inf_norm(self) -> float:
        worst = abs(self.b_out)
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray) and v.size:
                worst = max(worst, float(np.max(np.abs(v))))
        return worst

    def scale(self, factor: float):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v *= factor
        self.b_out *= factor


def lstm_backward(cache, label: float) -> LSTMGrads:
    """Exact gradients of (score - label)^2 via BPTT over the full sequence.

    Each step fills one row of DA, the gradient at the stacked gate
    pre-activations; the weight gradients are then three products over all
    steps at once.
    """
    params: LSTMParams = cache["params"]
    indices = cache["indices"]
    gates, H, C, tanh_C = cache["gates"], cache["H"], cache["C"], cache["tanh_C"]
    score = cache["score"]
    n, d_h = len(gates), params.d_hidden
    s3 = 3 * d_h
    i, f, o, c_tilde = (gates[:, k * d_h:(k + 1) * d_h] for k in range(len(GATES)))
    UT = params.U.T

    # Per-step factors that do not depend on the backward state: the
    # gradient at the stacked pre-activations is DA[t] = Q[t] * [dc, dc, dh, dc]
    # and dc picks up dh * O[t] from the output gate.
    D = gates * (1.0 - gates)
    D[:, s3:] = 1.0 - c_tilde * c_tilde
    Q = np.concatenate((c_tilde, C[:-1], tanh_C, i), axis=1)
    Q *= D
    O = o * (1.0 - tanh_C * tanh_C)

    # head: score = tanh(w_out . h_T + b_out)
    d_pre_out = 2.0 * (score - label) * (1.0 - score * score)
    DA = np.empty((n, 4 * d_h))
    dh = d_pre_out * params.w_out
    dc = np.zeros(d_h)
    for t in range(n - 1, -1, -1):
        dc = dc + dh * O[t]
        da = DA[t]
        np.multiply(Q[t], np.concatenate((dc, dc, dh, dc)), out=da)
        dh = UT @ da
        dc = dc * f[t]

    gE = np.zeros(params.E.shape)
    for idx, row in zip(indices, DA @ params.W):
        gE[idx] += row
    return LSTMGrads(
        E=gE, W=DA.T @ cache["rows"], U=DA.T @ H[:-1], b=DA.sum(axis=0),
        w_out=d_pre_out * H[n], b_out=d_pre_out,
    )


def lstm_train(corpus, params: LSTMParams, lr: float = 0.05, epochs: int = 50,
               seed: int = 0, clip_threshold: float | None = None):
    """Plain per-sample SGD over (index sequence, label in {-1, +1}) pairs.

    The per-epoch visit order is a seeded shuffle; gradient clipping (on the
    gradient infinity norm) is off unless clip_threshold is given, and then
    it must be finite and positive (InvalidConfig). Returns (trained params,
    mean loss per epoch). Raises EmptyCorpus for an empty corpus and
    DivergenceDetected when the loss stops being finite; the overflow that
    causes it is reported that way, not as warnings.
    """
    if clip_threshold is not None and not (math.isfinite(clip_threshold) and clip_threshold > 0):
        raise InvalidConfig(f"clip_threshold must be finite and positive, got {clip_threshold!r}")
    n = len(corpus)
    if n == 0:
        raise EmptyCorpus("no training sequences")
    params = params.copy()
    rng = np.random.default_rng(seed)
    epoch_losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for k in order:
                indices, label = corpus[k]
                score, cache = lstm_forward(indices, params)
                loss = lstm_loss(score, label)
                if not np.isfinite(loss):
                    raise DivergenceDetected(f"loss became {loss}")
                total += loss
                grads = lstm_backward(cache, label)
                if clip_threshold is not None:
                    norm = grads.inf_norm()
                    if norm > clip_threshold:
                        grads.scale(clip_threshold / norm)
                _apply_sgd(params, grads, lr)
            epoch_losses.append(total / n)
    return params, epoch_losses


def _apply_sgd(params: LSTMParams, grads: LSTMGrads, lr: float):
    for f in fields(LSTMParams):
        p = getattr(params, f.name)
        g = getattr(grads, f.name)
        if isinstance(p, np.ndarray):
            p -= lr * g
        else:
            setattr(params, f.name, p - lr * g)
