"""Versioned JSON model documents.

Every document records the sentiment model kind (nb, lr, dt or lstm), its
hyperparameters, the fitted vocabulary (ordered token list plus sha256) and
the parameters. JSON serializes doubles via repr, so a load/save round trip
reproduces predictions bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .corpus import NEGATIVE, POSITIVE, Vocabulary
from .errors import ModelFormatError
from .lstm import GATES, LSTMParams
from .sentiment import DTModel, DTNode, LRModel, NBModel

FORMAT = "dishrec-model"
VERSION = 1

# An LSTM document stores each stacked matrix as one key per gate block, in
# GATES order: W -> W_i, W_f, W_o, W_c; likewise U and b.
_LSTM_GATE_KEYS = {name: tuple(f"{name}_{gate}" for gate in GATES) for name in ("W", "U", "b")}


def _arr(a):
    return np.asarray(a).tolist()


def _vocab_doc(vocab: Vocabulary):
    return {"tokens": vocab.tokens, "min_count": vocab.min_count, "sha256": vocab.sha256()}


def _field(obj, key, where):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} is not a JSON object")
    if key not in obj:
        raise ModelFormatError(f"{where} lacks {key!r}")
    return obj[key]


def _number(value, name):
    """A finite JSON number, returned as it is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{name} is not a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ModelFormatError(f"{name} is not finite")
    return value


def _integer(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{name} is not an integer")
    return value


def _has_bool(value):
    return isinstance(value, bool) or (
        isinstance(value, list) and any(_has_bool(v) for v in value))


def _array(value, name, shape):
    """A finite float array of the given shape; None in ``shape`` matches
    any length."""
    try:
        a = np.array(value)
    except ValueError:  # ragged nesting
        raise ModelFormatError(f"{name} is not a numeric array") from None
    # numpy reads true/false among numbers as 1.0/0.0
    if a.dtype.kind not in "iuf" or _has_bool(value):
        raise ModelFormatError(f"{name} is not a numeric array")
    if a.ndim != len(shape) or any(n not in (None, d) for n, d in zip(shape, a.shape)):
        raise ModelFormatError(f"{name} has shape {a.shape}, expected {shape}")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ModelFormatError(f"{name} has a non-finite value")
    return a


def _vocab_from_doc(doc):
    tokens = _field(doc, "tokens", "vocabulary")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise ModelFormatError("vocabulary tokens are not a list of strings")
    if len(set(tokens)) != len(tokens):
        raise ModelFormatError("vocabulary tokens repeat")
    min_count = _integer(_field(doc, "min_count", "vocabulary"), "vocabulary min_count")
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, min_count)
    if vocab.sha256() != _field(doc, "sha256", "vocabulary"):
        raise ModelFormatError("vocabulary hash mismatch")
    return vocab


def _tree_doc(node: DTNode):
    doc = {"label": node.label, "n_pos": node.n_pos, "n_neg": node.n_neg}
    if node.feature is not None:
        doc["feature"] = node.feature
        doc["left"] = _tree_doc(node.left)
        doc["right"] = _tree_doc(node.right)
    return doc


def _tree_from_doc(doc, n_features):
    where = "dt tree node"
    label = _field(doc, "label", where)
    if label not in (POSITIVE, NEGATIVE):
        raise ModelFormatError(f"dt node label {label!r} is not {POSITIVE!r} or {NEGATIVE!r}")
    counts = [_integer(_field(doc, key, where), f"dt {key!r}") for key in ("n_pos", "n_neg")]
    if min(counts) < 0:
        raise ModelFormatError("dt node has a negative count")
    node = DTNode(doc.get("feature"), label, *counts)
    if node.feature is not None:
        if not 0 <= _integer(node.feature, "dt 'feature'") < n_features:
            raise ModelFormatError(f"dt split feature {node.feature} outside [0, {n_features})")
        node.left = _tree_from_doc(_field(doc, "left", where), n_features)
        node.right = _tree_from_doc(_field(doc, "right", where), n_features)
    return node


def save_model(model, path, vocab: Vocabulary | None = None, seed=None):
    """Serialize a trained model. NB models carry their own vocabulary; LR,
    DT and LSTM models need the fitting vocabulary passed in."""
    if isinstance(model, NBModel):
        doc = {
            "kind": "nb",
            "hyperparameters": {"alpha": model.alpha},
            "vocabulary": _vocab_doc(model.vocab),
            "params": {
                "log_prior": model.log_prior,
                "log_likelihood": {c: _arr(v) for c, v in model.log_likelihood.items()},
            },
        }
    elif isinstance(model, LRModel):
        if vocab is None:
            raise ValueError("vocab required to save an LRModel")
        doc = {
            "kind": "lr",
            "hyperparameters": {"l2": model.l2},
            "vocabulary": _vocab_doc(vocab),
            "params": {"weights": _arr(model.weights), "bias": model.bias},
        }
    elif isinstance(model, DTModel):
        if vocab is None:
            raise ValueError("vocab required to save a DTModel")
        doc = {
            "kind": "dt",
            "hyperparameters": {
                "max_depth": model.max_depth,
                "min_samples_leaf": model.min_samples_leaf,
                "n_features": model.n_features,
            },
            "vocabulary": _vocab_doc(vocab),
            "params": {"tree": _tree_doc(model.root)},
        }
    elif isinstance(model, LSTMParams):
        if vocab is None:
            raise ValueError("vocab required to save an LSTM model")
        doc = {
            "kind": "lstm",
            "hyperparameters": {"d_embed": model.d_embed, "d_hidden": model.d_hidden},
            "vocabulary": _vocab_doc(vocab),
            "params": {
                "E": _arr(model.E), "w_out": _arr(model.w_out), "b_out": model.b_out,
                **{key: _arr(block)
                   for name, keys in _LSTM_GATE_KEYS.items()
                   for key, block in zip(keys, np.split(getattr(model, name), len(GATES)))},
            },
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    doc["format"] = FORMAT
    doc["version"] = VERSION
    if seed is not None:
        doc["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path):
    """Load a model document as (model, vocab).

    Raises ModelFormatError when a key is missing, a value has the wrong
    type, or a parameter's shape does not fit the vocabulary.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ModelFormatError(f"not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise ModelFormatError(f"unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in ("nb", "lr", "dt", "lstm"):
        raise ModelFormatError(f"unknown model kind {kind!r}")
    vocab = _vocab_from_doc(_field(doc, "vocabulary", "document"))
    params = _field(doc, "params", "document")
    if kind == "lstm":
        return _lstm_from_doc(params, len(vocab)), vocab
    hyper = _field(doc, "hyperparameters", "document")
    if kind == "nb":
        priors = _field(params, "log_prior", "nb params")
        likelihoods = _field(params, "log_likelihood", "nb params")
        classes = (POSITIVE, NEGATIVE)
        alpha = _number(_field(hyper, "alpha", "nb hyperparameters"), "nb 'alpha'")
        if alpha <= 0:
            raise ModelFormatError("nb 'alpha' must be > 0")
        model = NBModel(
            log_prior={c: float(_number(_field(priors, c, "nb log_prior"), f"nb log_prior {c!r}"))
                       for c in classes},
            log_likelihood={c: _array(_field(likelihoods, c, "nb log_likelihood"),
                                      f"nb log_likelihood {c!r}", (len(vocab),))
                            for c in classes},
            alpha=alpha,
            vocab=vocab,
        )
        return model, vocab
    if kind == "lr":
        weights = _array(_field(params, "weights", "lr params"), "lr 'weights'", (len(vocab),))
        bias = _number(_field(params, "bias", "lr params"), "lr 'bias'")
        l2 = _number(_field(hyper, "l2", "lr hyperparameters"), "lr 'l2'")
        return LRModel(weights, bias, l2), vocab
    max_depth, min_samples_leaf, n_features = (
        _integer(_field(hyper, key, "dt hyperparameters"), f"dt {key!r}")
        for key in ("max_depth", "min_samples_leaf", "n_features"))
    if n_features != len(vocab):
        raise ModelFormatError(f"dt n_features {n_features} != vocabulary size {len(vocab)}")
    root = _tree_from_doc(_field(params, "tree", "dt params"), n_features)
    return DTModel(root, max_depth, min_samples_leaf, n_features), vocab


def _lstm_from_doc(params, vocab_size):
    """Stack the per-gate blocks, checking every shape against the
    vocabulary, E and w_out."""
    def array(key, shape):
        return _array(_field(params, key, "lstm document"), f"lstm {key!r}", shape)

    E = array("E", (vocab_size, None))
    w_out = array("w_out", (None,))
    b_out = _number(_field(params, "b_out", "lstm document"), "lstm 'b_out'")
    d_h, d_e = len(w_out), E.shape[1]
    expected = {"W": (d_h, d_e), "U": (d_h, d_h), "b": (d_h,)}
    stacked = {name: np.concatenate([array(key, expected[name]) for key in keys])
               for name, keys in _LSTM_GATE_KEYS.items()}
    return LSTMParams(E=E, w_out=w_out, b_out=float(b_out), **stacked)
