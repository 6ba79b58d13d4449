"""Versioned JSON model documents.

Every document records the sentiment model kind (nb, lr, dt or lstm), its
hyperparameters, the fitted vocabulary (ordered token list plus sha256) and
the parameters. JSON serializes doubles via repr, so a load/save round trip
reproduces predictions bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .corpus import Vocabulary
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


def _vocab_from_doc(doc):
    vocab = Vocabulary({t: i for i, t in enumerate(doc["tokens"])}, doc["min_count"])
    if vocab.sha256() != doc["sha256"]:
        raise ModelFormatError("vocabulary hash mismatch")
    return vocab


def _tree_doc(node: DTNode):
    doc = {"label": node.label, "n_pos": node.n_pos, "n_neg": node.n_neg}
    if node.feature is not None:
        doc["feature"] = node.feature
        doc["left"] = _tree_doc(node.left)
        doc["right"] = _tree_doc(node.right)
    return doc


def _tree_from_doc(doc):
    node = DTNode(doc.get("feature"), doc["label"], doc["n_pos"], doc["n_neg"])
    if node.feature is not None:
        node.left = _tree_from_doc(doc["left"])
        node.right = _tree_from_doc(doc["right"])
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
    """Load a model document as (model, vocab)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ModelFormatError(f"not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise ModelFormatError(f"unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    params = doc["params"]
    if kind == "nb":
        vocab = _vocab_from_doc(doc["vocabulary"])
        model = NBModel(
            log_prior={c: float(v) for c, v in params["log_prior"].items()},
            log_likelihood={c: np.array(v) for c, v in params["log_likelihood"].items()},
            alpha=doc["hyperparameters"]["alpha"],
            vocab=vocab,
        )
        return model, vocab
    if kind == "lr":
        vocab = _vocab_from_doc(doc["vocabulary"])
        return LRModel(np.array(params["weights"]), params["bias"],
                       doc["hyperparameters"]["l2"]), vocab
    if kind == "dt":
        vocab = _vocab_from_doc(doc["vocabulary"])
        hyper = doc["hyperparameters"]
        return DTModel(_tree_from_doc(params["tree"]), hyper["max_depth"],
                       hyper["min_samples_leaf"], hyper["n_features"]), vocab
    if kind == "lstm":
        vocab = _vocab_from_doc(doc["vocabulary"])
        return _lstm_from_doc(params), vocab
    raise ModelFormatError(f"unknown model kind {kind!r}")


def _lstm_array(params, key, ndim):
    if key not in params:
        raise ModelFormatError(f"lstm document lacks {key!r}")
    try:
        a = np.array(params[key], dtype=float)
    except (TypeError, ValueError):
        raise ModelFormatError(f"lstm {key!r} is not a numeric array") from None
    if a.ndim != ndim:
        raise ModelFormatError(f"lstm {key!r} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ModelFormatError(f"lstm {key!r} has a non-finite value")
    return a


def _lstm_from_doc(params):
    """Stack the per-gate blocks, checking every shape against E and w_out."""
    E = _lstm_array(params, "E", 2)
    w_out = _lstm_array(params, "w_out", 1)
    b_out = _lstm_array(params, "b_out", 0)
    d_h, d_e = len(w_out), E.shape[1]
    expected = {"W": (d_h, d_e), "U": (d_h, d_h), "b": (d_h,)}
    stacked = {}
    for name, keys in _LSTM_GATE_KEYS.items():
        blocks = []
        for key in keys:
            block = _lstm_array(params, key, len(expected[name]))
            if block.shape != expected[name]:
                raise ModelFormatError(
                    f"lstm {key!r} has shape {block.shape}, expected {expected[name]}")
            blocks.append(block)
        stacked[name] = np.concatenate(blocks)
    return LSTMParams(E=E, w_out=w_out, b_out=float(b_out), **stacked)
