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
from .lstm import LSTMParams
from .sentiment import DTModel, DTNode, LRModel, NBModel

FORMAT = "dishrec-model"
VERSION = 1


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
                name: (_arr(getattr(model, name)) if name != "b_out" else model.b_out)
                for name in ("E", "W_i", "W_f", "W_o", "W_c", "U_i", "U_f", "U_o", "U_c",
                             "b_i", "b_f", "b_o", "b_c", "w_out", "b_out")
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
        kwargs = {
            name: (np.array(params[name]) if name != "b_out" else float(params[name]))
            for name in ("E", "W_i", "W_f", "W_o", "W_c", "U_i", "U_f", "U_o", "U_c",
                         "b_i", "b_f", "b_o", "b_c", "w_out", "b_out")
        }
        return LSTMParams(**kwargs), vocab
    raise ModelFormatError(f"unknown model kind {kind!r}")
