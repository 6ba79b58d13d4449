import json

import pytest

from dishrec.corpus import NEGATIVE, POSITIVE, build_vocabulary
from dishrec.errors import ModelFormatError
from dishrec.lstm import init_params, lstm_forward, lstm_train
from dishrec.modelio import load_model, save_model
from dishrec.sentiment import (
    bow_matrix,
    classify_fragment,
    dt_train,
    lr_train,
    nb_predict,
    nb_train,
)
from dishrec.synth import separable_sequences

DOCS = [["good", "tasty"], ["bad"], ["good"], ["awful", "bad"], ["tasty"]]
LABELS = [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE, POSITIVE]
PROBES = [["good"], ["bad", "awful"], ["tasty", "zzz"], [], ["good", "bad"]]


def test_nb_roundtrip_bit_exact(tmp_path):
    model = nb_train(DOCS, LABELS, alpha=0.7)
    path = tmp_path / "nb.json"
    save_model(model, path, seed=3)
    loaded, vocab = load_model(path)
    for probe in PROBES:
        assert nb_predict(probe, loaded) == nb_predict(probe, model)
    doc = json.loads(path.read_text())
    assert doc["format"] == "dishrec-model" and doc["version"] == 1
    assert doc["seed"] == 3


def test_lr_roundtrip_bit_exact(tmp_path):
    vocab = build_vocabulary(DOCS, 1)
    model = lr_train(bow_matrix(DOCS, vocab), LABELS, epochs=60)
    path = tmp_path / "lr.json"
    save_model(model, path, vocab=vocab)
    loaded, loaded_vocab = load_model(path)
    assert loaded_vocab.index == vocab.index
    for probe in PROBES:
        assert classify_fragment(probe, loaded, loaded_vocab) == classify_fragment(
            probe, model, vocab
        )


def test_dt_roundtrip_bit_exact(tmp_path):
    vocab = build_vocabulary(DOCS, 1)
    model = dt_train(bow_matrix(DOCS, vocab), LABELS, max_depth=4, min_samples_leaf=1)
    path = tmp_path / "dt.json"
    save_model(model, path, vocab=vocab)
    loaded, loaded_vocab = load_model(path)
    for probe in PROBES:
        assert classify_fragment(probe, loaded, loaded_vocab) == classify_fragment(
            probe, model, vocab
        )


def test_lstm_roundtrip_bit_exact(tmp_path):
    train, _, tokens = separable_sequences(2, n_train=30, n_test=5, vocab_size=8)
    vocab = build_vocabulary([tokens], 1)
    params = init_params(len(vocab), 4, 4, seed=2)
    trained, _ = lstm_train(train, params, lr=0.05, epochs=5, seed=2)
    path = tmp_path / "lstm.json"
    save_model(trained, path, vocab=vocab)
    loaded, _ = load_model(path)
    for seq, _ in train[:10]:
        assert lstm_forward(seq, loaded)[0] == lstm_forward(seq, trained)[0]


def test_rejects_foreign_documents(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text(
        json.dumps({"format": "dishrec-model", "version": 99, "kind": "nb", "params": {}}),
        encoding="utf-8",
    )
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_fm_document_is_an_unknown_kind(tmp_path):
    path = tmp_path / "fm.json"
    path.write_text(json.dumps({
        "format": "dishrec-model", "version": 1, "kind": "fm",
        "hyperparameters": {"kdim": 1, "lambda_w": 0.0, "lambda_v": 0.0},
        "params": {"w0": 0.0, "w": [0.0], "V": [[0.0]]},
    }), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="unknown model kind 'fm'"):
        load_model(path)


def test_vocabulary_hash_verified(tmp_path):
    model = nb_train(DOCS, LABELS)
    path = tmp_path / "nb.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["vocabulary"]["tokens"][0] = "tampered"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)
