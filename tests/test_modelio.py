import json

import numpy as np
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

from oracles import (
    LSTM_REFERENCE_PARAMS,
    lstm_forward_reference,
    lstm_init_reference,
    lstm_per_gate,
    lstm_train_reference,
)

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


def _saved_lstm_doc(tmp_path):
    _, _, tokens = separable_sequences(2, n_train=5, n_test=5, vocab_size=8)
    vocab = build_vocabulary([tokens], 1)
    path = tmp_path / "lstm.json"
    save_model(init_params(len(vocab), 3, 4, seed=2), path, vocab=vocab)
    return path, json.loads(path.read_text())


def test_lstm_document_keeps_the_per_gate_layout(tmp_path):
    _, doc = _saved_lstm_doc(tmp_path)
    assert sorted(doc["params"]) == sorted(LSTM_REFERENCE_PARAMS)
    assert doc["version"] == 1
    assert doc["hyperparameters"] == {"d_embed": 3, "d_hidden": 4}
    assert len(doc["params"]["W_o"]) == 4 and len(doc["params"]["U_c"][0]) == 4


def test_parent_layout_document_loads_and_scores_bit_exactly(tmp_path):
    # A document written from per-gate parameters, as saved before the gates
    # were stacked; the reference trainer stands in for that kernel.
    train, _, tokens = separable_sequences(2, n_train=30, n_test=5, vocab_size=8)
    vocab = build_vocabulary([tokens], 1)
    ref, _ = lstm_train_reference(train, lstm_init_reference(len(vocab), 4, 4, seed=2),
                                  lr=0.05, epochs=5, seed=2)
    params = {name: (getattr(ref, name).tolist() if name != "b_out" else ref.b_out)
              for name in LSTM_REFERENCE_PARAMS}
    doc = {"format": "dishrec-model", "version": 1, "kind": "lstm",
           "hyperparameters": {"d_embed": 4, "d_hidden": 4},
           "vocabulary": {"tokens": vocab.tokens, "min_count": vocab.min_count,
                          "sha256": vocab.sha256()},
           "params": params}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded, _ = load_model(path)
    split = lstm_per_gate(loaded)
    for name in LSTM_REFERENCE_PARAMS:
        assert np.array_equal(getattr(split, name), getattr(ref, name)), name
    for seq, _ in train:
        assert lstm_forward(seq, loaded)[0] == lstm_forward_reference(seq, ref)[0]
    resaved = tmp_path / "new.json"
    save_model(loaded, resaved, vocab=vocab)
    assert json.loads(resaved.read_text())["params"] == json.loads(json.dumps(params))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p.pop("U_f"), id="missing-U_f"),
    pytest.param(lambda p: p.__setitem__("W_o", p["W_o"][:3]), id="W_o-three-rows"),
    pytest.param(lambda p: p.__setitem__("U_i", [row[:2] for row in p["U_i"]]), id="U_i-narrow"),
    pytest.param(lambda p: p.__setitem__("b_c", p["b_c"] + [0.0]), id="b_c-long"),
    pytest.param(lambda p: p.__setitem__("W_f", [row + [0.0] for row in p["W_f"]]),
                 id="W_f-wider-than-E"),
    pytest.param(lambda p: p.__setitem__("w_out", p["w_out"][:3]), id="w_out-short"),
    pytest.param(lambda p: p.__setitem__("b_out", [0.0]), id="b_out-not-scalar"),
    pytest.param(lambda p: p.__setitem__("E", [1.0, 2.0]), id="E-one-dimensional"),
    pytest.param(lambda p: p.__setitem__("b_i", ["x"] * 4), id="b_i-not-numeric"),
    pytest.param(lambda p: p.__setitem__("W_c", [[0.0]] * 3 + [[0.0, 1.0]]), id="W_c-ragged"),
    pytest.param(lambda p: p["b_f"].__setitem__(0, None), id="b_f-null"),
])
def test_malformed_lstm_document_is_a_format_error(tmp_path, edit):
    path, doc = _saved_lstm_doc(tmp_path)
    edit(doc["params"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


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


def _saved_doc(tmp_path, kind):
    """A document save_model wrote for a model trained on DOCS; the
    vocabulary has 4 tokens."""
    vocab = build_vocabulary(DOCS, 1)
    X = bow_matrix(DOCS, vocab)
    model = {
        "nb": lambda: nb_train(DOCS, LABELS),
        "lr": lambda: lr_train(X, LABELS, epochs=5),
        "dt": lambda: dt_train(X, LABELS, max_depth=4, min_samples_leaf=1),
    }[kind]()
    path = tmp_path / f"{kind}.json"
    save_model(model, path, vocab=vocab)
    doc = json.loads(path.read_text())
    if kind == "dt":
        assert doc["params"]["tree"]["feature"] is not None  # the split cases edit a split
    return path, doc


def _grow_list(value):
    value.append(0.0)


@pytest.mark.parametrize("kind, edit", [
    pytest.param("nb", lambda d: d["hyperparameters"].pop("alpha"), id="nb-missing-alpha"),
    pytest.param("nb", lambda d: d["hyperparameters"].__setitem__("alpha", "1"),
                 id="nb-alpha-not-a-number"),
    pytest.param("nb", lambda d: d["hyperparameters"].__setitem__("alpha", 0.0),
                 id="nb-alpha-zero"),
    pytest.param("nb", lambda d: d["params"]["log_prior"].pop("positive"),
                 id="nb-missing-prior"),
    pytest.param("nb", lambda d: d["params"]["log_prior"].__setitem__("negative", None),
                 id="nb-prior-null"),
    pytest.param("nb", lambda d: _grow_list(d["params"]["log_likelihood"]["negative"]),
                 id="nb-likelihood-longer-than-vocabulary"),
    pytest.param("nb", lambda d: d["params"]["log_likelihood"]["positive"].pop(),
                 id="nb-likelihood-shorter-than-vocabulary"),
    pytest.param("lr", lambda d: d["params"]["weights"].extend([0.0, 0.0]),
                 id="lr-weights-longer-than-vocabulary"),
    pytest.param("lr", lambda d: d["params"].__setitem__("weights", [[0.0]] * 4),
                 id="lr-weights-two-dimensional"),
    pytest.param("lr", lambda d: d["params"]["weights"].__setitem__(0, "0.5"),
                 id="lr-weight-a-string"),
    pytest.param("lr", lambda d: d["params"]["weights"].__setitem__(0, True),
                 id="lr-weight-a-boolean"),
    pytest.param("lr", lambda d: d["params"].__setitem__("bias", float("nan")),
                 id="lr-bias-nan"),
    pytest.param("lr", lambda d: d["hyperparameters"].pop("l2"), id="lr-missing-l2"),
    pytest.param("dt", lambda d: d["hyperparameters"].__setitem__("n_features", 5),
                 id="dt-n_features-not-vocabulary-size"),
    pytest.param("dt", lambda d: d["hyperparameters"].__setitem__("max_depth", 4.5),
                 id="dt-max_depth-not-an-integer"),
    pytest.param("dt", lambda d: d["params"]["tree"].__setitem__("feature", 4),
                 id="dt-split-feature-outside-vocabulary"),
    pytest.param("dt", lambda d: d["params"]["tree"].__setitem__("feature", -1),
                 id="dt-split-feature-negative"),
    pytest.param("dt", lambda d: d["params"]["tree"].pop("left"), id="dt-split-without-left"),
    pytest.param("dt", lambda d: d["params"]["tree"]["right"].__setitem__("label", "maybe"),
                 id="dt-unknown-label"),
    pytest.param("dt", lambda d: d["params"]["tree"].__setitem__("n_pos", -1),
                 id="dt-negative-count"),
    pytest.param("nb", lambda d: d["vocabulary"].pop("tokens"), id="vocabulary-without-tokens"),
    pytest.param("lr", lambda d: d["vocabulary"]["tokens"].__setitem__(
        1, d["vocabulary"]["tokens"][0]), id="vocabulary-token-repeated"),
    pytest.param("dt", lambda d: d.__setitem__("params", []), id="params-not-an-object"),
])
def test_malformed_sentiment_document_is_a_format_error(tmp_path, kind, edit):
    path, doc = _saved_doc(tmp_path, kind)
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_json_list_document_is_a_format_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"format": "dishrec-model", "version": 1}]), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not a dishrec-model document"):
        load_model(path)
