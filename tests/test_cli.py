import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dishrec.cli import SETTINGS, load_config, main
from dishrec.errors import InputError
from dishrec.synth import synth_corpus, write_corpus_dir


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "synth"
    assert main(["synth", "--seed", "3", "--users", "14", "--restaurants", "5",
                 "--items", "5", "--noise", "0.1", "--out", str(out)]) == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthAndIngest:
    def test_synth_writes_gold_files(self, corpus_dir):
        assert (corpus_dir / "reviews.jsonl").exists()
        assert (corpus_dir / "gold" / "ratings.tsv").exists()
        meta = json.loads((corpus_dir / "meta.json").read_text())
        assert meta["seed"] == 3

    def test_ingest_counts(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "normalized.jsonl"
        code, stdout, _ = run(capsys, [
            "ingest",
            "--reviews", str(corpus_dir / "reviews.jsonl"),
            "--restaurants", str(corpus_dir / "restaurants.jsonl"),
            "--lexicons", str(corpus_dir / "lexicons"),
            "--out", str(out),
        ])
        assert code == 0
        assert "ingested" in stdout and "seed=0" in stdout
        assert len(out.read_text().splitlines()) > 0

    def test_ingest_missing_file_exits_2_without_output(self, tmp_path, capsys, corpus_dir):
        out = tmp_path / "never.jsonl"
        code, _, err = run(capsys, [
            "ingest", "--reviews", str(tmp_path / "absent.jsonl"),
            "--restaurants", str(corpus_dir / "restaurants.jsonl"),
            "--lexicons", str(corpus_dir / "lexicons"),
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_ingest_malformed_reports_line(self, tmp_path, capsys, corpus_dir):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"review_id": "a", "restaurant_id": "r", "user_id": "u", '
                       '"stars": 9, "text": "hi"}\n', encoding="utf-8")
        out = tmp_path / "never.jsonl"
        code, _, err = run(capsys, [
            "ingest", "--reviews", str(bad),
            "--restaurants", str(corpus_dir / "restaurants.jsonl"),
            "--lexicons", str(corpus_dir / "lexicons"),
            "--out", str(out),
        ])
        assert code == 2
        assert "line 1" in err
        assert not out.exists()

    def test_empty_reviews_warns(self, tmp_path, capsys, corpus_dir):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "norm.jsonl"
        code, stdout, err = run(capsys, [
            "ingest", "--reviews", str(empty),
            "--restaurants", str(corpus_dir / "restaurants.jsonl"),
            "--lexicons", str(corpus_dir / "lexicons"),
            "--out", str(out),
        ])
        assert code == 0
        assert "warning" in err
        assert out.exists() and out.read_text() == ""


class TestTrainSentiment:
    @pytest.mark.parametrize("model", ["nb", "bow-lr", "bow-dt"])
    @pytest.mark.parametrize("labels", ["manual", "threshold:2.5"])
    def test_modes_produce_report_line(self, corpus_dir, tmp_path, capsys, model, labels):
        out = tmp_path / f"{model}.json"
        code, stdout, _ = run(capsys, [
            "train-sentiment", "--model", model, "--corpus", str(corpus_dir),
            "--labels", labels, "--out", str(out), "--seed", "5",
        ])
        assert code == 0
        assert "f_score=" in stdout and "seed=5" in stdout
        assert out.exists()

    def test_lstm_mode(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "lstm.json"
        code, stdout, _ = run(capsys, [
            "train-sentiment", "--model", "lstm", "--corpus", str(corpus_dir),
            "--labels", "manual", "--out", str(out), "--seed", "5", "--epochs", "3",
        ])
        assert code == 0
        assert out.exists()

    def test_invalid_model_name_usage_error(self, corpus_dir, tmp_path, capsys):
        code, _, err = run(capsys, [
            "train-sentiment", "--model", "svm", "--corpus", str(corpus_dir),
            "--labels", "manual", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 64

    def test_rerun_same_seed_identical_report(self, corpus_dir, tmp_path, capsys):
        argv = ["train-sentiment", "--model", "nb", "--corpus", str(corpus_dir),
                "--labels", "manual", "--out", str(tmp_path / "m.json"), "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_single_class_exits_3(self, tmp_path, capsys):
        corpus = synth_corpus(1, 6, 3, 3, noise=0.0, good_per_item=3)
        # all planted ratings high -> every fragment positive
        assert all(v == "positive" for v in corpus.fragment_labels.values())
        d = tmp_path / "allpos"
        write_corpus_dir(corpus, d)
        code, _, err = run(capsys, [
            "train-sentiment", "--model", "nb", "--corpus", str(d),
            "--labels", "manual", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3

    def test_bow_lr_divergence_exits_3(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, [
            "train-sentiment", "--model", "bow-lr", "--corpus", str(corpus_dir),
            "--labels", "manual", "--lr", "1e308", "--out", str(out),
        ])
        assert code == 3
        assert "non-finite" in err
        assert not out.exists()

    def test_lstm_divergence_exits_3_without_warnings(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, [
                "train-sentiment", "--model", "lstm", "--corpus", str(corpus_dir),
                "--labels", "manual", "--epochs", "2", "--lr", "1e308", "--out", str(out),
            ])
        assert code == 3
        assert "loss became nan" in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


class TestRecommend:
    def test_ranked_rows(self, corpus_dir, capsys):
        code, stdout, _ = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "pasta", "--method", "user", "--top-k", "3", "--seed", "3",
        ])
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("# seed=3")
        rows = lines[1:]
        assert 1 <= len(rows) <= 3
        scores = [float(r.split("\t")[1]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_item_exits_4(self, corpus_dir, capsys):
        code, _, err = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "unobtainium",
        ])
        assert code == 4

    def test_unknown_user_exits_4(self, corpus_dir, capsys):
        code, _, _ = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "ghost",
            "--item", "pasta", "--method", "user",
        ])
        assert code == 4

    def test_side_weight_zero_matches_rating_ranking(self, corpus_dir, capsys):
        code, out_zero, _ = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "pasta", "--method", "baseline", "--side-weight", "0",
            "--seed", "3",
        ])
        assert code == 0
        code, out_again, _ = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "pasta", "--method", "baseline", "--side-weight", "0",
            "--seed", "3",
        ])
        assert out_zero == out_again

    def test_neighbors_zero_uses_every_rater(self, corpus_dir, capsys):
        base = ["recommend", "--corpus", str(corpus_dir), "--user", "u000",
                "--item", "pasta", "--method", "user", "--neighbors"]
        code, out_zero, _ = run(capsys, base + ["0"])
        assert code == 0
        assert run(capsys, base + ["1000"]) == (0, out_zero, "")
        assert run(capsys, base + ["1"])[1] != out_zero


class TestSidesAndEvaluate:
    def test_louvain_export(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "partition.tsv"
        code, stdout, _ = run(capsys, [
            "sides", "--corpus", str(corpus_dir), "--method", "louvain",
            "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=3"
        assert all(len(l.split("\t")) == 2 for l in lines[1:])

    def test_lda_export(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "topics.tsv"
        code, stdout, _ = run(capsys, [
            "sides", "--corpus", str(corpus_dir), "--method", "lda",
            "--out", str(out), "--seed", "3", "--topics", "3", "--iterations", "50",
        ])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body
        for line in body:
            topic, token, prob = line.split("\t")
            assert 0.0 <= float(prob) <= 1.0

    def test_evaluate_writes_report(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, [
            "evaluate", "--corpus", str(corpus_dir), "--methods", "baseline,user",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert "baseline" in stdout
        doc = json.loads(out.read_text())
        assert doc["seed"] == 3
        assert [r["method"] for r in doc["reports"]] == ["baseline", "user"]


class TestConfigAndDeterminism:
    def test_config_precedence_and_unknown_key(self, corpus_dir, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "dishrec.cfg"
        cfg.write_text("seed = 11\ntop_k = 2\n", encoding="utf-8")
        monkeypatch.setenv("FIDUCIA_CONFIG", str(cfg))
        code, stdout, _ = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "pasta", "--method", "baseline",
        ])
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("# seed=11")  # seed came from the config file
        assert len(lines) - 1 <= 2              # top_k came from the config file
        cfg.write_text("mystery = 1\n", encoding="utf-8")
        code, _, err = run(capsys, [
            "recommend", "--corpus", str(corpus_dir), "--user", "u000",
            "--item", "pasta", "--method", "baseline",
        ])
        assert code == 2
        assert "unknown key" in err

    def test_byte_identical_artifacts_across_reruns(self, tmp_path, capsys):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            assert main(["synth", "--seed", "8", "--users", "10", "--restaurants", "4",
                         "--items", "4", "--noise", "0.1", "--out", str(d)]) == 0
        capsys.readouterr()
        for name in ("reviews.jsonl", "restaurants.jsonl", "items.tsv", "meta.json",
                     "gold/ratings.tsv", "gold/fragment_labels.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

        r1, r2 = tmp_path / "rep1.json", tmp_path / "rep2.json"
        for r in (r1, r2):
            assert main(["evaluate", "--corpus", str(d1), "--methods", "baseline,user,item,fm",
                         "--seed", "8", "--out", str(r)]) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()


RECOMMEND = ["recommend", "--corpus", "{corpus}", "--user", "u000", "--item", "pasta"]
EVALUATE = ["evaluate", "--corpus", "{corpus}", "--methods", "baseline", "--out", "{tmp}/r.json"]
TRAIN_NB = ["train-sentiment", "--model", "nb", "--corpus", "{corpus}", "--labels", "manual",
            "--out", "{tmp}/m.json"]
SYNTH = ["synth", "--users", "3", "--restaurants", "2", "--items", "2", "--out", "{tmp}/s"]


# case -> (config file text or None, argv, expected exit code)
BAD_SETTINGS = {
    "config-eq1_center-bogus": ("eq1_center = bogus", RECOMMEND, 2),
    "config-split_round-bogus": ("split_round = bogus", TRAIN_NB, 2),
    "config-top_k-negative": ("top_k = -1", RECOMMEND, 2),
    "config-blend_weight-nan": ("blend_weight = nan", RECOMMEND, 2),
    "config-relevance-inf": ("relevance = inf", EVALUATE, 2),
    "config-seed-negative": ("seed = -1", RECOMMEND, 2),
    "flag-top-k-negative": (None, RECOMMEND + ["--top-k", "-1"], 64),
    "flag-top-k-zero": (None, RECOMMEND + ["--top-k", "0"], 64),
    "flag-side-weight-nan": (None, RECOMMEND + ["--side-weight", "nan"], 64),
    "flag-eq1-center-bogus": (None, RECOMMEND + ["--eq1-center", "bogus"], 64),
    "flag-relevance-nan": (None, EVALUATE + ["--relevance", "nan"], 64),
    "flag-evaluate-seed-negative": (None, EVALUATE + ["--seed", "-1"], 64),
    "flag-synth-seed-negative": (None, ["synth", "--seed", "-1", "--users", "3",
                                        "--restaurants", "2", "--items", "2",
                                        "--out", "{tmp}/s"], 64),
    "flag-synth-users-negative": (None, SYNTH + ["--users", "-3"], 64),
    "flag-synth-restaurants-zero": (None, SYNTH + ["--restaurants", "0"], 64),
    "flag-synth-items-negative": (None, SYNTH + ["--items", "-1"], 64),
    "flag-synth-noise-nan": (None, SYNTH + ["--noise", "nan"], 64),
    "flag-synth-noise-above-one": (None, SYNTH + ["--noise", "1.5"], 64),
    "flag-topics-zero": (None, ["sides", "--corpus", "{corpus}", "--method", "lda",
                                "--topics", "0", "--out", "{tmp}/t.tsv"], 64),
    "config-neighbors-negative": ("neighbors = -1", RECOMMEND, 2),
    "flag-neighbors-negative": (None, RECOMMEND + ["--method", "user", "--neighbors", "-1"], 64),
    "flag-lr-nan": (None, ["train-sentiment", "--model", "bow-lr", "--corpus", "{corpus}",
                           "--labels", "manual", "--lr", "nan", "--out", "{tmp}/m.json"], 64),
    "flag-epochs-negative": (None, ["train-sentiment", "--model", "lstm", "--corpus", "{corpus}",
                                    "--labels", "manual", "--epochs", "-1",
                                    "--out", "{tmp}/m.json"], 64),
    "flag-iterations-negative": (None, ["sides", "--corpus", "{corpus}", "--method", "lda",
                                        "--iterations", "-5", "--out", "{tmp}/t.tsv"], 64),
    "flag-methods-empty": (None, EVALUATE[:3] + ["--methods", "", "--out", "{tmp}/r.json"], 64),
    "flag-methods-blank": (None, EVALUATE[:3] + ["--methods", " , ", "--out", "{tmp}/r.json"], 64),
    "flag-methods-unknown": (None, EVALUATE[:3] + ["--methods", "baseline,svd",
                                                  "--out", "{tmp}/r.json"], 64),
    "labels-threshold-outside-set": (None, ["train-sentiment", "--model", "nb",
                                            "--corpus", "{corpus}", "--labels", "threshold:3.5",
                                            "--out", "{tmp}/m.json"], 2),
}

# case -> argv whose --out cannot be written: an existing directory, or for
# synth an existing file
UNWRITABLE_OUT = {
    "ingest-out-dir": ["ingest", "--reviews", "{corpus}/reviews.jsonl",
                       "--restaurants", "{corpus}/restaurants.jsonl",
                       "--lexicons", "{corpus}/lexicons", "--out", "{tmp}"],
    "train-sentiment-out-dir": TRAIN_NB[:-1] + ["{tmp}"],
    "sides-out-dir": ["sides", "--corpus", "{corpus}", "--method", "louvain", "--out", "{tmp}"],
    "evaluate-out-dir": EVALUATE[:-1] + ["{tmp}"],
    "synth-out-file": SYNTH[:-1] + ["{tmp}/file"],
}


class TestBadSettings:
    """Every bad setting fails with its documented exit code: 64 for a flag,
    2 for a config-file value; none reaches a traceback (exit 1) or a
    silently wrong result (exit 0)."""

    @pytest.mark.parametrize("config, argv, code", list(BAD_SETTINGS.values()),
                             ids=list(BAD_SETTINGS))
    def test_exit_code(self, corpus_dir, tmp_path, capsys, config, argv, code):
        argv = [a.format(corpus=corpus_dir, tmp=tmp_path) for a in argv]
        if config is not None:
            cfg = tmp_path / "dishrec.cfg"
            cfg.write_text(config + "\n", encoding="utf-8")
            argv = ["--config", str(cfg)] + argv
        assert run(capsys, argv)[0] == code

    @pytest.mark.parametrize("argv", list(UNWRITABLE_OUT.values()), ids=list(UNWRITABLE_OUT))
    def test_unwritable_out_exits_2(self, corpus_dir, tmp_path, capsys, argv):
        """--out naming a directory, or for synth a file, is an input error."""
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        argv = [a.format(corpus=corpus_dir, tmp=tmp_path) for a in argv]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ")
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    def test_non_utf8_reviews_exit_2(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "reviews.jsonl"
        bad.write_bytes(b"\xff\xfe\n")
        code, _, err = run(capsys, [
            "ingest", "--reviews", str(bad),
            "--restaurants", str(corpus_dir / "restaurants.jsonl"),
            "--lexicons", str(corpus_dir / "lexicons"), "--out", str(tmp_path / "n.jsonl"),
        ])
        assert code == 2
        assert "UTF-8" in err


_config_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(SETTINGS)),
              st.sampled_from(["", "1", "-1", "0.5", "nan", "inf", "1e400", "user", "floor",
                               "nb", "x"]) | st.text(max_size=8)).map(lambda kv: "%s = %s" % kv),
    st.text(max_size=20),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_config_lines, max_size=4))
def test_load_config_fuzz(tmp_path, lines):
    """Any config text gives a dict of parsed settings or an InputError."""
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    try:
        config = load_config(path)
    except InputError:
        return
    assert set(config) <= set(SETTINGS)


def _flag_value(valid):
    return st.sampled_from(valid) | st.text(max_size=12)


_RECOMMEND_FLAGS = {
    "--user": _flag_value(["u000", "u013", "ghost", ""]),
    "--item": _flag_value(["pasta", "PASTA", "1", "4", "99", "-1"]),
    "--method": _flag_value(["baseline", "user", "item", "fm", "svd"]),
    "--top-k": _flag_value(["1", "3", "100", "0", "-2", "2.5"]),
    "--neighbors": _flag_value(["0", "1", "20", "1000", "-1", "x"]),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.fixed_dictionaries({}, optional=_RECOMMEND_FLAGS))
def test_recommend_exit_code_fuzz(corpus_dir, capsys, flags):
    """Any --user/--item/--method/--top-k/--neighbors strings give a
    documented exit code (0, 2, 3, 4 or 64), never exit 1 or a traceback."""
    argv = ["recommend", "--corpus", str(corpus_dir)]
    for flag, value in flags.items():
        argv += [flag, value]
    code, _, err = run(capsys, argv)
    assert code in (0, 2, 3, 4, 64)
    assert "Traceback" not in err


def _mostly(valid, invalid):
    """A value from ``valid`` three times in four, else one from ``invalid``
    (a list, or a strategy such as free text)."""
    if isinstance(invalid, list):
        invalid = st.sampled_from(invalid)
    return st.integers(0, 3).flatmap(lambda n: invalid if n == 3 else st.sampled_from(valid))


def _text(*values):
    return st.sampled_from(values) | st.text(max_size=12)


# An --out value is never free text, so no example writes outside the test's
# own directories. Flags that set the amount of work (--epochs, --iterations,
# --topics, the synth sizes) draw only from short fixed lists.
_OUT = _mostly(["{dir}/out.txt"], ["{dir}", "{file}", "{dir}/absent/out.txt"])
_WORK = _mostly(["1", "2"], ["0", "-1", "x"])
_CORPUS = _mostly(["{corpus}"], _text("{dir}", "{file}", "{dir}/absent"))
_SEED = _mostly(["0", "7"], _text("-1", "x"))
_NUMBER = _mostly(["0", "0.5", "1"], _text("-1", "nan", "inf", "1e308", "x"))

# command -> (flags always given, flags that may be left out)
_COMMAND_FLAGS = {
    "ingest": (
        {
            "--reviews": _mostly(["{corpus}/reviews.jsonl"],
                                 _text("{corpus}/restaurants.jsonl", "{corpus}", "{file}",
                                       "{dir}/absent.jsonl")),
            "--restaurants": _mostly(["{corpus}/restaurants.jsonl"],
                                     _text("{corpus}/reviews.jsonl", "{file}", "{dir}")),
            "--lexicons": _mostly(["{corpus}/lexicons"], _text("{corpus}", "{file}", "{dir}")),
            "--out": _OUT,
        },
        {"--seed": _SEED},
    ),
    "train-sentiment": (
        {
            "--model": _mostly(["nb", "bow-lr", "bow-dt", "lstm"], _text("svm")),
            "--corpus": _CORPUS,
            "--labels": _mostly(["manual", "threshold:2.5"],
                                _text("threshold:3.5", "threshold:x", "auto")),
            "--out": _OUT,
            "--epochs": _WORK,
        },
        {"--seed": _SEED, "--lr": _NUMBER},
    ),
    "sides": (
        {
            "--corpus": _CORPUS,
            "--method": _mostly(["louvain", "lda"], _text("x")),
            "--out": _OUT,
            "--topics": _WORK,
            "--iterations": _WORK,
        },
        {"--seed": _SEED},
    ),
    "evaluate": (
        {"--corpus": _CORPUS, "--out": _OUT},
        {
            "--methods": _mostly(["baseline", "user,item", "fm"], _text("baseline,svd", "")),
            "--seed": _SEED,
            "--top-k": _mostly(["1", "5"], _text("0", "-1")),
            "--side-weight": _NUMBER,
            "--relevance": _NUMBER,
        },
    ),
    "synth": (
        {"--users": _WORK, "--restaurants": _WORK, "--items": _WORK,
         "--out": _mostly(["{dir}/synth", "{dir}"], ["{file}"])},
        {"--seed": _SEED, "--noise": _NUMBER},
    ),
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory, corpus_dir):
    """Placeholder -> path: the corpus, an existing directory and file."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "file").write_text("not a corpus\n", encoding="utf-8")
    return {"{corpus}": str(corpus_dir), "{dir}": str(root), "{file}": str(root / "file")}


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_command_exit_code_fuzz(fuzz_paths, capsys, command, data):
    """Any flag strings for ingest, train-sentiment, sides, evaluate or synth
    give a documented exit code (0, 2, 3, 4 or 64), never exit 1 or a
    traceback."""
    always, optional = _COMMAND_FLAGS[command]
    flags = data.draw(st.fixed_dictionaries(always, optional=optional))
    argv = [command]
    for flag, value in flags.items():
        for placeholder, path in fuzz_paths.items():
            value = value.replace(placeholder, path)
        argv += [flag, value]
    code, _, err = run(capsys, argv)
    assert code in (0, 2, 3, 4, 64)
    assert "Traceback" not in err
