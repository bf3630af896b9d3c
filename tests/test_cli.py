import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import build_lexicon, gaussian_twin, mixed_lexicon
from oracles import cut_segments_oracle

import phmm
from phmm.cli import _cut_segments, main
from phmm.corpus import GenConfig, Utterance, generate, read_corpus, write_corpus
from phmm.demo import demo_lexicon
from phmm.errors import ValidationError
from phmm.hmm import sample
from phmm.lexicon import MultiObservation, validate_lexicon
from phmm.model_io import load_model, save_model
from phmm.parallel import compose_utterance_model


def run(args):
    return main([str(a) for a in args])


def run_process(args, cwd, **env):
    """phmm's command line in a fresh Python process, importing this
    phmm: its logging set-up, warnings and tracebacks as a user sees
    them."""
    environ = {**os.environ, "PYTHONPATH": str(Path(phmm.__file__).parents[1]), **env}
    command = [sys.executable, "-m", "phmm.cli", *map(str, args)]
    return subprocess.run(command, cwd=cwd, env=environ, capture_output=True, text=True)


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus.jsonl"
    code = run(
        ["generate", "--lexicon", "demo", "--n", 25, "--seed", 7,
         "--out", corpus, "--noise", 0.02, "--max-signs", 2]
    )
    assert code == 0
    return corpus


def test_generate_deterministic(tmp_path, demo_corpus):
    again = tmp_path / "again.jsonl"
    assert run(
        ["generate", "--lexicon", "demo", "--n", 25, "--seed", 7,
         "--out", again, "--noise", 0.02, "--max-signs", 2]
    ) == 0
    assert again.read_bytes() == demo_corpus.read_bytes()


def test_generate_parses_back(demo_corpus):
    corpus = read_corpus(demo_corpus)
    assert len(corpus) == 25
    assert all(u.paths for u in corpus)


def test_generate_hundred_lines_roundtrip(tmp_path):
    out = tmp_path / "hundred.jsonl"
    assert run(
        ["generate", "--lexicon", "demo", "--n", 100, "--seed", 42, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 100
    assert len(read_corpus(out)) == 100


def test_generate_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--lexicon", "demo", "--n", 0, "--seed", 1,
             "--out", tmp_path / "x.jsonl"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run(["generate", "--lexicon", "demo", "--out", tmp_path / "x.jsonl"])


def test_generate_noise_on_one_symbol_channel(tmp_path):
    # Noise hits on a one-symbol channel leave its symbols as they are.
    lexicon = build_lexicon(np.random.default_rng(0), channels=("c0",), alphabet=1)
    save_model(tmp_path / "model.json", lexicon)
    out = tmp_path / "corpus.jsonl"
    assert run(
        ["generate", "--lexicon", tmp_path / "model.json", "--n", 5, "--seed", 1,
         "--noise", 0.5, "--out", out]
    ) == 0
    corpus = read_corpus(out)
    assert len(corpus) == 5
    assert all(u.mobs.channels["c0"].tolist() == [0] * len(u.paths["c0"]) for u in corpus)


def test_gaussian_noise_that_overflows_is_input_error(tmp_path):
    # Noise of standard deviation 1e308 overflows some observations to
    # infinity; generate refuses them before writing anything.
    save_model(tmp_path / "gaussian.json", gaussian_twin())
    args = ["generate", "--lexicon", "gaussian.json", "--n", 5, "--seed", 1, "--noise", "1e308"]
    got = run_process(args + ["--out", "corpus.jsonl"], tmp_path)
    assert got.returncode == 3
    assert not (tmp_path / "corpus.jsonl").exists()
    assert got.stderr.startswith("error: non-finite entry")
    assert "Traceback" not in got.stderr and "RuntimeWarning" not in got.stderr


@pytest.mark.parametrize("mode", ["exhaustive", "synced"])
def test_decode_far_gaussian_mean_is_silent(mode, tmp_path):
    # A state mean 1e200 from every observation overflows the squared
    # offset: that state's density is -inf, and decode prints no warning.
    lexicon = gaussian_twin()
    save_model(tmp_path / "gaussian.json", lexicon)
    args = ["generate", "--lexicon", tmp_path / "gaussian.json", "--n", 4, "--seed", 3]
    assert run(args + ["--max-signs", 2, "--out", tmp_path / "corpus.jsonl"]) == 0
    lexicon.inventory("head").phonemes["H0"].emissions.means[0, 0] = 1e200
    save_model(tmp_path / "far.json", lexicon)
    args = ["decode", "--model", "far.json", "--corpus", "corpus.jsonl", "--mode", mode]
    got = run_process(args + ["--max-signs", 2, "--out", "hyps.jsonl"], tmp_path)
    assert got.returncode == 0, got.stderr
    assert "Traceback" not in got.stderr and "RuntimeWarning" not in got.stderr
    assert len((tmp_path / "hyps.jsonl").read_text().splitlines()) == 4


@pytest.mark.parametrize("value, code", [("bogus", 2), ("15", 2), ("", 0)])
def test_log_level_names_a_logging_level(value, code, tmp_path):
    # An empty PHMM_LOG_LEVEL is the default, WARNING; a value that names
    # no logging level is a usage error, one line on stderr.
    got = run_process(["complexity", "--lexicon", "demo"], tmp_path, PHMM_LOG_LEVEL=value)
    assert got.returncode == code
    assert "Traceback" not in got.stderr
    if code == 2:
        message = f"error: PHMM_LOG_LEVEL={value!r} is not a logging level name"
        assert got.stderr.splitlines() == [message] and got.stdout == ""
    else:
        assert "factored" in got.stdout and got.stderr == ""


def test_missing_lexicon_file_is_input_error(tmp_path):
    assert run(
        ["generate", "--lexicon", tmp_path / "missing.json", "--n", 1,
         "--seed", 1, "--out", tmp_path / "x.jsonl"]
    ) == 3


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, demo_corpus):
    base = tmp_path_factory.mktemp("model")
    model = base / "model.json"
    code = run(
        ["train", "--corpus", demo_corpus, "--lexicon", "demo",
         "--mode", "embedded", "--seed", 11, "--out", model, "--max-iters", 8]
    )
    assert code == 0
    return model


def test_train_single_iteration(tmp_path, demo_corpus, capsys):
    model = tmp_path / "m1.json"
    assert run(
        ["train", "--corpus", demo_corpus, "--lexicon", "demo",
         "--mode", "embedded", "--seed", 3, "--out", model, "--max-iters", 1]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("iterations=1") == 3


def test_train_logs_each_iteration(tmp_path, demo_corpus, capsys, caplog):
    # At INFO the phmm logger reports every channel's EM iterations:
    # the log-likelihood the printed summary starts and ends with, and
    # its change. The model file and stdout do not change.
    args = ["train", "--corpus", demo_corpus, "--lexicon", "demo", "--seed", 3,
            "--max-iters", 2, "--out"]
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    assert run(args + [quiet]) == 0
    quiet_out = capsys.readouterr().out
    caplog.set_level(logging.INFO, logger="phmm")
    assert run(args + [loud]) == 0
    out = capsys.readouterr().out
    assert out == quiet_out.replace(str(quiet), str(loud))
    assert loud.read_bytes() == quiet.read_bytes()
    lines = [r.getMessage() for r in caplog.records if " iteration " in r.getMessage()]
    assert len(lines) == 3 * 3
    for ch in ("right_hand", "left_hand", "head"):
        first, last = re.search(rf"channel {ch}: loglik (\S+) -> (\S+) ", out).groups()
        mine = [line for line in lines if line.startswith(f"channel {ch} ")]
        assert mine[0] == f"channel {ch} iteration 0: loglik {first}"
        assert re.fullmatch(rf"channel {ch} iteration 2: loglik {last} change \+\S+", mine[-1])


def test_train_writes_valid_model(trained_model):
    lexicon, prov = load_model(trained_model)
    assert prov["seed"] == 11
    assert "config_hash" in prov and "tool_version" in prov
    assert len(lexicon.signs) == 8


def test_train_channel_independence(tmp_path, demo_corpus):
    # permuting another channel's observations leaves this channel's model identical
    corpus = read_corpus(demo_corpus)
    shuffled = tmp_path / "shuffled.jsonl"
    perm = np.random.default_rng(0).permutation(len(corpus))
    from phmm.corpus import write_corpus

    swapped = []
    for i, utt in enumerate(corpus):
        donor = corpus[perm[i]]
        channels = dict(utt.mobs.channels)
        channels["left_hand"] = donor.mobs.channels["left_hand"]
        utt2 = type(utt)(
            utt_id=utt.utt_id,
            signs=utt.signs,
            mobs=type(utt.mobs)(channels=channels),
            paths=None,
        )
        swapped.append(utt2)
    write_corpus(shuffled, swapped)

    m1, m2 = tmp_path / "m_orig.json", tmp_path / "m_swap.json"
    for corpus_file, out in ((demo_corpus, m1), (shuffled, m2)):
        assert run(
            ["train", "--corpus", corpus_file, "--lexicon", "demo",
             "--mode", "embedded", "--seed", 5, "--out", out, "--max-iters", 4]
        ) == 0
    lex1, _ = load_model(m1)
    lex2, _ = load_model(m2)
    for pid, model in lex1.inventories["right_hand"].phonemes.items():
        other = lex2.inventories["right_hand"].phonemes[pid]
        assert np.max(np.abs(model.trans - other.trans)) <= 1e-12
        assert np.max(np.abs(model.emissions.probs - other.emissions.probs)) <= 1e-12


def test_train_segmented_requires_paths(tmp_path, demo_corpus):
    stripped = tmp_path / "nopaths.jsonl"
    assert run(
        ["generate", "--lexicon", "demo", "--n", 5, "--seed", 2,
         "--out", stripped, "--no-paths"]
    ) == 0
    assert run(
        ["train", "--corpus", stripped, "--lexicon", "demo",
         "--mode", "segmented", "--seed", 1, "--out", tmp_path / "m.json"]
    ) == 3


@pytest.mark.parametrize("path", [None, 5], ids=["null", "number"])
def test_train_segmented_rejects_a_path_that_is_not_an_array(path, tmp_path, demo_corpus, capsys):
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    recs[1]["paths"]["head"] = path
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(
        ["train", "--corpus", corpus, "--lexicon", "demo",
         "--mode", "segmented", "--seed", 1, "--out", tmp_path / "m.json"]
    ) == 3
    err = capsys.readouterr().err
    assert "line 2: the 'head' path must be an array of integers" in err
    assert "Traceback" not in err


def test_train_segmented_end_to_end(tmp_path, capsys):
    # Single-sign utterances never use the epenthesis fillers, so they
    # keep their lexicon-bound models and are flagged untouched.
    corpus = tmp_path / "single.jsonl"
    assert run(
        ["generate", "--lexicon", "demo", "--n", 6, "--seed", 4,
         "--max-signs", 1, "--out", corpus]
    ) == 0
    outs = []
    for name in ("a.json", "b.json"):
        outs.append(tmp_path / name)
        assert run(
            ["train", "--corpus", corpus, "--lexicon", "demo", "--mode", "segmented",
             "--seed", 1, "--max-iters", 10, "--out", outs[-1]]
        ) == 0
    printed = capsys.readouterr().out
    assert "channel right_hand:" in printed and " untouched=R_eps\n" in printed
    assert outs[0].read_bytes() == outs[1].read_bytes()
    lexicon, prov = load_model(outs[0])
    validate_lexicon(lexicon)
    assert prov["seed"] == 1
    demo = demo_lexicon().inventory("right_hand").phonemes["R_eps"]
    trained = lexicon.inventory("right_hand").phonemes["R_eps"]
    assert np.array_equal(trained.trans, demo.trans)
    assert np.array_equal(trained.emissions.probs, demo.emissions.probs)
    assert not np.array_equal(
        lexicon.inventory("right_hand").phonemes["R0"].emissions.probs,
        demo_lexicon().inventory("right_hand").phonemes["R0"].emissions.probs,
    )


@pytest.mark.parametrize(
    "command, option, value, code",
    [
        ("train", "--rel-tol", "0", 2),
        ("train", "--rel-tol", "nan", 2),
        ("train", "--rel-tol", "inf", 2),
        ("train", "--smoothing", "-1", 2),
        ("train", "--smoothing", "inf", 2),
        ("train", "--seed", "-1", 2),
        ("generate", "--seed", "-1", 2),
        ("generate", "--noise", "nan", 2),
        ("generate", "--noise", "inf", 2),
        ("generate", "--noise", "-0.5", 2),
        ("generate", "--noise", "1.5", 3),
    ],
)
def test_invalid_option_value_exit_code(
    command, option, value, code, tmp_path, demo_corpus, capsys
):
    # Each case exits 2 (usage) or 3 (invalid input) before writing output;
    # a discrete noise rate above 1 is only invalid for the lexicon's
    # discrete channels, hence input, not usage.
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--corpus", demo_corpus, "--lexicon", "demo", "--max-iters", 2]
    else:
        args = ["generate", "--lexicon", "demo", "--n", 3]
    args += ["--seed", 1, "--out", out, option, value]
    try:
        got = run(args)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert not out.exists()
    assert option.strip("-").replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--min-signs", 0], "signs_per_utterance range is empty"),
        (["--min-signs", 3, "--max-signs", 2], "signs_per_utterance range is empty"),
        (["--jitter", -1], "desync_jitter must be >= 0"),
    ],
    ids=["min-signs-0", "min-signs-over-max", "negative-jitter"],
)
def test_generate_refuses_an_empty_signs_range_and_negative_jitter(
    options, message, tmp_path, capsys
):
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--lexicon", "demo", "--n", 3, "--seed", 1, "--out", out, *options])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("{not json", "line 2: invalid JSON: "),
        (
            json.dumps({"corpus_version": 1, "id": "u", "signs": [], "channels": {"head": 5}}),
            "line 2: an observation sequence must be a JSON array",
        ),
    ],
    ids=["not-json", "observation-not-an-array"],
)
def test_corpus_line_refused_by_the_reader_is_input_error(
    line, message, tmp_path, demo_corpus, capsys
):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(demo_corpus.read_text().splitlines()[0] + "\n" + line + "\n")
    out = tmp_path / "model.json"
    assert run(["train", "--corpus", corpus, "--lexicon", "demo", "--seed", 1, "--out", out]) == 3
    assert not out.exists()
    assert f"error: {message}" in capsys.readouterr().err


def test_decode_records(tmp_path, trained_model, demo_corpus):
    hyp = tmp_path / "hyp.jsonl"
    assert run(
        ["decode", "--model", trained_model, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 2, "--out", hyp]
    ) == 0
    lines = [json.loads(l) for l in hyp.read_text().splitlines()]
    assert len(lines) == 25
    import math

    for rec in lines:
        assert rec["error"] is None
        assert rec["total_score"] == math.fsum(rec["channel_scores"].values())
        assert set(rec["channel_scores"]) == {"right_hand", "left_hand", "head"}


def test_decode_exhaustive_empty_channel_is_input_error(
    tmp_path, trained_model, demo_corpus, capsys
):
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    recs[1]["channels"]["head"] = []
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(
        ["decode", "--model", trained_model, "--corpus", corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    assert "'head'" in capsys.readouterr().err


def test_decode_exhaustive_stack_memory_guard(
    tmp_path, trained_model, demo_corpus, capsys, monkeypatch
):
    from phmm import parallel

    def no_stack(*args):
        raise AssertionError("a candidate stack was built past the memory guard")

    # The trained model keeps the demo lexicon's spellings and state
    # counts, and its trained pi enters every state, so its band has
    # offsets 0 to 3: at 6 signs its stack needs 33,136,128 bytes plus
    # 1,261,824 of transients, 159 rows of its widest block's 992
    # columns (delta's 33, the emissions' 33, and 32 + 31 + 30 rows of
    # sums at offsets 1 to 3), and a limit one byte under that refuses it
    # before any stack is built (the junction chains of its layout are
    # composed before the guard, the stack after it).
    lexicon, _ = load_model(trained_model)
    assert parallel._stack_layout(lexicon, 6)[2] == [0, 1, 2, 3]
    need = 33_136_128 + 1_261_824
    monkeypatch.setattr(parallel, "MAX_STACK_BYTES", need - 1)
    monkeypatch.setattr(parallel, "_stack", no_stack)
    assert run(
        ["decode", "--model", trained_model, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 6, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    assert f"hold {need} bytes of candidate stacks" in capsys.readouterr().err


def test_decode_exhaustive_refuses_a_bad_first_record_before_any_stack(
    tmp_path, trained_model, demo_corpus, capsys, monkeypatch
):
    # The first record's empty channel is refused (exit 3) before the
    # 6-sign stack of an empty cache is built, and a memory guard that
    # would refuse that stack too does not hide the record's fault.
    from phmm import parallel

    def no_stack(*args):
        raise AssertionError("a candidate stack was built before the record was validated")

    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:3]]
    recs[0]["channels"]["head"] = []
    corpus = tmp_path / "bad_first.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    monkeypatch.setattr(parallel, "_stack", no_stack)
    for limit in (parallel.MAX_STACK_BYTES, 1):
        monkeypatch.setattr(parallel, "MAX_STACK_BYTES", limit)
        assert run(
            ["decode", "--model", trained_model, "--corpus", corpus,
             "--mode", "exhaustive", "--max-signs", 6, "--out", tmp_path / "hyp.jsonl"]
        ) == 3
        err = capsys.readouterr().err
        assert "empty observation sequence for channel 'head'" in err
        assert "bytes of candidate stacks" not in err


def test_decode_exhaustive_candidate_guard(
    tmp_path, trained_model, demo_corpus, capsys, monkeypatch
):
    # The demo lexicon's 8 signs make 2,396,744 candidates of up to 7
    # signs, over MAX_CANDIDATES: exit 3 before any model is composed.
    from phmm import parallel

    def no_compose(*args):
        raise AssertionError("a model was composed past the candidate guard")

    monkeypatch.setattr(parallel, "compose_models", no_compose)
    assert run(
        ["decode", "--model", trained_model, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 7, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    assert "exhaustive decode would enumerate 2396744 candidates" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_synced_missing_channel_is_input_error(
    command, tmp_path, trained_model, demo_corpus, capsys
):
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    del recs[1]["channels"]["head"]
    corpus = tmp_path / "missing.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    args = [command, "--model", trained_model, "--corpus", corpus, "--mode", "synced"]
    if command == "decode":
        args += ["--out", tmp_path / "hyp.jsonl"]
    assert run(args) == 3
    assert "'head'" in capsys.readouterr().err


def _synced_run(command, model, corpus, tmp_path):
    args = [command, "--model", model, "--corpus", corpus, "--mode", "synced"]
    return run(args + (["--out", tmp_path / "hyp.jsonl"] if command == "decode" else []))


@pytest.mark.parametrize("policy", ["none", "between_signs"])
@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_synced_lexicon_without_signs_is_input_error(
    command, policy, tmp_path, trained_model, demo_corpus, capsys
):
    blob = json.loads(trained_model.read_text())
    blob["signs"] = {}
    blob["epenthesis_policy"] = policy
    model = tmp_path / "no_signs.json"
    model.write_text(json.dumps(blob))
    assert _synced_run(command, model, demo_corpus, tmp_path) == 3
    err = capsys.readouterr().err
    assert "lexicon has no signs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_synced_final_state_that_can_leave_is_input_error(
    command, tmp_path, trained_model, demo_corpus, capsys
):
    # H0 ends signs in the head channel; its final state now moves back.
    blob = json.loads(trained_model.read_text())
    h0 = blob["inventories"]["head"]["phonemes"]["H0"]
    h0["topology"] = "ergodic"
    h0["trans"][-1] = [0.25, 0.0, 0.75]
    model = tmp_path / "leaving.json"
    model.write_text(json.dumps(blob))
    assert _synced_run(command, model, demo_corpus, tmp_path) == 3
    err = capsys.readouterr().err
    assert "phoneme 'H0' of channel 'head'" in err
    assert "Traceback" not in err
    assert run(
        ["decode", "--model", model, "--corpus", demo_corpus, "--mode", "exhaustive",
         "--max-signs", 1, "--out", tmp_path / "exhaustive.jsonl"]
    ) == 0


def test_decode_rejects_float_symbols(tmp_path, trained_model, demo_corpus, capsys):
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    recs[1]["channels"]["head"] = [x + 0.5 for x in recs[1]["channels"]["head"]]
    corpus = tmp_path / "floats.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(
        ["decode", "--model", trained_model, "--corpus", corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    assert "integer symbols" in capsys.readouterr().err


@pytest.mark.parametrize("past", [False, True], ids=["symbol-minus-one", "symbol-alphabet-size"])
@pytest.mark.parametrize("mode", ["exhaustive", "synced"])
@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_symbol_outside_the_alphabet_is_input_error(
    command, mode, past, tmp_path, trained_model, demo_corpus, capsys
):
    # The second record's symbol is looked up after the first has filled
    # the decode cache's density tables: exit 3, not a table row.
    lexicon, _ = load_model(trained_model)
    alphabet = next(iter(lexicon.inventory("head").phonemes.values())).emissions.alphabet_size
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    recs[1]["channels"]["head"][1] = alphabet if past else -1
    corpus = tmp_path / "symbols.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    args = [command, "--model", trained_model, "--corpus", corpus, "--mode", mode]
    if command == "decode":
        args += ["--out", tmp_path / "hyp.jsonl"]
    assert run(args + ["--max-signs", 2]) == 3
    err = capsys.readouterr().err
    assert f"symbol out of range for alphabet size {alphabet}" in err
    assert "Traceback" not in err


def test_corpus_channels_the_model_does_not_list_are_ignored(
    tmp_path, trained_model, demo_corpus, capsys
):
    # train, decode and evaluate read the model's channels alone: an
    # extra "face" channel changes no output and no exit code.
    lines = demo_corpus.read_text().splitlines()[:4]
    recs = [json.loads(l) for l in lines]
    for rec in recs:
        rec["channels"]["face"] = [1, 2, 3]
    extra = tmp_path / "extra.jsonl"
    extra.write_text("".join(json.dumps(r) + "\n" for r in recs))
    plain = tmp_path / "plain.jsonl"
    plain.write_text("".join(line + "\n" for line in lines))
    outputs = {}
    for name, corpus in (("plain", plain), ("extra", extra)):
        out = tmp_path / name
        out.mkdir()
        for mode in ("exhaustive", "synced"):
            assert run(
                ["decode", "--model", trained_model, "--corpus", corpus, "--mode", mode,
                 "--max-signs", 2, "--out", out / f"{mode}.jsonl"]
            ) == 0
        assert run(
            ["evaluate", "--model", trained_model, "--corpus", corpus, "--max-signs", 2,
             "--report", out / "report.json"]
        ) == 0
        assert run(
            ["train", "--corpus", corpus, "--lexicon", "demo", "--seed", 3,
             "--max-iters", 2, "--out", out / "model.json"]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        del report["timing"]
        files = ("exhaustive.jsonl", "synced.jsonl", "model.json")
        outputs[name] = [report] + [(out / f).read_bytes() for f in files]
    assert outputs["extra"] == outputs["plain"]


def test_decode_rejects_nan_model(tmp_path, trained_model, demo_corpus, capsys):
    blob = json.loads(trained_model.read_text())
    inventory = next(iter(blob["inventories"].values()))
    next(iter(inventory["phonemes"].values()))["trans"][0][0] = float("nan")
    bad = tmp_path / "nan_model.json"
    bad.write_text(json.dumps(blob))
    assert run(
        ["decode", "--model", bad, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rec: {**rec, "channels": {**rec["channels"], "head": [1, [2]]}},
        lambda rec: {k: v for k, v in rec.items() if k != "signs"},
        lambda rec: {k: v for k, v in rec.items() if k != "channels"},
        lambda rec: [rec],
        lambda rec: {**rec, "id": ["a"]},
    ],
    ids=["ragged-channel", "no-signs", "no-channels", "not-an-object", "non-string-id"],
)
def test_decode_malformed_corpus_record_is_input_error(
    corrupt, tmp_path, trained_model, demo_corpus, capsys
):
    recs = [json.loads(l) for l in demo_corpus.read_text().splitlines()[:2]]
    recs[1] = corrupt(recs[1])
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(
        ["decode", "--model", trained_model, "--corpus", corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    err = capsys.readouterr().err
    assert "line 2:" in err
    assert "Traceback" not in err


def _phoneme(blob):
    inventory = next(iter(blob["inventories"].values()))
    return next(iter(inventory["phonemes"].values()))


def _set_pi(blob, channel, pid, pi):
    blob["inventories"][channel]["phonemes"][pid]["pi"] = pi


def _column_probs(blob, channel, pid):
    emission = blob["inventories"][channel]["phonemes"][pid]["emission"]
    emission["probs"] = [[[p] for p in row] for row in emission["probs"]]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob.pop("signs"), "model file"),
        (lambda blob: _phoneme(blob).pop("pi"), "model file"),
        (lambda blob: _phoneme(blob).__setitem__("topology", "bogus"), "model file"),
        (
            lambda blob: _set_pi(blob, "right_hand", "R0", [[1.0], [0.0], [0.0]]),
            "pi has shape (3, 1), expected a vector",
        ),
        (
            lambda blob: _column_probs(blob, "right_hand", "R0"),
            "emission probs has shape (3, 10, 1), expected a 2-d array",
        ),
        # Neither field has a default: a file without one would decode
        # with different hypotheses, not fail.
        (
            lambda blob: blob.pop("epenthesis_policy"),
            "model file lacks field 'epenthesis_policy'",
        ),
        (lambda blob: blob.pop("exit_prob"), "model file lacks field 'exit_prob'"),
        # The inventories and signs still hold head; decoding on the other
        # channels alone would change the hypotheses.
        (
            lambda blob: blob["channels"].remove("head"),
            "inventory of 'head', not a lexicon channel",
        ),
        (
            lambda blob: blob["signs"]["sign0"].update(face=["H0"]),
            "sign 'sign0' spells 'face', not a lexicon channel",
        ),
    ],
    ids=[
        "no-signs", "phoneme-without-pi", "bogus-topology", "column-pi", "column-probs",
        "no-epenthesis-policy", "no-exit-prob", "channel-dropped", "sign-spells-stray-channel",
    ],
)
def test_decode_malformed_model_is_input_error(
    corrupt, message, tmp_path, trained_model, demo_corpus, capsys
):
    blob = json.loads(trained_model.read_text())
    corrupt(blob)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(blob))
    assert run(
        ["decode", "--model", bad, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# A UTF-16 byte-order mark and text: not UTF-8, so neither reader can decode it.
_NOT_UTF8 = b"\xff\xfe" + '{"format_version": 1}\n'.encode("utf-16-le")


@pytest.mark.parametrize("command", ["decode", "evaluate", "train", "generate"])
def test_model_file_that_is_not_utf8_is_input_error(command, tmp_path, demo_corpus, capsys):
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_bytes(_NOT_UTF8)
    args = {
        "decode": ["--model", bad, "--corpus", demo_corpus, "--out", out],
        "evaluate": ["--model", bad, "--corpus", demo_corpus],
        "train": ["--lexicon", bad, "--corpus", demo_corpus, "--seed", 1, "--out", out],
        "generate": ["--lexicon", bad, "--n", 1, "--seed", 1, "--out", out],
    }[command]
    assert run([command, *args]) == 3
    err = capsys.readouterr().err
    assert f"invalid model file {bad}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decode", "evaluate", "train"])
def test_corpus_file_that_is_not_utf8_is_input_error(command, tmp_path, trained_model, capsys):
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_bytes(_NOT_UTF8)
    args = {
        "decode": ["--model", trained_model, "--out", out],
        "evaluate": ["--model", trained_model],
        "train": ["--lexicon", "demo", "--seed", 1, "--out", out],
    }[command]
    assert run([command, "--corpus", bad, *args]) == 3
    err = capsys.readouterr().err
    assert f"corpus file {bad} is not UTF-8: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


def _r0(blob):
    return blob["inventories"]["right_hand"]["phonemes"]["R0"]


def _g0(blob, name, value):
    blob["inventories"]["c0"]["phonemes"]["c0_p0"]["emission"][name][0][0] = value


def _frame(rec, value):
    rec["channels"]["c0"][0][0] = value


@pytest.mark.parametrize(
    "lexicon, corrupt_model, corrupt_record, field",
    [
        ("demo", lambda blob: blob.update(exit_prob="0.5"), None, "exit_prob"),
        ("demo", lambda blob: _r0(blob).update(pi=[True, 0.0, 0.0]), None, "pi"),
        ("demo", lambda blob: _r0(blob)["trans"].__setitem__(2, [0.0, 0.0, True]), None, "trans"),
        (
            "demo",
            lambda blob: _r0(blob)["emission"]["probs"].__setitem__(0, [True] + [False] * 9),
            None,
            "probs",
        ),
        ("gaussian", lambda blob: _g0(blob, "means", "0.5"), None, "means"),
        ("gaussian", lambda blob: _g0(blob, "means", True), None, "means"),
        ("gaussian", lambda blob: _g0(blob, "variances", "0.5"), None, "variances"),
        ("gaussian", lambda blob: _g0(blob, "variances", True), None, "variances"),
        ("gaussian", None, lambda rec: _frame(rec, "1.5"), "channels"),
        ("gaussian", None, lambda rec: _frame(rec, True), "channels"),
        ("demo", None, lambda rec: rec["channels"]["head"].__setitem__(1, True), "channels"),
        ("demo", None, lambda rec: rec["channels"]["head"].__setitem__(0, False), "channels"),
    ],
    ids=[
        "exit-prob-string", "pi-bool", "trans-bool", "probs-bool", "means-string",
        "means-bool", "variances-string", "variances-bool", "frame-string", "frame-bool",
        "symbol-bool", "first-symbol-bool",
    ],
)
def test_decode_string_or_bool_number_is_input_error(
    lexicon, corrupt_model, corrupt_record, field, tmp_path, capsys
):
    # numpy reads "0.5" as 0.5 and true as 1.0; the readers must not.
    lex = demo_lexicon() if lexicon == "demo" else mixed_lexicon(np.random.default_rng(4), True)
    model, corpus = tmp_path / "model.json", tmp_path / "corpus.jsonl"
    save_model(model, lex)
    write_corpus(corpus, generate(lex, GenConfig(n_utterances=2, seed=4)))
    if corrupt_model:
        blob = json.loads(model.read_text())
        corrupt_model(blob)
        model.write_text(json.dumps(blob))
    if corrupt_record:
        recs = [json.loads(line) for line in corpus.read_text().splitlines()]
        corrupt_record(recs[1])
        corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(
        ["decode", "--model", model, "--corpus", corpus,
         "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    err = capsys.readouterr().err
    assert f"field {field} must hold JSON numbers only" in err
    assert "Traceback" not in err


def test_decode_misshapen_trans_is_dimension_error(tmp_path, demo_corpus, capsys):
    path = tmp_path / "demo_model.json"
    save_model(path, demo_lexicon())
    blob = json.loads(path.read_text())
    blob["inventories"]["head"]["phonemes"]["H0"]["trans"] = [1.0, 0, 0]
    path.write_text(json.dumps(blob))
    assert run(
        ["decode", "--model", path, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 1, "--out", tmp_path / "hyp.jsonl"]
    ) == 3
    err = capsys.readouterr().err
    assert "trans has shape (3,), expected (3, 3)" in err
    assert "sums to" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--max-signs", "--beam-width"])
@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_decode_and_evaluate_refuse_a_search_bound_below_1(
    command, option, tmp_path, trained_model, demo_corpus, capsys
):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(
            [command, "--model", trained_model, "--corpus", demo_corpus, option, 0,
             "--report" if command == "evaluate" else "--out", out]
        )
    assert exc.value.code == 2
    assert not out.exists()
    assert f"error: {option} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keep, message",
    [(0, "training corpus is empty"), (2, "corpus lacks channel 'head'")],
    ids=["empty-corpus", "channel-missing"],
)
def test_train_refuses_an_empty_corpus_and_a_missing_channel(
    keep, message, tmp_path, demo_corpus, capsys
):
    recs = [json.loads(line) for line in demo_corpus.read_text().splitlines()[:keep]]
    if recs:
        del recs[1]["channels"]["head"]
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert run(["train", "--corpus", corpus, "--lexicon", "demo", "--seed", 1, "--out", out]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err


def _emission(blob, name, value):
    blob["inventories"]["head"]["phonemes"]["H0"]["emission"][name] = value
    return blob


@pytest.mark.parametrize(
    "lexicon, corrupt, message",
    [
        (demo_lexicon, lambda blob: [blob], "a model file must hold a JSON object"),
        (demo_lexicon, lambda blob: _emission(blob, "kind", "poisson"),
         "unknown emission kind 'poisson'"),
        (gaussian_twin, lambda blob: _emission(blob, "variances", [[0.5], [0.5], [0.5]]),
         "means and variances shapes differ"),
        (gaussian_twin, lambda blob: _emission(blob, "variances", [[0.5, 0.5]] * 2 + [[0.5, 1e-7]]),
         "negative entry 1e-07 in emission variance below floor"),
    ],
    ids=["json-array", "unknown-emission-kind", "gaussian-shapes-differ", "variance-below-floor"],
)
def test_model_file_refusals_are_input_errors(lexicon, corrupt, message, tmp_path, capsys):
    model, out = tmp_path / "model.json", tmp_path / "out.jsonl"
    save_model(model, lexicon())
    model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
    assert run(["generate", "--lexicon", model, "--n", 1, "--seed", 1, "--out", out]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_synced_decode_without_a_finite_hypothesis_is_an_error_record(
    command, tmp_path, capsys
):
    # The one sign spells phoneme 0, which emits symbols 0 and 1 only.
    lexicon = build_lexicon(np.random.default_rng(13), separated=True, vocab=1)
    model, corpus, out = tmp_path / "model.json", tmp_path / "dead.jsonl", tmp_path / "out"
    save_model(model, lexicon)
    dead = MultiObservation({ch: np.full(4, 2) for ch in lexicon.channels})
    write_corpus(corpus, [Utterance("dead", ["s0"], dead)])
    args = [command, "--model", model, "--corpus", corpus, "--mode", "synced"]
    assert run([*args, "--report" if command == "evaluate" else "--out", out]) == 0
    if command == "decode":
        assert json.loads(out.read_text()) == {
            "hyp_version": 1, "id": "dead", "signs": [], "error": "NoFiniteHypothesis"
        }
        assert "decoded 1 utterances to" in capsys.readouterr().out
    else:
        assert json.loads(out.read_text())["n_decode_failures"] == 1


def test_decode_synced_unequal_lengths_recorded(tmp_path, trained_model):
    jittered = tmp_path / "jit.jsonl"
    assert run(
        ["generate", "--lexicon", "demo", "--n", 4, "--seed", 3,
         "--out", jittered, "--jitter", 2, "--max-signs", 1]
    ) == 0
    hyp = tmp_path / "hyp_sync.jsonl"
    assert run(
        ["decode", "--model", trained_model, "--corpus", jittered,
         "--mode", "synced", "--out", hyp]
    ) == 0
    recs = [json.loads(l) for l in hyp.read_text().splitlines()]
    assert any(r["error"] == "UnequalChannelLengths" for r in recs)
    for r in recs:
        if r["error"]:
            assert r["signs"] == []


def test_evaluate_report(tmp_path, trained_model, demo_corpus, capsys):
    assert run(
        ["evaluate", "--model", trained_model, "--corpus", demo_corpus,
         "--mode", "exhaustive", "--max-signs", 2]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sign_error_rate"] <= 0.1
    assert report["model_count"] == {"factored": 15, "product": 64}


def test_evaluate_deterministic_except_timing(tmp_path, trained_model, demo_corpus, capsys):
    reports = []
    for _ in range(2):
        assert run(
            ["evaluate", "--model", trained_model, "--corpus", demo_corpus,
             "--mode", "exhaustive", "--max-signs", 2]
        ) == 0
        d = json.loads(capsys.readouterr().out)
        d.pop("timing")
        reports.append(d)
    assert reports[0] == reports[1]


def _decode_and_evaluate(base, model, corpus):
    """The bytes of decode's hypotheses and of evaluate's report, less
    its timing, in both modes."""
    outputs = []
    for mode in ("exhaustive", "synced"):
        hyps, report = base / f"{mode}.jsonl", base / f"{mode}.json"
        assert run(["decode", "--model", model, "--corpus", corpus, "--mode", mode,
                    "--out", hyps]) == 0
        assert run(["evaluate", "--model", model, "--corpus", corpus, "--mode", mode,
                    "--report", report]) == 0
        blob = json.loads(report.read_text())
        del blob["timing"]
        outputs += [hyps.read_bytes(), json.dumps(blob)]
    return outputs


def test_decode_and_evaluate_align_no_state_paths(
    tmp_path, trained_model, demo_corpus, monkeypatch
):
    # Nothing the command line writes reads a state path, so neither
    # command backtracks, and the outputs are those of a run that may.
    want = _decode_and_evaluate(tmp_path, trained_model, demo_corpus)

    def no_backtrack(*args):
        raise AssertionError("a command backtracked a state path it never writes")

    monkeypatch.setattr(phmm.hmm, "_backtrack", no_backtrack)
    assert _decode_and_evaluate(tmp_path, trained_model, demo_corpus) == want


def test_complexity_demo(capsys):
    assert run(["complexity", "--lexicon", "demo"]) == 0
    out = capsys.readouterr().out
    assert "factored=15" in out
    assert "product=64" in out


def test_complexity_single_channel(tmp_path, capsys):
    from helpers import build_lexicon
    from phmm.model_io import save_model

    lex = build_lexicon(np.random.default_rng(1), channels=("only",), n_phonemes=5, vocab=2)
    path = tmp_path / "single.json"
    save_model(path, lex)
    assert run(["complexity", "--lexicon", path]) == 0
    out = capsys.readouterr().out
    assert "factored=5" in out and "product=5" in out


def test_complexity_validates_a_model_file_once(tmp_path, monkeypatch):
    # load_model validates the lexicon it reads, and the command does
    # not validate it again.
    from phmm import cli, model_io

    path = tmp_path / "demo.json"
    save_model(path, demo_lexicon())
    calls = []

    def counting(lex):
        calls.append(lex)
        validate_lexicon(lex)

    for module in (cli, model_io):
        monkeypatch.setattr(module, "validate_lexicon", counting)
    assert run(["complexity", "--lexicon", path]) == 0
    assert len(calls) == 1


def test_threads_flag_rejects_multithreading(demo_corpus, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--corpus", demo_corpus, "--lexicon", "demo",
             "--seed", 1, "--out", tmp_path / "m.json", "--threads", 2])
    assert exc.value.code == 2


def test_training_failure_maps_to_exit_4(demo_corpus, tmp_path, monkeypatch):
    from phmm import cli
    from phmm.errors import DegenerateModelError

    def boom(*args, **kwargs):
        raise DegenerateModelError("forced")

    monkeypatch.setattr(cli, "train_embedded", boom)
    assert run(
        ["train", "--corpus", demo_corpus, "--lexicon", "demo",
         "--seed", 1, "--out", tmp_path / "m.json"]
    ) == 4


def test_cut_segments_keeps_repeated_phonemes_apart():
    # Without epenthesis, "sign0 sign0" composes two adjacent R0 blocks;
    # each occurrence is its own training segment.
    lexicon = demo_lexicon()
    lexicon.epenthesis_policy = "none"
    signs = ["sign0", "sign0"]
    model = compose_utterance_model(lexicon, "right_hand", signs)
    obs, path = sample(model, 20, np.random.default_rng(3))
    utt = Utterance("u", signs, MultiObservation({"right_hand": obs}), {"right_hand": path})
    split = sum(s < 3 for s in path)
    assert 0 < split < 20
    segments = _cut_segments(lexicon, "right_hand", [utt])
    assert list(segments) == ["R0"]
    assert [s.tolist() for s in segments["R0"]] == [obs[:split].tolist(), obs[split:].tolist()]


def test_cut_segments_equal_oracle_with_epenthesis():
    # between_signs: no two adjacent blocks share a phoneme, so cutting
    # by block and by phoneme agree.
    lexicon = demo_lexicon()
    corpus = generate(lexicon, GenConfig(n_utterances=30, seed=5, signs_per_utterance=(1, 3)))
    for ch in lexicon.channels:
        got = _cut_segments(lexicon, ch, corpus)
        want = cut_segments_oracle(lexicon, ch, corpus)
        assert list(got) == list(want)
        for pid in want:
            assert [s.tolist() for s in got[pid]] == [s.tolist() for s in want[pid]]


def test_cut_segments_rejects_path_that_does_not_fit():
    lexicon = demo_lexicon()
    utt = generate(lexicon, GenConfig(n_utterances=1, seed=6))[0]
    utt.paths["head"][0] = -1
    with pytest.raises(ValidationError, match="'head' path"):
        _cut_segments(lexicon, "head", [utt])


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # A slice of the hash-seed determinism check's steps, looked up by
    # the file each writes, with phmm's command line run as run_process
    # runs it: one generate, embedded training with its INFO log, one
    # exhaustive decode, and a synced decode through evaluate, whose
    # report is compared untimed.
    import determinism

    by_file = {determinism.writes(step): step for step in determinism.STEPS}
    assert len(by_file) == len(determinism.STEPS)
    writes = ["corpus.jsonl", "model.json", "hyps.jsonl", "timed_synced.json", "report_synced.json"]
    steps = [by_file[name] for name in writes]
    files = ["corpus.jsonl", "model.json", "train.log", "hyps.jsonl", "report_synced.json"]
    assert set(files) <= set(determinism.FILES)
    environ = {**os.environ, "PYTHONPATH": str(Path(phmm.__file__).parents[1])}
    command = [sys.executable, "-m", "phmm.cli"]
    assert determinism.differing(steps, files, tmp_path, command, environ) == []
    assert "iteration" in (tmp_path / "hash1" / "train.log").read_text()


def test_determinism_against_names_the_files_that_differ(tmp_path, monkeypatch, capsys):
    # --against compares a run's hash1 files with another run's byte for
    # byte, here on hand-made directories, with the phmm steps stubbed.
    import determinism

    files = ["a.jsonl", "b.json", "c.log"]
    new, old = tmp_path / "new", tmp_path / "old"
    for outdir, contents in ((new, [b"1\n", b"{}", b"x"]), (old, [b"1\n", b"{ }", b"x"])):
        (outdir / "hash1").mkdir(parents=True)
        for name, content in zip(files, contents):
            (outdir / "hash1" / name).write_bytes(content)
    assert determinism.unequal(files, new / "hash1", old / "hash1") == ["b.json"]
    assert determinism.unequal(files, new / "hash1", new / "hash1") == []
    monkeypatch.setattr(determinism, "FILES", files)
    monkeypatch.setattr(determinism, "differing", lambda *args: [])
    assert determinism.main([str(new), "--against", str(new)]) == 0
    (old / "hash1" / "c.log").unlink()
    assert determinism.main([str(new), "--against", str(old)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{name} differs from {old / 'hash1' / name}" for name in ("b.json", "c.log")]
