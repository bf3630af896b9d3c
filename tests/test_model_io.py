import json

import numpy as np
import pytest

from helpers import build_lexicon

from phmm.demo import demo_lexicon
from phmm.errors import FileFormatError, ValidationError
from phmm.lexicon import validate_lexicon
from phmm.model_io import (
    FORMAT_VERSION,
    config_hash,
    lexicon_from_json,
    lexicon_to_json,
    load_model,
    save_model,
)


def test_roundtrip_is_identity(tmp_path):
    lex = build_lexicon(np.random.default_rng(3), policy="between_signs")
    path = tmp_path / "model.json"
    save_model(path, lex, {"seed": 11})
    loaded, prov = load_model(path)
    assert prov["seed"] == 11
    assert "tool_version" in prov
    assert loaded.channels == lex.channels
    assert loaded.epenthesis_policy == lex.epenthesis_policy
    assert loaded.exit_prob == lex.exit_prob
    for ch in lex.channels:
        a, b = lex.inventories[ch], loaded.inventories[ch]
        assert list(a.phonemes) == list(b.phonemes)
        assert a.epenthesis == b.epenthesis
        for pid in a.phonemes:
            ma, mb = a.phonemes[pid], b.phonemes[pid]
            assert np.array_equal(ma.pi, mb.pi)
            assert np.array_equal(ma.trans, mb.trans)
            assert np.array_equal(ma.emissions.probs, mb.emissions.probs)
            assert ma.topology == mb.topology
    for sid in lex.signs:
        assert loaded.signs[sid].channels == lex.signs[sid].channels


def test_save_is_deterministic(tmp_path):
    lex = demo_lexicon()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, lex, {"seed": 1})
    save_model(p2, lex, {"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_full_precision_roundtrip():
    lex = build_lexicon(np.random.default_rng(5))
    blob = json.dumps(lexicon_to_json(lex))
    loaded, _ = lexicon_from_json(json.loads(blob))
    for ch in lex.channels:
        for pid, m in lex.inventories[ch].phonemes.items():
            again = loaded.inventories[ch].phonemes[pid]
            assert np.array_equal(m.trans, again.trans)
            assert np.array_equal(m.emissions.probs, again.emissions.probs)


def test_higher_version_rejected():
    lex = demo_lexicon()
    data = lexicon_to_json(lex)
    data["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(FileFormatError):
        lexicon_from_json(data)


@pytest.mark.parametrize("version", [True, 0, -3])
def test_only_supported_integer_versions_load(version):
    data = lexicon_to_json(demo_lexicon())
    data["format_version"] = version
    with pytest.raises(FileFormatError, match="unsupported format_version"):
        lexicon_from_json(data)


def test_invalid_model_rejected_on_load():
    lex = demo_lexicon()
    data = lexicon_to_json(lex)
    data["inventories"]["head"]["phonemes"]["H0"]["pi"] = [0.6, 0.6, 0.0]
    with pytest.raises(ValidationError):
        lexicon_from_json(data)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("channels", lambda data: data.update(channels="right_hand")),
        ("signs.sign0.right_hand", lambda data: data["signs"]["sign0"].update(right_hand="R0")),
    ],
    ids=["channels", "sign-channel"],
)
def test_string_for_array_field_is_named(field, edit):
    # Read character by character, these strings would be reported as
    # duplicate channel names and as the unknown phoneme 'R'.
    data = lexicon_to_json(demo_lexicon())
    edit(data)
    with pytest.raises(FileFormatError, match=f"{field} must be a JSON array"):
        lexicon_from_json(data)


def test_exit_prob_must_be_a_number():
    data = lexicon_to_json(demo_lexicon())
    data["exit_prob"] = [0.5]
    with pytest.raises(ValidationError, match="exit_prob must be in"):
        lexicon_from_json(data)


def test_config_hash_stable_and_order_insensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_demo_lexicon_is_valid_and_well_separated():
    lex = demo_lexicon()
    validate_lexicon(lex)
    assert len(lex.signs) == 8
    assert len(lex.channels) == 3
    for ch in lex.channels:
        inv = lex.inventories[ch]
        assert len(inv.content_ids) == 4
        for pid, model in inv.phonemes.items():
            probs = model.emissions.probs
            own = probs.sum(axis=0) > 0
            assert own.sum() == 2
            assert probs[:, own].sum(axis=1) == pytest.approx([1.0] * 3)
