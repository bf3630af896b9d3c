"""Model-file serialization: lexicon structure, per-channel inventories
with full model parameters, and a provenance block.

One JSON document per file, full-precision decimal numbers, versioned
with format_version. Loading a file fails loudly unless its version is
an int (not a bool) from 1 to FORMAT_VERSION.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__, emissions
from .errors import FileFormatError
from .hmm import Hmm, Topology
from .lexicon import Lexicon, PhonemeInventory, Sign, validate_lexicon

FORMAT_VERSION = 1


def config_hash(config):
    """Stable hash of a JSON-serializable configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _hmm_to_json(model):
    return {
        "topology": model.topology.value,
        "pi": model.pi.tolist(),
        "trans": model.trans.tolist(),
        "emission": model.emissions.to_json(),
    }


def _hmm_from_json(data):
    return Hmm(
        pi=emissions.json_numbers("pi", data["pi"]),
        trans=emissions.json_numbers("trans", data["trans"]),
        emissions=emissions.from_json(data["emission"]),
        topology=Topology(data["topology"]),
    )


def lexicon_to_json(lexicon, provenance=None):
    return {
        "format_version": FORMAT_VERSION,
        "provenance": dict(provenance or {}, tool_version=__version__),
        "channels": list(lexicon.channels),
        "epenthesis_policy": lexicon.epenthesis_policy,
        "exit_prob": float(lexicon.exit_prob),
        "inventories": {
            ch: {
                "epenthesis": inv.epenthesis,
                "phonemes": {
                    pid: _hmm_to_json(m) for pid, m in inv.phonemes.items()
                },
            }
            for ch, inv in lexicon.inventories.items()
        },
        "signs": {
            sid: {ch: list(seq) for ch, seq in sign.channels.items()}
            for sid, sign in lexicon.signs.items()
        },
    }


def _array(field, value):
    """value, which must be a JSON array (a string would be read by character)."""
    if not isinstance(value, list):
        raise FileFormatError(f"model file field {field} must be a JSON array, got {value!r}")
    return value


def lexicon_from_json(data):
    """Returns (lexicon, provenance); FileFormatError for a document that
    does not follow the model-file schema."""
    if not isinstance(data, dict):
        raise FileFormatError("a model file must hold a JSON object")
    version = data.get("format_version")
    if type(version) is not int or not 1 <= version <= FORMAT_VERSION:
        raise FileFormatError(
            f"unsupported format_version {version!r} (supported: {FORMAT_VERSION})"
        )
    try:
        inventories = {}
        for ch, inv in data["inventories"].items():
            inventories[ch] = PhonemeInventory(
                phonemes={pid: _hmm_from_json(m) for pid, m in inv["phonemes"].items()},
                epenthesis=inv.get("epenthesis"),
            )
        signs = {
            sid: Sign(sid, {ch: list(_array(f"signs.{sid}.{ch}", s)) for ch, s in chans.items()})
            for sid, chans in data["signs"].items()
        }
        lexicon = Lexicon(
            channels=list(_array("channels", data["channels"])),
            inventories=inventories,
            signs=signs,
            epenthesis_policy=data["epenthesis_policy"],
            exit_prob=emissions.json_numbers("exit_prob", data["exit_prob"]),
        )
        # Validation reads array shapes and phoneme ids, so a misshapen
        # array or an unhashable id fails in there.
        validate_lexicon(lexicon)
    except KeyError as exc:
        raise FileFormatError(f"model file lacks field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed model file: {exc}") from exc
    return lexicon, data.get("provenance", {})


def save_model(path, lexicon, provenance=None):
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps takes the C encoder in one call; json.dump never does.
        fh.write(json.dumps(lexicon_to_json(lexicon, provenance)) + "\n")


def load_model(path):
    """Returns (lexicon, provenance); the lexicon is fully validated."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"invalid model file {path}: {exc}") from exc
    return lexicon_from_json(data)
