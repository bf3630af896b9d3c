"""Recognition metrics: edit-distance alignment, sign error rate and the
factored-vs-product model-count accounting."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .parallel import DECODE_FAILURES, decode, model_count


def alignment(ref, hyp):
    """Minimal unit-cost alignment as (ref_sym | None, hyp_sym | None) pairs.

    Ties prefer substitution over insertion over deletion, making the
    alignment deterministic.
    """
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    dist = [list(range(m + 1))] + [[i] + [0] * m for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            dist[i][j] = min(diag, dist[i][j - 1] + 1, dist[i - 1][j] + 1)
    # Walk back from the corner, re-deriving each step from dist in the
    # tie order above.
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        if i and j and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            i, j = i - 1, j - 1
            pairs.append((ref[i], hyp[j]))
        elif j and dist[i][j] == dist[i][j - 1] + 1:
            j -= 1
            pairs.append((None, hyp[j]))
        else:
            i -= 1
            pairs.append((ref[i], None))
    pairs.reverse()
    return pairs


def _error_counts(pairs):
    """(substitutions, insertions, deletions) of alignment pairs."""
    s = i = d = 0
    for r, h in pairs:
        if r is None:
            i += 1
        elif h is None:
            d += 1
        elif r != h:
            s += 1
    return s, i, d


def edit_distance(ref, hyp):
    """(substitutions, insertions, deletions) of the minimal alignment."""
    return _error_counts(alignment(ref, hyp))


@dataclass
class EvalReport:
    n_utterances: int
    substitutions: int
    insertions: int
    deletions: int
    n_reference_signs: int
    sign_error_rate: float
    exact_match_rate: float
    confusions: dict
    mean_decode_seconds: float
    factored_models: int
    product_models: int
    n_decode_failures: int = 0


def evaluate(lexicon, corpus, mode="exhaustive", max_signs=3, beam_width=1000):
    """Decode every utterance and pool error counts over the corpus.

    The sign error rate is corpus-level: total (S + I + D) over total
    reference signs. A decode failure (no finite hypothesis, or
    unequal channel lengths in synced mode) counts as full deletion of
    that utterance's reference. Timing covers the decode call only.
    """
    total_s = total_i = total_d = total_ref = 0
    exact = 0
    failures = 0
    confusions = {}
    decode_time = 0.0
    cache = {}
    for utt in corpus:
        t0 = time.perf_counter()
        try:
            hyp_signs = list(decode(lexicon, utt.mobs, mode, max_signs, beam_width, cache).signs)
        except DECODE_FAILURES:
            hyp_signs = []
            failures += 1
        decode_time += time.perf_counter() - t0
        pairs = alignment(utt.signs, hyp_signs)
        s, i, d = _error_counts(pairs)
        for pair in pairs:
            confusions[pair] = confusions.get(pair, 0) + 1
        total_s += s
        total_i += i
        total_d += d
        total_ref += len(utt.signs)
        exact += hyp_signs == list(utt.signs)
    factored, product = model_count(lexicon)
    n = len(corpus)
    return EvalReport(
        n_utterances=n,
        substitutions=total_s,
        insertions=total_i,
        deletions=total_d,
        n_reference_signs=total_ref,
        sign_error_rate=(total_s + total_i + total_d) / total_ref if total_ref else 0.0,
        exact_match_rate=exact / n if n else 0.0,
        confusions=confusions,
        mean_decode_seconds=decode_time / n if n else 0.0,
        factored_models=factored,
        product_models=product,
        n_decode_failures=failures,
    )


def report_to_dict(report):
    """Stable-schema dict for JSON output; confusion keys are flattened."""
    confusions = [
        {"ref": r, "hyp": h, "count": c}
        for (r, h), c in sorted(
            report.confusions.items(), key=lambda kv: (kv[0][0] or "", kv[0][1] or "")
        )
    ]
    return {
        "report_version": 1,
        "n_utterances": report.n_utterances,
        "substitutions": report.substitutions,
        "insertions": report.insertions,
        "deletions": report.deletions,
        "n_reference_signs": report.n_reference_signs,
        "sign_error_rate": report.sign_error_rate,
        "exact_match_rate": report.exact_match_rate,
        "n_decode_failures": report.n_decode_failures,
        "model_count": {
            "factored": report.factored_models,
            "product": report.product_models,
        },
        "timing": {"mean_decode_seconds": report.mean_decode_seconds},
        "confusions": confusions,
    }
