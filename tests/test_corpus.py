"""Seeded sweeps and README estimates against the committed regression corpus.

``corpus.json`` holds every row's NMSE and failure count of a few seeded
sweeps and the estimates of the README examples; ``make_corpus.py``
regenerates it.  NMSEs and estimates must agree to 1e-12 relative (not
byte for byte: last-bit FFT agreement across numpy builds is not
guaranteed), failure counts exactly.
"""

import json
import math

import pytest

from make_corpus import CORPUS, estimate_report, sweep_rows

CASES = json.loads(CORPUS.read_text())
RTOL = 1e-12


def _close(got, want) -> bool:
    """``got`` within RTOL of ``want``; None (a NaN NMSE) only matches None."""
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


@pytest.mark.parametrize("case", CASES["sweeps"],
                         ids=lambda c: f"{c['mode']}-{'-'.join(c['grid'])}-seed{c['seed']}")
def test_sweep_matches_corpus(case):
    got = sweep_rows(case["system"], case["grid"], case["trials"], case["seed"],
                     case["snr_db"], case["mode"])
    assert len(got) == len(case["rows"])
    for g, want in zip(got, case["rows"]):
        assert g[:3] == want[:3] and g[4] == want[4], (g, want)
        assert _close(g[3], want[3]), (g, want)


def test_corpus_has_failed_trials():
    assert any(row[4] > 0 for case in CASES["sweeps"] for row in case["rows"])


@pytest.mark.parametrize("case", CASES["estimates"], ids=lambda c: " ".join(c["argv"]))
def test_readme_estimate_matches_corpus(case):
    estimate = estimate_report(case["argv"])["estimate"]
    assert estimate.keys() == case["estimate"].keys()
    for key, want in case["estimate"].items():
        assert _close(estimate[key], want), (key, estimate[key], want)
