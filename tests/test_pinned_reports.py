"""Report bytes pinned across code changes.

Criterion 9 compares repeated runs of the same code with each other; these
digests compare a run with the bytes the program wrote before cc_list_kp
and cluster_list_kp shared one listing core. A change that moves one of
them changes report bytes, and must say which and why.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from congestlist.config import SimConfig
from congestlist.graphs import encode_cliques, gnp, planted
from congestlist.pipeline import congest_list_k4, congest_list_kp
from congestlist.sparse_listing import cc_list_kp

FORCED = {"forced_depth": 2, "eps0_fraction": Fraction(1, 2)}


def sha256_json(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def test_padded_cc_report():
    cliques, acc = cc_list_kp(gnp(48, 0.1, 2), 4, seed=4)
    assert acc.notes["m_padded"] > acc.notes["m_real"]
    doc = {"cliques": encode_cliques(sorted(cliques)), "accounting": acc.to_json()}
    assert sha256_json(doc) == \
        "69b23c165dfbc87e7531d490b60dc53693f05fdc0ce5fec610306e02ffe70b22"


@pytest.mark.parametrize("run, digest", [
    (congest_list_kp, "f9ec5c68cb0b18e3560756a6ad80e30e2af9f80cd7421b0b9cd0b943cedb5c59"),
    (congest_list_k4, "cedf2627d9da78b923002e55c547b30dc71e9d4f0e1c1effcb642eaf836c9a19"),
], ids=["congest", "congest-k4"])
def test_forced_depth_congest_report(run, digest):
    g = planted(64, 14, 3, 0.01, seed=3)
    args = (g, 4, 3) if run is congest_list_kp else (g, 3)
    report = run(*args, SimConfig(heavy_factor=0.25), **FORCED)
    assert report.cluster_reports
    out = report.to_json()
    del out["config"]
    assert sha256_json(out) == digest
