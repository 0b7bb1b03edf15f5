"""The paper's gated claims hold at the tiny profile, and PAPER_RESULTS.json is current.

Every gated claim of ``paper_results.CLAIMS`` is judged on one run of the
figure drivers at ``tiny`` (about 3 s), so a change that breaks a work,
memory or trend relation of the paper's evaluation fails tier-1.  The
recorded (response-time and exactness) claims are evaluated in the same run
but not asserted.
"""

import json

import pytest

import paper_results


GATED = [claim.name for claim in paper_results.CLAIMS if claim.gated]


@pytest.fixture(scope="module")
def tiny_claims():
    return {row["name"]: row for row in paper_results.run("tiny")["claims"]}


@pytest.mark.parametrize("name", GATED)
def test_gated_claim_holds_at_tiny(tiny_claims, name):
    row = tiny_claims[name]
    assert row["holds"], f"{row['claim']} Measured: {json.dumps(row['measured'])}"


def test_committed_record_is_from_small_and_names_every_claim():
    record = json.loads(paper_results.RECORD_PATH.read_text())
    assert record["profile"] == "small"
    assert [row["name"] for row in record["claims"]] == [claim.name for claim in paper_results.CLAIMS]
    assert [row["gated"] for row in record["claims"]] == [claim.gated for claim in paper_results.CLAIMS]
    assert {"cpu_count", "python", "numpy", "scipy", "numba"} <= record.keys()
